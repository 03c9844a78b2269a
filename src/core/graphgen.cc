#include "core/graphgen.h"

#include <algorithm>
#include <unordered_map>

#include "common/cancel.h"
#include "common/faultpoints.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/representation_picker.h"
#include "datalog/parser.h"
#include "datalog/validator.h"
#include "dedup/bitmap_algorithms.h"
#include "dedup/dedup1_algorithms.h"
#include "dedup/dedup2_builder.h"
#include "repr/cdup_graph.h"
#include "repr/expander.h"

namespace graphgen {

std::string_view RepresentationToString(Representation r) {
  switch (r) {
    case Representation::kAuto: return "AUTO";
    case Representation::kCDup: return "C-DUP";
    case Representation::kExp: return "EXP";
    case Representation::kDedup1: return "DEDUP-1";
    case Representation::kDedup2: return "DEDUP-2";
    case Representation::kBitmap1: return "BITMAP-1";
    case Representation::kBitmap2: return "BITMAP-2";
  }
  return "?";
}

std::string_view Dedup1AlgorithmToString(Dedup1Algorithm a) {
  switch (a) {
    case Dedup1Algorithm::kNaiveVirtualFirst: return "NaiveVirtualFirst";
    case Dedup1Algorithm::kNaiveRealFirst: return "NaiveRealFirst";
    case Dedup1Algorithm::kGreedyRealFirst: return "GreedyRealFirst";
    case Dedup1Algorithm::kGreedyVirtualFirst: return "GreedyVirtualFirst";
  }
  return "?";
}

Result<ExtractedGraph> GraphGen::Extract(std::string_view datalog,
                                         const GraphGenOptions& options) const {
  WallTimer wall;
  // Recorded before the pipeline reads any table: if the database mutates
  // mid-extraction, the tick moves past this and the result reads stale.
  const uint64_t db_tick = db_->CurrentTick();
  planner::ExtractionResult extraction;
  std::shared_ptr<planner::IncrementalState> captured;
  if (options.capture_incremental) {
    captured = std::make_shared<planner::IncrementalState>();
  }
  GRAPHGEN_ASSIGN_OR_RETURN(
      extraction, planner::ExtractFromQuery(*db_, datalog, options.extract,
                                            captured.get()));
  planner::ExtractionResult stats_copy;
  stats_copy.sql = extraction.sql;
  stats_copy.rows_scanned = extraction.rows_scanned;
  stats_copy.condensed_edges = extraction.condensed_edges;
  stats_copy.virtual_nodes = extraction.virtual_nodes;
  stats_copy.real_nodes = extraction.real_nodes;
  stats_copy.profile = std::move(extraction.profile);

  GRAPHGEN_ASSIGN_OR_RETURN(
      ExtractedGraph out,
      Materialize(std::move(extraction.storage), options));
  stats_copy.storage = CondensedStorage();  // storage moved into the graph
  if (!stats_copy.profile.empty()) {
    obs::ProfileNode* m = stats_copy.profile.root.AddChild(
        "materialize", RepresentationToString(out.representation));
    m->seconds = out.dedup_seconds;
  }
  stats_copy.profile.wall_seconds = wall.Seconds();
  out.stats = std::move(stats_copy);
  out.incremental = std::move(captured);
  out.db_tick = db_tick;
  return out;
}

namespace {

// Fraction of vertices an EXP patch may touch before the overlay stops
// paying: a delta touching more skips the copy-on-write overlay for the
// flat merge below, and an overlay that has accumulated patch entries on
// more than this fraction is re-flattened (ExpandedGraph::Compact).
constexpr double kExpCompactThreshold = 0.05;

// Advances an EXP basis by the patch's new condensed edges, returning the
// patched graph. The expanded delta is computed exactly: each new
// condensed edge (a -> b) contributes the pairs R_src(a) × R_dst(b),
// where R_src collects the reals with a virtual-only path INTO a (just
// {a} when a is real) and R_dst the reals reachable FROM b through
// virtuals — mirroring the expansion traversal (virtual-only interior,
// self paths skipped), so the work is proportional to the expanded delta
// rather than to the full neighborhoods of every touched vertex.
//
// Application is two-mode: a small delta copies the basis and merges into
// its copy-on-write overlay; a delta that would patch more vertices than
// the compaction threshold tolerates skips COW entirely (copy + overlay +
// Compact is three O(E) passes) and merges base CSR and sorted delta into
// fresh flat arrays in one linear pass per direction. Runs against the
// *pre-preprocess* canonical graph — expansion is the transitive closure
// through virtuals, which §4.2 Step 6 preprocessing does not change, and
// the patch's edge refs are numbered in it.
Result<std::unique_ptr<ExpandedGraph>> PatchExpanded(
    const ExpandedGraph& basis, const planner::PatchAttempt& attempt,
    const GraphGenOptions& options) {
  const CondensedStorage& storage = attempt.state->graph;
  const ExecContext& ctx = options.extract.ctx;
  const size_t n = storage.NumRealNodes();
  const size_t basis_n = basis.NumVertices();

  std::vector<NodeId> src_reals, dst_reals;
  std::vector<uint8_t> seen_virtual(storage.NumVirtualNodes(), 0);
  std::vector<uint32_t> marked;  // lazily reset between traversals
  std::vector<NodeRef> stack;
  auto collect = [&](NodeRef start, bool backward, std::vector<NodeId>& out) {
    out.clear();
    if (start.is_real()) {
      out.push_back(static_cast<NodeId>(start.index()));
      return;
    }
    for (uint32_t v : marked) seen_virtual[v] = 0;
    marked.clear();
    stack.clear();
    stack.push_back(start);
    seen_virtual[start.index()] = 1;
    marked.push_back(start.index());
    while (!stack.empty()) {
      const NodeRef v = stack.back();
      stack.pop_back();
      for (NodeRef w : backward ? storage.InEdges(v) : storage.OutEdges(v)) {
        if (w.is_real()) {
          out.push_back(static_cast<NodeId>(w.index()));
        } else if (!seen_virtual[w.index()]) {
          seen_virtual[w.index()] = 1;
          marked.push_back(w.index());
          stack.push_back(w);
        }
      }
    }
    // A real can reach the seed through several virtuals; dedup so the
    // pair loop below stays proportional to distinct pairs.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  };
  // Hub virtuals recur across the delta's new edges (every new row under
  // the same hub re-seeds it), so each virtual's real set is collected
  // once per direction.
  std::unordered_map<uint32_t, std::vector<NodeId>> memo_back, memo_fwd;
  auto reals_of = [&](NodeRef nr, bool backward,
                      std::vector<NodeId>& single) -> const std::vector<NodeId>& {
    if (nr.is_real()) {
      single.assign(1, static_cast<NodeId>(nr.index()));
      return single;
    }
    auto& memo = backward ? memo_back : memo_fwd;
    auto it = memo.find(nr.index());
    if (it != memo.end()) return it->second;
    std::vector<NodeId> out;
    collect(nr, backward, out);
    return memo.emplace(nr.index(), std::move(out)).first->second;
  };
  // Candidate pairs are emitted pre-packed ((u << 32) | v) and then
  // sorted + deduped so both application modes see one sorted run per
  // touched vertex. Both halves live in the dense [0, n) real-id domain
  // and the delta is hub-amplified (large, duplicate-heavy), so two
  // stable counting passes beat a comparison sort. `touched` counts the
  // distinct overlay entries the COW path would create.
  std::vector<uint64_t> keys;
  for (const auto& [from, to] : attempt.new_edges) {
    GRAPHGEN_RETURN_NOT_OK(ctx.Check());
    const std::vector<NodeId>& srcs = reals_of(from, /*backward=*/true,
                                               src_reals);
    const std::vector<NodeId>& dsts = reals_of(to, /*backward=*/false,
                                               dst_reals);
    for (const NodeId r : srcs) {
      const uint64_t hi = static_cast<uint64_t>(r) << 32;
      for (const NodeId s : dsts) {
        if (r == s) continue;  // self paths are never logical edges
        keys.push_back(hi | s);
      }
    }
  }

  std::vector<uint64_t> sort_tmp;
  std::vector<uint32_t> sort_counts;
  auto counting_sort = [&](std::vector<uint64_t>& v, auto key_of) {
    sort_counts.assign(n + 1, 0);
    for (const uint64_t k : v) ++sort_counts[key_of(k) + 1];
    for (size_t i = 1; i <= n; ++i) sort_counts[i] += sort_counts[i - 1];
    sort_tmp.resize(v.size());
    for (const uint64_t k : v) sort_tmp[sort_counts[key_of(k)]++] = k;
    v.swap(sort_tmp);
  };
  auto lo32 = [](uint64_t k) { return static_cast<uint32_t>(k); };
  auto hi32 = [](uint64_t k) { return static_cast<uint32_t>(k >> 32); };
  counting_sort(keys, lo32);
  counting_sort(keys, hi32);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<uint64_t> reversed;
  reversed.reserve(keys.size());
  for (const uint64_t k : keys) {
    reversed.push_back(k << 32 | k >> 32);
  }
  counting_sort(reversed, lo32);
  counting_sort(reversed, hi32);
  auto count_runs = [](const std::vector<uint64_t>& ks) {
    size_t runs = 0;
    for (size_t i = 0; i < ks.size(); ++i) {
      if (i == 0 || (ks[i] >> 32) != (ks[i - 1] >> 32)) ++runs;
    }
    return runs;
  };
  const size_t touched = count_runs(keys) + count_runs(reversed);
  GRAPHGEN_RETURN_NOT_OK(ctx.Check());

  if (static_cast<double>(touched) <=
      kExpCompactThreshold * static_cast<double>(n)) {
    // Small delta: copy the basis and merge into its COW overlay.
    auto exp = std::make_unique<ExpandedGraph>(basis);
    while (exp->NumVertices() < n) exp->AddVertex();
    // New nodes and replayed property writes (props are identical pre-
    // and post-preprocess).
    exp->properties() = storage.properties();
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(keys.size());
    for (const uint64_t k : keys) {
      pairs.emplace_back(static_cast<NodeId>(k >> 32),
                         static_cast<NodeId>(k));
    }
    GRAPHGEN_RETURN_NOT_OK(exp->AddEdges(pairs));
    // Repeated small patches accumulate overlay; fold once past the
    // threshold so long-lived cache entries stay flat.
    if (static_cast<double>(exp->PatchedVertices()) >
        kExpCompactThreshold * static_cast<double>(exp->NumVertices())) {
      exp->Compact();
    }
    return exp;
  }

  // Large delta: one linear merge of the basis CSR and the sorted delta
  // per direction, directly into fresh flat arrays. Untouched vertices
  // are bulk range copies; touched vertices a two-pointer sorted union
  // (candidates already present in the basis are skipped, like AddEdge).
  // `reserve_hint` over-allocates by the candidates already present in
  // the basis; the final resize trims. Raw-pointer writes: this loop
  // streams ~2E elements and push_back's capacity check is measurable.
  auto build = [&](const std::vector<uint64_t>& sorted, auto span_of,
                   uint64_t reserve_hint, std::vector<uint64_t>& offsets,
                   std::vector<NodeId>& neighbors) {
    offsets.assign(n + 1, 0);
    neighbors.resize(reserve_hint);
    NodeId* w = neighbors.data();
    size_t k = 0;
    for (size_t u = 0; u < n; ++u) {
      const std::span<const NodeId> cur =
          u < basis_n ? span_of(static_cast<NodeId>(u))
                      : std::span<const NodeId>();
      const NodeId* p = cur.data();
      const NodeId* pe = p + cur.size();
      while (k < sorted.size() && (sorted[k] >> 32) == u) {
        const NodeId v = static_cast<NodeId>(sorted[k]);
        ++k;
        while (p != pe && *p < v) *w++ = *p++;
        if (p != pe && *p == v) continue;  // present; emitted by the drain
        *w++ = v;
      }
      w = std::copy(p, pe, w);
      offsets[u + 1] = static_cast<uint64_t>(w - neighbors.data());
    }
    neighbors.resize(static_cast<size_t>(w - neighbors.data()));
  };
  const uint64_t reserve_hint = basis.CountStoredEdges() + keys.size();
  std::vector<uint64_t> out_off, in_off;
  std::vector<NodeId> out_nei, in_nei;
  // The two directions stream independent arrays; overlap them unless the
  // caller asked for a single-threaded pipeline.
  auto build_out = [&] {
    build(keys, [&](NodeId u) { return basis.RawNeighbors(u); }, reserve_hint,
          out_off, out_nei);
  };
  auto build_in = [&] {
    build(reversed, [&](NodeId u) { return basis.RawInNeighbors(u); },
          reserve_hint, in_off, in_nei);
  };
  if (options.extract.threads == 1) {
    build_out();
    build_in();
  } else {
    ParallelInvoke(2, [&](size_t i) { i == 0 ? build_out() : build_in(); });
  }
  GRAPHGEN_RETURN_NOT_OK(ctx.Check());

  std::vector<uint8_t> deleted(n, 0);
  bool any_deleted = false;
  for (size_t u = 0; u < basis_n; ++u) {
    if (!basis.VertexExists(static_cast<NodeId>(u))) {
      deleted[u] = 1;
      any_deleted = true;
    }
  }
  auto exp = std::make_unique<ExpandedGraph>();
  exp->AdoptCsr(std::move(out_off), std::move(out_nei), std::move(in_off),
                std::move(in_nei),
                any_deleted ? std::move(deleted) : std::vector<uint8_t>{});
  exp->properties() = storage.properties();
  return exp;
}

}  // namespace

Result<PatchOutcome> GraphGen::PatchExtracted(
    const ExtractedGraph& cached, const GraphGenOptions& options) const {
  PatchOutcome out;
  if (cached.incremental == nullptr) {
    out.fallback_reason = "no incremental state captured";
    return out;
  }
  WallTimer wall;
  const uint64_t db_tick = db_->CurrentTick();
  GRAPHGEN_ASSIGN_OR_RETURN(
      planner::PatchAttempt attempt,
      planner::PatchExtraction(*db_, *cached.incremental, options.extract));
  if (!attempt.patched) {
    out.fallback_reason = std::move(attempt.fallback_reason);
    return out;
  }

  planner::ExtractionResult stats_copy;
  stats_copy.sql = attempt.result.sql;
  stats_copy.rows_scanned = attempt.result.rows_scanned;
  stats_copy.condensed_edges = attempt.result.condensed_edges;
  stats_copy.virtual_nodes = attempt.result.virtual_nodes;
  stats_copy.real_nodes = attempt.result.real_nodes;

  WallTimer timer;
  const auto* exp = dynamic_cast<const ExpandedGraph*>(cached.graph.get());
  ExtractedGraph graph;
  if (cached.representation == Representation::kExp && exp != nullptr &&
      exp->HasFlatAdjacency()) {
    GRAPHGEN_ASSIGN_OR_RETURN(std::unique_ptr<ExpandedGraph> patched_exp,
                              PatchExpanded(*exp, attempt, options));
    graph.graph = std::move(patched_exp);
    graph.representation = Representation::kExp;
    graph.dedup_seconds = timer.Seconds();
  } else {
    // Any other representation rebuilds from the patched condensed graph,
    // pinned to the cached representation so the entry's identity (and
    // kAuto's earlier choice) is stable across patches.
    GraphGenOptions rebuild = options;
    rebuild.representation = cached.representation;
    GRAPHGEN_ASSIGN_OR_RETURN(
        graph, Materialize(std::move(attempt.result.storage), rebuild));
  }
  stats_copy.profile.wall_seconds = wall.Seconds();
  graph.stats = std::move(stats_copy);
  graph.incremental = std::move(attempt.state);
  graph.db_tick = db_tick;
  out.patched = true;
  out.graph = std::move(graph);
  return out;
}

Result<std::vector<ExtractedGraph>> GraphGen::ExtractMany(
    const std::vector<std::string>& queries, const GraphGenOptions& options,
    size_t memory_budget_bytes, size_t* completed) const {
  std::vector<ExtractedGraph> graphs;
  size_t used = 0;
  if (completed != nullptr) *completed = 0;
  for (const std::string& query : queries) {
    auto result = Extract(query, options);
    if (!result.ok()) return result.status();
    used += result->FootprintBytes();
    if (memory_budget_bytes > 0 && used > memory_budget_bytes) {
      return Status::OutOfRange(
          "batch memory budget exceeded after " +
          std::to_string(graphs.size()) + " graphs (" + std::to_string(used) +
          " bytes > " + std::to_string(memory_budget_bytes) + ")");
    }
    graphs.push_back(std::move(*result));
    if (completed != nullptr) *completed = graphs.size();
  }
  return graphs;
}

Result<ExtractedGraph> GraphGen::Materialize(CondensedStorage storage,
                                             const GraphGenOptions& options) {
  GRAPHGEN_FAULT_POINT("core.materialize");
  const ExecContext& ctx = options.extract.ctx;
  GRAPHGEN_RETURN_NOT_OK(ctx.Check());
  // Representation builds copy the adjacency into fresh CSR-style arrays;
  // charge that up front so a budgeted request fails cleanly instead of
  // OOMing mid-build. Estimate: one NodeRef pair per condensed edge.
  GRAPHGEN_RETURN_NOT_OK(
      ctx.Charge(storage.CountCondensedEdges() * 2 * sizeof(NodeRef),
                 "representation build arrays"));
  ExtractedGraph out;
  Representation target = options.representation;
  if (target == Representation::kAuto) {
    target = ChooseRepresentation(storage, options.expand_threshold);
  }
  out.representation = target;

  WallTimer timer;
  switch (target) {
    case Representation::kCDup:
      out.graph = std::make_unique<CDupGraph>(std::move(storage));
      break;
    case Representation::kExp:
      out.graph = std::make_unique<ExpandedGraph>(ExpandCondensed(storage));
      break;
    case Representation::kDedup1: {
      CondensedStorage input = std::move(storage);
      if (!input.IsSingleLayer()) input = FlattenToSingleLayer(input);
      Result<Dedup1Graph> result = [&]() -> Result<Dedup1Graph> {
        switch (options.dedup1_algorithm) {
          case Dedup1Algorithm::kNaiveVirtualFirst:
            return NaiveVirtualNodesFirst(input, options.dedup);
          case Dedup1Algorithm::kNaiveRealFirst:
            return NaiveRealNodesFirst(input, options.dedup);
          case Dedup1Algorithm::kGreedyRealFirst:
            return GreedyRealNodesFirst(input, options.dedup);
          case Dedup1Algorithm::kGreedyVirtualFirst:
            return GreedyVirtualNodesFirst(input, options.dedup);
        }
        return Status::Internal("unknown DEDUP-1 algorithm");
      }();
      GRAPHGEN_RETURN_NOT_OK(result.status());
      out.graph = std::make_unique<Dedup1Graph>(std::move(*result));
      break;
    }
    case Representation::kDedup2: {
      CondensedStorage input = std::move(storage);
      if (!input.IsSingleLayer()) input = FlattenToSingleLayer(input);
      GRAPHGEN_ASSIGN_OR_RETURN(Dedup2Graph graph,
                                BuildDedup2(input, options.dedup));
      out.graph = std::make_unique<Dedup2Graph>(std::move(graph));
      break;
    }
    case Representation::kBitmap1: {
      GRAPHGEN_ASSIGN_OR_RETURN(BitmapGraph graph,
                                BuildBitmap1(storage, options.dedup));
      out.graph = std::make_unique<BitmapGraph>(std::move(graph));
      break;
    }
    case Representation::kBitmap2: {
      GRAPHGEN_ASSIGN_OR_RETURN(BitmapGraph graph,
                                BuildBitmap2(storage, options.dedup));
      out.graph = std::make_unique<BitmapGraph>(std::move(graph));
      break;
    }
    case Representation::kAuto:
      return Status::Internal("unresolved AUTO representation");
  }
  out.dedup_seconds = timer.Seconds();
  return out;
}

}  // namespace graphgen
