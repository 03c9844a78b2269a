#include "core/graphgen.h"

#include <algorithm>
#include <unordered_map>

#include "common/cancel.h"
#include "common/faultpoints.h"
#include "common/timer.h"
#include "core/representation_picker.h"
#include "datalog/parser.h"
#include "datalog/validator.h"
#include "dedup/bitmap_algorithms.h"
#include "dedup/dedup1_algorithms.h"
#include "dedup/dedup2_builder.h"
#include "graph/flat_adjacency.h"
#include "obs/profile.h"
#include "planner/preprocess.h"
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

// Advances an EXP basis by the patch's new condensed edges, returning the
// patched graph. The expanded delta is computed exactly: each new
// condensed edge (a -> b) contributes the pairs R_src(a) × R_dst(b),
// where R_src collects the reals with a virtual-only path INTO a (just
// {a} when a is real) and R_dst the reals reachable FROM b through
// virtuals — mirroring the expansion traversal (virtual-only interior,
// self paths skipped), so the work is proportional to the expanded delta
// rather than to the full neighborhoods of every touched vertex.
//
// The sorted delta is merged with the basis into a fresh flat adjacency in
// one linear pass (FlatAdjacency::Merge), so every patched graph is flat.
// The basis is read through RawNeighbors, so edges a §3.4 mutation left in
// its copy-on-write overlay carry over. `profile` receives the candidate
// and delta counts and the sort and merge times.
// Runs against the *pre-preprocess* canonical graph `storage`: expansion
// is the transitive closure through virtuals, which §4.2 Step 6
// preprocessing does not change, and the patch's edge refs are numbered
// in it.
Result<std::unique_ptr<ExpandedGraph>> PatchExpanded(
    const ExpandedGraph& basis, const CondensedStorage& storage,
    const std::vector<std::pair<NodeRef, NodeRef>>& new_edges,
    const GraphGenOptions& options, obs::ProfileNode& profile) {
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
  // sorted + deduped, one sorted run per touched vertex. Both halves live
  // in the dense [0, n) real-id domain and the delta is hub-amplified
  // (large, duplicate-heavy), so two stable counting passes beat a
  // comparison sort. A vertex deleted in the basis takes no new edge, so
  // the adopted arrays keep the span contract.
  auto live = [&](NodeId v) { return v >= basis_n || basis.VertexExists(v); };
  std::vector<uint64_t> keys;
  for (const auto& [from, to] : new_edges) {
    GRAPHGEN_RETURN_NOT_OK(ctx.Check());
    const std::vector<NodeId>& srcs = reals_of(from, /*backward=*/true,
                                               src_reals);
    const std::vector<NodeId>& dsts = reals_of(to, /*backward=*/false,
                                               dst_reals);
    for (const NodeId r : srcs) {
      if (!live(r)) continue;
      const uint64_t hi = static_cast<uint64_t>(r) << 32;
      for (const NodeId s : dsts) {
        // Self paths are never logical edges.
        if (r != s && live(s)) keys.push_back(hi | s);
      }
    }
  }

  profile.AddStat("raw_candidates", static_cast<double>(keys.size()));

  WallTimer sort_timer;
  std::vector<uint64_t> sort_tmp;
  std::vector<uint32_t> sort_counts;
  auto counting_sort = [&](auto key_of) {
    sort_counts.assign(n + 1, 0);
    for (const uint64_t k : keys) ++sort_counts[key_of(k) + 1];
    for (size_t i = 1; i <= n; ++i) sort_counts[i] += sort_counts[i - 1];
    sort_tmp.resize(keys.size());
    for (const uint64_t k : keys) sort_tmp[sort_counts[key_of(k)]++] = k;
    keys.swap(sort_tmp);
  };
  counting_sort([](uint64_t k) { return static_cast<uint32_t>(k); });
  counting_sort([](uint64_t k) { return static_cast<uint32_t>(k >> 32); });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  profile.AddChild("sort")->seconds = sort_timer.Seconds();
  profile.AddStat("delta_pairs", static_cast<double>(keys.size()));
  GRAPHGEN_RETURN_NOT_OK(ctx.Check());

  WallTimer merge_timer;
  FlatAdjacency out = FlatAdjacency::Merge(
      n, basis_n, [&](NodeId u) { return basis.RawNeighbors(u); }, keys);
  profile.AddChild("merge")->seconds = merge_timer.Seconds();
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
  exp->AdoptCsr(std::move(out),
                any_deleted ? std::move(deleted) : std::vector<uint8_t>{});
  exp->properties() = storage.properties();
  return exp;
}

}  // namespace

Result<PatchOutcome> GraphGen::PatchExtracted(
    const ExtractedGraph& cached, const GraphGenOptions& options) const {
  PatchOutcome out;
  if (cached.incremental == nullptr) {
    out.fallback = planner::PatchFallback::kNoCapturedState;
    return out;
  }
  WallTimer wall;
  const uint64_t db_tick = db_->CurrentTick();
  const auto* exp = dynamic_cast<const ExpandedGraph*>(cached.graph.get());
  const bool merge_exp = cached.representation == Representation::kExp &&
                         exp != nullptr && exp->HasFlatAdjacency();
  // The EXP merge traverses the pre-preprocess graph its new edges are
  // numbered in, so that patch preprocesses the same graph afterwards.
  planner::ExtractOptions patch_options = options.extract;
  if (merge_exp) patch_options.preprocess = false;
  GRAPHGEN_ASSIGN_OR_RETURN(
      planner::PatchAttempt attempt,
      planner::PatchExtraction(*db_, *cached.incremental, patch_options));
  if (!attempt.patched) {
    out.fallback = attempt.fallback;
    return out;
  }
  planner::ExtractionResult& result = attempt.result;

  WallTimer timer;
  ExtractedGraph graph;
  planner::ExtractionResult stats_copy;
  if (merge_exp) {
    obs::ProfileNode merge("exp_merge");
    GRAPHGEN_ASSIGN_OR_RETURN(
        std::unique_ptr<ExpandedGraph> patched_exp,
        PatchExpanded(*exp, result.storage, attempt.new_edges, options,
                      merge));
    graph.graph = std::move(patched_exp);
    graph.representation = Representation::kExp;
    graph.dedup_seconds = timer.Seconds();
    merge.seconds = graph.dedup_seconds;
    if (obs::Enabled()) {
      stats_copy.profile.root.children.push_back(std::move(merge));
    }
    // The condensed statistics are those of the preprocessed graph.
    if (options.extract.preprocess) {
      GRAPHGEN_RETURN_NOT_OK(options.extract.ctx.Check());
      planner::ExpandSmallVirtualNodes(result.storage, options.extract.threads);
      result.condensed_edges = result.storage.CountCondensedEdges();
      result.virtual_nodes = result.storage.NumVirtualNodes();
    }
  } else {
    // Any other representation rebuilds from the patched condensed graph,
    // pinned to the cached representation so the entry's identity (and
    // kAuto's earlier choice) is stable across patches.
    GraphGenOptions rebuild = options;
    rebuild.representation = cached.representation;
    GRAPHGEN_ASSIGN_OR_RETURN(graph,
                              Materialize(std::move(result.storage), rebuild));
  }

  stats_copy.sql = std::move(result.sql);
  stats_copy.rows_scanned = result.rows_scanned;
  stats_copy.condensed_edges = result.condensed_edges;
  stats_copy.virtual_nodes = result.virtual_nodes;
  stats_copy.real_nodes = result.real_nodes;
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
