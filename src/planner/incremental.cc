#include "planner/incremental.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <utility>

#include "common/cancel.h"
#include "common/faultpoints.h"
#include "planner/extractor_internal.h"
#include "planner/join_analysis.h"
#include "planner/preprocess.h"
#include "planner/segmenter.h"

namespace graphgen::planner {

std::vector<uint32_t> CanonicalVirtualOrder(size_t nv,
                                            std::vector<BoundaryMapRef> maps) {
  std::vector<uint32_t> perm(nv, kInvalidNode);
  std::sort(maps.begin(), maps.end(),
            [](const BoundaryMapRef& a, const BoundaryMapRef& b) {
              return a.key < b.key;
            });
  uint32_t next = 0;
  for (const BoundaryMapRef& m : maps) {
    TypedIdMap& map = *m.map;
    std::vector<std::pair<int64_t, uint32_t>> ints;
    ints.reserve(map.ints.size());
    map.ints.ForEach([&](int64_t k, uint32_t v) { ints.emplace_back(k, v); });
    std::sort(ints.begin(), ints.end());
    for (const auto& [k, v] : ints) {
      (void)k;
      perm[v] = next++;
    }
    std::vector<std::pair<std::string_view, uint32_t>> strs;
    strs.reserve(map.strings.size());
    for (const auto& [s, v] : map.strings) strs.emplace_back(s, v);
    std::sort(strs.begin(), strs.end());
    for (const auto& [s, v] : strs) {
      (void)s;
      perm[v] = next++;
    }
    std::vector<std::pair<const rel::Value*, uint32_t>> vals;
    vals.reserve(map.others.size());
    for (const auto& [val, v] : map.others) vals.emplace_back(&val, v);
    std::sort(vals.begin(), vals.end(),
              [](const auto& a, const auto& b) { return *a.first < *b.first; });
    for (const auto& [val, v] : vals) {
      (void)val;
      perm[v] = next++;
    }
  }
  // Every virtual node is allocated through exactly one boundary map, so
  // this tail is defensive only (it keeps the permutation total).
  for (uint32_t v = 0; v < nv; ++v) {
    if (perm[v] == kInvalidNode) perm[v] = next++;
  }
  for (const BoundaryMapRef& m : maps) {
    m.map->ints.ForEachMutable([&](int64_t, uint32_t& v) { v = perm[v]; });
    for (auto& [s, v] : m.map->strings) {
      (void)s;
      v = perm[v];
    }
    for (auto& [val, v] : m.map->others) {
      (void)val;
      v = perm[v];
    }
  }
  return perm;
}

std::string_view PatchFallbackName(PatchFallback reason) {
  switch (reason) {
    case PatchFallback::kNone: return "none";
    case PatchFallback::kNoCapturedState: return "no_captured_state";
    case PatchFallback::kMalformedState: return "malformed_state";
    case PatchFallback::kTableDropped: return "table_dropped";
    case PatchFallback::kTableRebased: return "table_rebased";
    case PatchFallback::kTableShrank: return "table_shrank";
    case PatchFallback::kMultiNodesRuleDelta: return "multi_nodes_delta";
    case PatchFallback::kCountRuleTouched: return "count_rule_touched";
    case PatchFallback::kSegmentationDrift: return "segmentation_drift";
  }
  return "?";
}

size_t NodeTupleSet::MemoryBytes() const {
  return fingerprints.capacity() * sizeof(uint64_t) +
         rows.capacity() * sizeof(uint32_t);
}

void SpliceNodeTuples(NodeTupleSet& set,
                      std::vector<std::pair<uint64_t, uint32_t>>& added) {
  if (added.empty()) return;
  std::sort(added.begin(), added.end());
  const size_t n = set.size() + added.size();
  NodeTupleSet merged;
  merged.fingerprints.reserve(n);
  merged.rows.reserve(n);
  size_t i = 0;
  for (const auto& [fp, row] : added) {
    while (i < set.size() && std::pair(set.fingerprints[i], set.rows[i]) <
                                 std::pair(fp, row)) {
      merged.fingerprints.push_back(set.fingerprints[i]);
      merged.rows.push_back(set.rows[i]);
      ++i;
    }
    merged.fingerprints.push_back(fp);
    merged.rows.push_back(row);
  }
  merged.fingerprints.insert(merged.fingerprints.end(),
                             set.fingerprints.begin() + i,
                             set.fingerprints.end());
  merged.rows.insert(merged.rows.end(), set.rows.begin() + i, set.rows.end());
  set = std::move(merged);
}

size_t IncrementalState::MemoryBytes() const {
  size_t total = node_ids.MemoryBytes() + node_tuples.MemoryBytes();
  for (const auto& er : edge_rules) {
    for (const auto& pairs : er.seen_pairs) {
      total += pairs.capacity() * sizeof(uint64_t);
    }
    for (const auto& [b, m] : er.boundaries) {
      (void)b;
      total += m.MemoryBytes();
    }
  }
  return total;
}

namespace {

// True if `set` holds the tuple encoded as `bytes` (fingerprint `fp`):
// each stored row with an equal fingerprint is re-encoded from the
// table through `rows`' bindings and compared byte for byte.
bool ContainsNodeTuple(const NodeTupleSet& set,
                       const query::RowIdResult& rows, size_t ncols,
                       uint64_t fp, std::string_view bytes,
                       std::string& scratch) {
  auto it = std::lower_bound(set.fingerprints.begin(), set.fingerprints.end(),
                             fp);
  for (; it != set.fingerprints.end() && *it == fp; ++it) {
    EncodeNodeTuple(rows, set.rows[it - set.fingerprints.begin()], ncols,
                    scratch);
    if (scratch == bytes) return true;
  }
  return false;
}

// Builds the canonical pre-preprocess condensed graph from a state. The
// multiset union of the (rule, segment) pair sets is the graph's edge
// multiset: two rules that emit one pair store it once each. Every
// adjacency list is reserved at its exact size, filled, and sorted.
CondensedStorage BuildCondensed(const IncrementalState& st) {
  CondensedStorage g;
  g.AddRealNodes(st.num_real_nodes);
  g.AddVirtualNodes(st.num_virtual_nodes);
  const size_t nr = st.num_real_nodes;
  auto slot = [nr](uint32_t raw) {
    const NodeRef r = NodeRef::FromRaw(raw);
    return r.is_virtual() ? nr + r.index() : r.index();
  };
  std::vector<uint32_t> out_deg(nr + st.num_virtual_nodes, 0);
  std::vector<uint32_t> in_deg(nr + st.num_virtual_nodes, 0);
  for (const EdgeRuleState& ers : st.edge_rules) {
    for (const auto& pairs : ers.seen_pairs) {
      for (const uint64_t pair : pairs) {
        ++out_deg[slot(static_cast<uint32_t>(pair >> 32))];
        ++in_deg[slot(static_cast<uint32_t>(pair))];
      }
    }
  }
  for (size_t i = 0; i < out_deg.size(); ++i) {
    const NodeRef r = i < nr ? NodeRef::Real(static_cast<uint32_t>(i))
                             : NodeRef::Virtual(static_cast<uint32_t>(i - nr));
    g.MutableOutEdges(r).reserve(out_deg[i]);
    g.MutableInEdges(r).reserve(in_deg[i]);
  }
  for (const EdgeRuleState& ers : st.edge_rules) {
    for (const auto& pairs : ers.seen_pairs) {
      for (const uint64_t pair : pairs) {
        const auto from = NodeRef::FromRaw(static_cast<uint32_t>(pair >> 32));
        const auto to = NodeRef::FromRaw(static_cast<uint32_t>(pair));
        g.MutableOutEdges(from).push_back(to);
        g.MutableInEdges(to).push_back(from);
      }
    }
  }
  g.SortAdjacency();
  g.properties() = st.properties;
  return g;
}

// Splices one segment's patch candidates into its pair set. `candidates`
// is reduced to the pairs the set did not hold, sorted; the set stays
// sorted, duplicate-free and exact-size.
void SpliceNewPairs(std::vector<uint64_t>& seen,
                    std::vector<uint64_t>& candidates) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [&seen](uint64_t pair) {
                                    return std::binary_search(
                                        seen.begin(), seen.end(), pair);
                                  }),
                   candidates.end());
  if (candidates.empty()) return;
  std::vector<uint64_t> merged(seen.size() + candidates.size());
  std::merge(seen.begin(), seen.end(), candidates.begin(), candidates.end(),
             merged.begin());
  seen.swap(merged);
}

void InsertKey(query::KeyFilter& filter, const rel::Value& v) {
  switch (v.type()) {
    case rel::ValueType::kNull:
      return;  // NULL joins nothing
    case rel::ValueType::kInt64:
      filter.ints.insert(v.AsInt64());
      return;
    case rel::ValueType::kString:
      filter.strings.insert(v.AsString());
      return;
    default:
      filter.others.insert(v);
      return;
  }
}

// Distinct non-NULL values of `col` among rows [begin, end) of `t`,
// optionally restricted to rows whose `via_col` value is in `via`.
std::shared_ptr<query::KeyFilter> CollectKeys(const rel::Table& t, size_t col,
                                              size_t begin, size_t end,
                                              const query::KeyFilter* via,
                                              size_t via_col) {
  auto out = std::make_shared<query::KeyFilter>();
  end = std::min(end, t.NumRows());
  for (size_t i = begin; i < end; ++i) {
    if (via != nullptr && !via->Contains(t.ValueAt(i, via_col))) continue;
    InsertKey(*out, t.ValueAt(i, col));
  }
  return out;
}

// Yannakakis-style reduction for one patch pass over segment atoms
// [fa, la]: the pass's restriction (a delta row window on `seed`, or a
// key filter on the seed's in/out column for new-node passes) is turned
// into semi-join filters on every other atom's join column, propagated
// hop by hop through the table data. With a small delta the filters are
// tiny, so the pass's joins build over near-empty inputs instead of
// re-joining the full relations. Predicates are ignored while collecting
// (a superset filter is always sound), and NULL join keys are dropped —
// a NULL never matches anything.
std::vector<AtomSemiJoin> ReductionFilters(
    const rel::Database& db, const JoinChain& chain, size_t fa, size_t la,
    size_t seed, size_t seed_begin, size_t seed_end,
    const query::KeyFilter* seed_in, const query::KeyFilter* seed_out) {
  std::vector<AtomSemiJoin> filters;
  if (fa == la) return filters;  // single atom: nothing to reduce
  auto table_of = [&](size_t a) -> const rel::Table* {
    auto tr = db.GetTable(chain.atoms[a].atom->relation);
    return tr.ok() ? *tr : nullptr;
  };
  const rel::Table* seed_table = table_of(seed);
  if (seed_table == nullptr) return filters;
  // Leftward: atom a-1 joins atom a via (a-1).out_col == a.in_col.
  if (seed > fa) {
    std::shared_ptr<const query::KeyFilter> k =
        CollectKeys(*seed_table, chain.atoms[seed].in_col, seed_begin,
                    seed_end, seed_out, chain.atoms[seed].out_col);
    for (size_t a = seed; a-- > fa;) {
      filters.push_back({a, chain.atoms[a].out_col, k});
      if (a == fa) break;
      const rel::Table* t = table_of(a);
      if (t == nullptr) break;
      k = CollectKeys(*t, chain.atoms[a].in_col, 0, SIZE_MAX, k.get(),
                      chain.atoms[a].out_col);
    }
  }
  // Rightward: atom a joins atom a+1 via a.out_col == (a+1).in_col.
  if (seed < la) {
    std::shared_ptr<const query::KeyFilter> k =
        CollectKeys(*seed_table, chain.atoms[seed].out_col, seed_begin,
                    seed_end, seed_in, chain.atoms[seed].in_col);
    for (size_t a = seed + 1; a <= la; ++a) {
      filters.push_back({a, chain.atoms[a].in_col, k});
      if (a == la) break;
      const rel::Table* t = table_of(a);
      if (t == nullptr) break;
      k = CollectKeys(*t, chain.atoms[a].out_col, 0, SIZE_MAX, k.get(),
                      chain.atoms[a].in_col);
    }
  }
  return filters;
}

}  // namespace

Result<PatchAttempt> PatchExtraction(const rel::Database& db,
                                     const IncrementalState& basis,
                                     const ExtractOptions& options) {
  GRAPHGEN_FAULT_POINT("extract.patch");
  GRAPHGEN_RETURN_NOT_OK(options.ctx.Check());
  PatchAttempt attempt;
  auto fallback = [&attempt](PatchFallback reason) {
    attempt.patched = false;
    attempt.fallback = reason;
    return std::move(attempt);
  };
  const dsl::Program& program = basis.program;
  if (basis.edge_rules.size() != program.edges_rules.size()) {
    return fallback(PatchFallback::kMalformedState);
  }

  // ---- 1. Classify every basis table: unchanged, append delta, or void.
  std::map<std::string, std::pair<size_t, size_t>> deltas;  // [wm, rows)
  std::map<std::string, rel::TableVersion> now_versions;
  for (const auto& [name, tb] : basis.basis) {
    auto vr = db.VersionOf(name);
    if (!vr.ok()) return fallback(PatchFallback::kTableDropped);
    const rel::TableVersion now = std::move(vr).ValueOrDie();
    if (now.rebase_version > tb.version) {
      return fallback(PatchFallback::kTableRebased);
    }
    if (now.rows < tb.rows) return fallback(PatchFallback::kTableShrank);
    now_versions[name] = now;
    if (now.version != tb.version || now.rows != tb.rows) {
      deltas[name] = {tb.rows, now.rows};
    }
  }

  // ---- 2. Copy the basis; all splicing happens on the successor state
  // (the property columns stay shared until the node delta writes).
  auto next = std::make_shared<IncrementalState>(basis);
  IncrementalState& st = *next;
  ExtractionResult& result = attempt.result;

  // ---- 3. Node delta: DISTINCT over appended key-table rows only; rows
  // whose tuple the basis already applied are skipped, new tuples assign
  // properties last-writer-wins and new keys become real nodes.
  std::shared_ptr<query::KeyFilter> new_keys;
  bool node_tables_changed = false;
  for (const dsl::Rule& rule : program.nodes_rules) {
    for (const dsl::Atom& atom : rule.body) {
      if (deltas.contains(atom.relation)) node_tables_changed = true;
    }
  }
  if (node_tables_changed) {
    if (program.nodes_rules.size() > 1) {
      // A delta tuple could interleave real-node id assignment or
      // property write order across rules; real ids must never renumber.
      return fallback(PatchFallback::kMultiNodesRuleDelta);
    }
    const dsl::Rule& rule = program.nodes_rules[0];
    const auto& window = deltas.at(rule.body[0].relation);
    GRAPHGEN_ASSIGN_OR_RETURN(
        std::unique_ptr<query::PlanNode> plan,
        BuildNodesPlan(rule, window.first, window.second));
    result.sql.push_back(plan->ToSql());
    std::vector<const query::PlanNode*> refs{plan.get()};
    std::vector<ExecOutput> outs = RunPlans(db, refs, options);
    GRAPHGEN_RETURN_NOT_OK(outs[0].status);
    result.rows_scanned += outs[0].NumRows();

    std::vector<size_t> prop_cols;
    for (size_t i = 1; i < rule.head_args.size(); ++i) {
      prop_cols.push_back(st.properties.AddColumn(rule.head_args[i]));
    }
    const query::RowIdResult& rows = outs[0].rows;
    EndpointColumn key_col(outs[0], 0);
    const bool poll = NeedsCtxPoll(options.ctx);
    const size_t ncols = rule.head_args.size();
    std::vector<std::pair<uint64_t, uint32_t>> new_tuples;
    std::string bytes, scratch;
    for (size_t ri = 0; ri < rows.NumRows(); ++ri) {
      if (poll && ri % kCancelStrideRows == 0) {
        GRAPHGEN_RETURN_NOT_OK(options.ctx.Check());
      }
      if (key_col.IsNull(ri)) continue;
      // The delta is DISTINCT, so each tuple is new to the basis or not;
      // new ones are spliced in after the loop.
      const uint32_t row = NodeTupleRow(rows, ri);
      EncodeNodeTuple(rows, row, ncols, bytes);
      const uint64_t fp = NodeTupleFingerprint(bytes);
      if (ContainsNodeTuple(basis.node_tuples, rows, ncols, fp, bytes,
                            scratch)) {
        continue;  // the basis already applied this exact tuple
      }
      new_tuples.emplace_back(fp, row);
      bool fresh = false;
      auto alloc = [&] {
        fresh = true;
        return static_cast<NodeId>(st.num_real_nodes++);
      };
      const rel::Value key = rows.ValueAt(ri, 0);
      const NodeId id = st.node_ids.GetOrInsertValue(key, alloc);
      if (fresh) {
        st.properties.SetExternalKey(id, rows.ToStringAt(ri, 0));
        if (new_keys == nullptr) {
          new_keys = std::make_shared<query::KeyFilter>();
        }
        switch (key.type()) {
          case rel::ValueType::kInt64:
            new_keys->ints.insert(key.AsInt64());
            break;
          case rel::ValueType::kString:
            new_keys->strings.insert(key.AsString());
            break;
          default:
            new_keys->others.insert(key);
            break;
        }
      }
      for (size_t i = 1; i < ncols; ++i) {
        st.properties.Set(id, prop_cols[i - 1],
                          rows.IsNullAt(ri, i) ? "" : rows.ToStringAt(ri, i));
      }
    }
    // Only new tuples write, so a delta of seen tuples keeps the columns
    // shared with the basis (ShrinkToFit would clone them).
    if (!new_tuples.empty()) st.properties.ShrinkToFit();
    SpliceNodeTuples(st.node_tuples, new_tuples);
  }
  result.real_nodes = st.num_real_nodes;

  // ---- 4. Edge deltas per rule: one ranged pass per changed atom plus
  // full-range passes keyed to the new node keys (rows the basis skipped
  // as dangling). The per-(rule, segment) pair sets absorb all overlap.
  const bool have_new_nodes = new_keys != nullptr;

  for (size_t r = 0; r < program.edges_rules.size(); ++r) {
    const dsl::Rule& rule = program.edges_rules[r];
    EdgeRuleState& ers = st.edge_rules[r];
    bool changed = false;
    for (const dsl::Atom& atom : rule.body) {
      if (deltas.contains(atom.relation)) changed = true;
    }
    if (!changed && !have_new_nodes) continue;
    if (!ers.patchable) {
      return fallback(PatchFallback::kCountRuleTouched);
    }
    GRAPHGEN_ASSIGN_OR_RETURN(
        JoinChain chain,
        AnalyzeEdgesRule(rule, db, options.large_output_factor));
    if (SegmentShapes(chain) != ers.segment_shape) {
      return fallback(PatchFallback::kSegmentationDrift);
    }

    const size_t nseg = ers.segment_shape.size();
    struct Pass {
      size_t si = 0;
      Segment seg;
    };
    std::vector<Pass> passes;
    for (size_t si = 0; si < nseg; ++si) {
      const auto [fa, la] = ers.segment_shape[si];
      const bool is_first = si == 0;
      const bool is_last = si + 1 == nseg;
      for (size_t a = fa; a <= la; ++a) {
        auto it = deltas.find(chain.atoms[a].atom->relation);
        if (it == deltas.end()) continue;
        GRAPHGEN_ASSIGN_OR_RETURN(
            Segment seg,
            BuildSegmentVariant(
                chain, fa, la, /*src_keys=*/nullptr, /*dst_keys=*/nullptr,
                {{a, it->second.first, it->second.second}},
                ReductionFilters(db, chain, fa, la, a, it->second.first,
                                 it->second.second, nullptr, nullptr)));
        passes.push_back({si, std::move(seg)});
      }
      if (have_new_nodes && is_first) {
        GRAPHGEN_ASSIGN_OR_RETURN(
            Segment seg,
            BuildSegmentVariant(chain, fa, la, new_keys, /*dst_keys=*/nullptr,
                                {},
                                ReductionFilters(db, chain, fa, la, fa, 0,
                                                 SIZE_MAX, new_keys.get(),
                                                 nullptr)));
        passes.push_back({si, std::move(seg)});
      }
      if (have_new_nodes && is_last) {
        GRAPHGEN_ASSIGN_OR_RETURN(
            Segment seg,
            BuildSegmentVariant(chain, fa, la, /*src_keys=*/nullptr, new_keys,
                                {},
                                ReductionFilters(db, chain, fa, la, la, 0,
                                                 SIZE_MAX, nullptr,
                                                 new_keys.get())));
        passes.push_back({si, std::move(seg)});
      }
    }

    std::vector<const query::PlanNode*> refs;
    refs.reserve(passes.size());
    for (const Pass& p : passes) refs.push_back(p.seg.plan.get());
    std::vector<ExecOutput> outs = RunPlans(db, refs, options);

    // Candidates are gathered per segment over all of its passes, then
    // spliced once: passes overlap, and most rows re-derive basis pairs.
    const bool poll = NeedsCtxPoll(options.ctx);
    std::vector<std::vector<uint64_t>> candidates(nseg);
    std::vector<ScopedCharge> candidate_charges(passes.size());
    for (size_t pi = 0; pi < passes.size(); ++pi) {
      Pass& p = passes[pi];
      ExecOutput& out = outs[pi];
      GRAPHGEN_RETURN_NOT_OK(out.status);
      result.rows_scanned += out.NumRows();
      result.sql.push_back(p.seg.sql);
      const bool first = p.si == 0;
      const bool last = p.si + 1 == nseg;
      EndpointColumn src_col(out, 0);
      EndpointColumn dst_col(out, 1);
      std::optional<RealNodeResolver> src_real;
      std::optional<VirtualNodeResolver> src_virt;
      if (first) {
        src_real.emplace(src_col, st.node_ids);
      } else {
        src_virt.emplace(src_col,
                         ers.boundaries[ers.segment_shape[p.si - 1].second],
                         st.num_virtual_nodes);
      }
      std::optional<RealNodeResolver> dst_real;
      std::optional<VirtualNodeResolver> dst_virt;
      if (last) {
        dst_real.emplace(dst_col, st.node_ids);
      } else {
        dst_virt.emplace(dst_col,
                         ers.boundaries[ers.segment_shape[p.si].second],
                         st.num_virtual_nodes);
      }
      std::vector<uint64_t>& cand = candidates[p.si];
      const size_t nrows = out.NumRows();
      GRAPHGEN_RETURN_NOT_OK(candidate_charges[pi].Acquire(
          options.ctx, nrows * sizeof(uint64_t), "patch edge candidates"));
      cand.reserve(cand.size() + nrows);
      for (size_t ri = 0; ri < nrows; ++ri) {
        if (poll && ri % kCancelStrideRows == 0) {
          GRAPHGEN_RETURN_NOT_OK(options.ctx.Check());
        }
        // Same resolution order as the fresh assembly loop: NULL checks,
        // then src (dangling skips before dst is touched), then dst.
        if (src_col.IsNull(ri) || dst_col.IsNull(ri)) continue;
        NodeRef from;
        if (first) {
          NodeId id = 0;
          if (!src_real->Resolve(ri, &id)) continue;
          from = NodeRef::Real(id);
        } else {
          from = src_virt->Resolve(ri);
        }
        NodeRef to;
        if (last) {
          NodeId id = 0;
          if (!dst_real->Resolve(ri, &id)) continue;
          to = NodeRef::Real(id);
        } else {
          to = dst_virt->Resolve(ri);
        }
        cand.push_back(PackPair(from, to));
      }
    }
    // Only genuinely new condensed pairs are spliced in.
    for (size_t si = 0; si < nseg; ++si) {
      SpliceNewPairs(ers.seen_pairs[si], candidates[si]);
      attempt.new_edges.reserve(attempt.new_edges.size() +
                                candidates[si].size());
      for (const uint64_t pair : candidates[si]) {
        attempt.new_edges.emplace_back(
            NodeRef::FromRaw(static_cast<uint32_t>(pair >> 32)),
            NodeRef::FromRaw(static_cast<uint32_t>(pair)));
      }
    }
  }

  // ---- 5. Re-canonicalize: new virtual nodes interleave into key-sorted
  // order, and all bookkeeping follows the renumber. The basis is
  // canonical, so without new virtual nodes the order is unchanged.
  if (st.num_virtual_nodes != basis.num_virtual_nodes) {
    GRAPHGEN_RETURN_NOT_OK(options.ctx.Check());
    std::vector<BoundaryMapRef> maps;
    for (size_t r = 0; r < st.edge_rules.size(); ++r) {
      for (auto& [b, map] : st.edge_rules[r].boundaries) {
        maps.push_back({(static_cast<uint64_t>(r) << 32) | b, &map});
      }
    }
    const std::vector<uint32_t> perm =
        CanonicalVirtualOrder(st.num_virtual_nodes, std::move(maps));
    // Real ids never renumber: a single-segment rule's set holds real
    // pairs only and stays sorted as spliced.
    for (EdgeRuleState& ers : st.edge_rules) {
      if (ers.seen_pairs.size() < 2) continue;
      for (auto& pairs : ers.seen_pairs) RemapPairSet(pairs, perm);
    }
    for (auto& [from, to] : attempt.new_edges) {
      from = NodeRef::FromRaw(RemapRaw(from.raw(), perm));
      to = NodeRef::FromRaw(RemapRaw(to.raw(), perm));
    }
  }

  // ---- 6. Build the graph once from the pair sets, then finish it like
  // a fresh extraction would.
  GRAPHGEN_RETURN_NOT_OK(options.ctx.Check());
  result.rows_scanned += basis.rows_scanned;
  result.storage = BuildCondensed(st);
  if (options.preprocess) {
    GRAPHGEN_RETURN_NOT_OK(options.ctx.Check());
    ExpandSmallVirtualNodes(result.storage, options.threads);
  }
  result.condensed_edges = result.storage.CountCondensedEdges();
  result.virtual_nodes = result.storage.NumVirtualNodes();

  // ---- 7. Advance the basis to the version vector read in step 1.
  for (auto& [name, tb] : st.basis) {
    const rel::TableVersion& tv = now_versions.at(name);
    tb = TableBasis{tv.version, tv.rebase_version, tv.rows};
  }
  st.rows_scanned = result.rows_scanned;

  attempt.patched = true;
  attempt.state = std::move(next);
  return attempt;
}

}  // namespace graphgen::planner
