#ifndef GRAPHGEN_GRAPH_CONDENSED_WALK_H_
#define GRAPHGEN_GRAPH_CONDENSED_WALK_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/parallel.h"
#include "graph/node_ref.h"

/// The u_s -> ... -> v_t walks of §4.1, written once for every condensed
/// adjacency: the builders' CondensedStorage and the served, frozen
/// CondensedGraph. `Adj` provides OutEdges(NodeRef), a range of NodeRef,
/// and IsDeleted(NodeId).
///
/// Self paths (u_s -> ... -> u_t) are skipped by every walk: membership of
/// u in a virtual node always creates a path back to u itself (e.g. an
/// author "co-authoring with themselves" through each of their papers),
/// which is never a logical edge, and which would make true deduplication
/// impossible for any node in >1 virtual node.
namespace graphgen::condensed {

/// Calls fn for every live real target of every u_s -> ... -> v_t path,
/// duplicates included (DEDUP-1's getNeighbors, and the measure of
/// duplication). Iterative DFS through virtual nodes; real targets are
/// leaves.
template <typename Adj, typename Fn>
void ForEachPathNeighbor(const Adj& g, NodeId u, Fn&& fn) {
  if (g.IsDeleted(u)) return;
  std::vector<NodeRef> stack;
  for (NodeRef r : g.OutEdges(NodeRef::Real(u))) stack.push_back(r);
  while (!stack.empty()) {
    const NodeRef r = stack.back();
    stack.pop_back();
    if (r.is_real()) {
      if (!g.IsDeleted(r.index()) && r.index() != u) fn(r.index());
      continue;
    }
    for (NodeRef next : g.OutEdges(r)) stack.push_back(next);
  }
}

/// Calls fn once per *distinct* real neighbor reachable from u_s,
/// deduplicating with a hash set (C-DUP's on-the-fly strategy).
template <typename Adj, typename Fn>
void ForEachExpandedNeighbor(const Adj& g, NodeId u, Fn&& fn) {
  std::unordered_set<NodeId> seen;
  ForEachPathNeighbor(g, u, [&](NodeId v) {
    if (seen.insert(v).second) fn(v);
  });
}

/// Distinct expanded neighbors of u, unsorted.
template <typename Adj>
std::vector<NodeId> ExpandedNeighbors(const Adj& g, NodeId u) {
  std::vector<NodeId> out;
  ForEachExpandedNeighbor(g, u, [&](NodeId v) { out.push_back(v); });
  return out;
}

/// Number of (u, v) pairs over the first `num_real` real nodes that more
/// than one path connects: the duplication dedup must remove. Zero means
/// DEDUP-1-clean.
template <typename Adj>
uint64_t CountDuplicatePairs(const Adj& g, size_t num_real) {
  std::atomic<uint64_t> total{0};
  ParallelFor(num_real, [&](size_t begin, size_t end) {
    uint64_t local = 0;
    std::unordered_map<NodeId, uint32_t> counts;
    for (size_t u = begin; u < end; ++u) {
      counts.clear();
      ForEachPathNeighbor(g, static_cast<NodeId>(u),
                          [&](NodeId v) { ++counts[v]; });
      for (const auto& [v, c] : counts) {
        if (c > 1) ++local;
      }
    }
    total.fetch_add(local, std::memory_order_relaxed);
  });
  return total.load();
}

}  // namespace graphgen::condensed

#endif  // GRAPHGEN_GRAPH_CONDENSED_WALK_H_
