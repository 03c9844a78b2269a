#ifndef GRAPHGEN_GRAPH_CONDENSED_WALK_H_
#define GRAPHGEN_GRAPH_CONDENSED_WALK_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/mark_set.h"
#include "common/parallel.h"
#include "graph/node_ref.h"

/// The u_s -> ... -> v_t walks of §4.1, written once for every condensed
/// adjacency: the builders' CondensedStorage and the served, frozen
/// CondensedGraph. `Adj` provides OutEdges(NodeRef), a range of NodeRef,
/// and IsDeleted(NodeId). `num_real` bounds the real ids a walk can meet.
///
/// Deduplication marks targets in a MarkSet (common/mark_set.h) instead
/// of a per-source hash set. The parallel counters give each worker its
/// own; a neighbor walk borrows the thread's through a MarkSetLease, so a
/// callback may start a nested walk on the same thread.
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

/// Calls fn once per *distinct* real neighbor reachable from u_s, in
/// order of first path (C-DUP's on-the-fly deduplication).
template <typename Adj, typename Fn>
void ForEachExpandedNeighbor(const Adj& g, size_t num_real, NodeId u,
                             Fn&& fn) {
  MarkSetLease seen(num_real);
  ForEachPathNeighbor(g, u, [&](NodeId v) {
    if (seen->Insert(v)) fn(v);
  });
}

/// Distinct expanded neighbors of u, unsorted.
template <typename Adj>
std::vector<NodeId> ExpandedNeighbors(const Adj& g, size_t num_real,
                                      NodeId u) {
  std::vector<NodeId> out;
  ForEachExpandedNeighbor(g, num_real, u,
                          [&](NodeId v) { out.push_back(v); });
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
    // Targets u reached at least once, and those already counted.
    MarkSet once(num_real);
    MarkSet twice(num_real);
    for (size_t u = begin; u < end; ++u) {
      once.Clear();
      twice.Clear();
      ForEachPathNeighbor(g, static_cast<NodeId>(u), [&](NodeId v) {
        if (!once.Insert(v) && twice.Insert(v)) ++local;
      });
    }
    total.fetch_add(local, std::memory_order_relaxed);
  });
  return total.load();
}

}  // namespace graphgen::condensed

#endif  // GRAPHGEN_GRAPH_CONDENSED_WALK_H_
