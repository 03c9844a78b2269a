#ifndef GRAPHGEN_ALGOS_ORIENTATION_H_
#define GRAPHGEN_ALGOS_ORIENTATION_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "graph/flat_adjacency.h"
#include "graph/graph.h"

namespace graphgen::detail {

/// A degree-ordered orientation of a flat-adjacency graph, in CSR form:
/// every undirected edge is kept only in the direction of increasing
/// (degree, id) rank, and neighbor lists store *ranks*, sorted. This is
/// the classic triangle-counting preparation (Chiba–Nishizeki / forward
/// counting): out-fanouts are bounded by the graph's degeneracy instead
/// of its maximum degree, which collapses the intersection work on the
/// overlapping-clique graphs GraphGen extracts. Requires
/// g.HasFlatAdjacency().
struct OrientedCsr {
  FlatAdjacency adj;          // by rank: ranks of the higher-ranked endpoints
  std::vector<NodeId> order;  // order[rank] = vertex id
  std::vector<NodeId> rank;   // rank[vertex] = rank
};

inline OrientedCsr BuildOrientedCsr(const Graph& g) {
  const size_t n = g.NumVertices();
  OrientedCsr csr;
  std::vector<std::span<const NodeId>> spans(n);
  for (size_t u = 0; u < n; ++u) {
    spans[u] = g.NeighborSpan(static_cast<NodeId>(u));
  }

  // Rank vertices by ascending degree (ties by id) and orient every edge
  // from lower to higher rank.
  csr.order.resize(n);
  std::iota(csr.order.begin(), csr.order.end(), NodeId{0});
  std::stable_sort(csr.order.begin(), csr.order.end(),
                   [&](NodeId a, NodeId b) {
                     return spans[a].size() < spans[b].size();
                   });
  csr.rank.resize(n);
  for (size_t r = 0; r < n; ++r) csr.rank[csr.order[r]] = static_cast<NodeId>(r);

  // Count-then-fill, indexed by rank so enumeration walks the order.
  // Both passes do work proportional to the vertex's degree; share the
  // edge-balanced split.
  const std::vector<IndexRange> ranges = BalancedRanges(n, [&](size_t r) {
    return uint64_t{1} + spans[csr.order[r]].size();
  });
  std::vector<uint64_t> odeg(n, 0);
  ParallelForRanges(ranges, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      const NodeId u = csr.order[r];
      uint64_t c = 0;
      for (NodeId v : spans[u]) c += csr.rank[v] > r;
      odeg[r] = c;
    }
  });
  csr.adj = FlatAdjacency::FromDegrees(odeg);
  ParallelForRanges(
      ranges,
      [&](size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) {
          const NodeId u = csr.order[r];
          NodeId* dst = csr.adj.neighbors.data() + csr.adj.offsets[r];
          size_t k = 0;
          for (NodeId v : spans[u]) {
            if (csr.rank[v] > r) dst[k++] = csr.rank[v];
          }
          std::sort(dst, dst + k);
        }
      });
  return csr;
}

}  // namespace graphgen::detail

#endif  // GRAPHGEN_ALGOS_ORIENTATION_H_
