#include "algos/triangles.h"

#include <algorithm>
#include <atomic>
#include <span>
#include <vector>

#include "algos/intersect.h"
#include "algos/orientation.h"
#include "common/parallel.h"

namespace graphgen {

namespace {

/// Span fast path: forward counting over a degree-ordered orientation.
/// Every triangle has exactly one vertex from which both others are
/// higher-ranked, so it is counted once from that root; degree ordering
/// bounds out-fanouts by the degeneracy. Intersections use a per-thread
/// bit-packed mark bitmap instead of list merges: the root's
/// out-neighborhood is flagged once, then every wedge closes with a
/// single bit test — half the memory touches of a merge, no branch
/// misprediction, and 8x denser than a byte mark array.
uint64_t CountTrianglesSpan(const Graph& graph) {
  const detail::OrientedCsr csr = detail::BuildOrientedCsr(graph);
  const size_t n = csr.order.size();
  std::atomic<uint64_t> total{0};
  ParallelForRanges(
      BalancedRanges(n,
                     [&](size_t r) {
                       return uint64_t{1} +
                              csr.adj.Slice(static_cast<NodeId>(r)).size();
                     }),
      [&](size_t begin, size_t end) {
        detail::NeighborBitmap bm(n);
        uint64_t local = 0;
        for (size_t r = begin; r < end; ++r) {
          const std::span<const NodeId> nu =
              csr.adj.Slice(static_cast<NodeId>(r));
          for (NodeId s : nu) bm.Set(s);
          for (NodeId s : nu) {
            local += detail::IntersectBitmapCount(bm, csr.adj.Slice(s));
          }
          bm.Clear(nu);
        }
        total.fetch_add(local, std::memory_order_relaxed);
      });
  return total.load();
}

}  // namespace

uint64_t CountTriangles(const Graph& graph, TraversalPath path) {
  if (UseSpanPath(graph, path)) return CountTrianglesSpan(graph);

  const size_t n = graph.NumVertices();
  // Materialize sorted adjacency restricted to higher-id neighbors; each
  // triangle u < v < w is then counted exactly once.
  std::vector<std::vector<NodeId>> higher(n);
  ParallelFor(n, [&](size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      if (!graph.VertexExists(static_cast<NodeId>(u))) continue;
      graph.ForEachNeighbor(static_cast<NodeId>(u), [&](NodeId v) {
        if (v > u) higher[u].push_back(v);
      });
      std::sort(higher[u].begin(), higher[u].end());
      higher[u].erase(std::unique(higher[u].begin(), higher[u].end()),
                      higher[u].end());
    }
  });
  std::atomic<uint64_t> total{0};
  ParallelFor(n, [&](size_t begin, size_t end) {
    uint64_t local = 0;
    for (size_t u = begin; u < end; ++u) {
      const auto& nu = higher[u];
      for (NodeId v : nu) {
        const auto& nv = higher[v];
        // |higher(u) ∩ higher(v)| via merge.
        size_t i = 0;
        size_t j = 0;
        while (i < nu.size() && j < nv.size()) {
          if (nu[i] < nv[j]) {
            ++i;
          } else if (nu[i] > nv[j]) {
            ++j;
          } else {
            ++local;
            ++i;
            ++j;
          }
        }
      }
    }
    total.fetch_add(local, std::memory_order_relaxed);
  });
  return total.load();
}

}  // namespace graphgen
