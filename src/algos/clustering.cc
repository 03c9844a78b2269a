#include "algos/clustering.h"

#include <atomic>
#include <span>

#include "algos/intersect.h"
#include "algos/orientation.h"
#include "common/parallel.h"
#include "repr/expander.h"

namespace graphgen {

std::vector<double> LocalClusteringCoefficients(const Graph& graph) {
  // The kernel walks sorted spans; snapshot any other graph once.
  if (!graph.HasFlatAdjacency()) {
    return LocalClusteringCoefficients(ExpandGraph(graph));
  }

  // Enumerate each triangle once over a degree-ordered orientation and
  // credit all three corners, instead of re-intersecting every neighbor
  // pair from both sides. A vertex's closed ordered pair count is exactly
  // twice its triangle membership, so the coefficients match the pairwise
  // definition bit for bit.
  const size_t n = graph.NumVertices();
  const detail::OrientedCsr csr = detail::BuildOrientedCsr(graph);
  std::vector<uint64_t> tri(n, 0);
  ParallelForRanges(
      BalancedRanges(
          n,
          [&](size_t r) {
            return uint64_t{1} + csr.adj.Slice(static_cast<NodeId>(r)).size();
          }),
      [&](size_t begin, size_t end) {
        // Reused across this worker's roots; set/clear are O(degree).
        detail::NeighborBitmap bm(n);
        // Worker-local triangle tallies, merged once at the end: three
        // contended atomic adds per triangle would dominate the whole
        // kernel on triangle-dense graphs. Addition commutes, so the
        // merged counts are bit-identical to the shared-counter walk.
        std::vector<uint64_t> local(n, 0);
        for (size_t r = begin; r < end; ++r) {
          const std::span<const NodeId> nu =
              csr.adj.Slice(static_cast<NodeId>(r));
          const NodeId u = csr.order[r];
          const auto credit = [&](NodeId s, NodeId t) {
            ++local[u];
            ++local[csr.order[s]];
            ++local[csr.order[t]];
          };
          if (nu.size() >= detail::kBitmapMinDegree) {
            // High-degree root: flag nu once, then each wedge closes with
            // one bit test. Visits the same (s, t) pairs in the same
            // order as the sorted-list path.
            for (NodeId s : nu) bm.Set(s);
            for (NodeId s : nu) {
              detail::IntersectBitmapForEach(
                  bm, csr.adj.Slice(s), [&](NodeId t) { credit(s, t); });
            }
            bm.Clear(nu);
          } else {
            for (NodeId s : nu) {
              detail::IntersectSortedForEach(
                  nu, csr.adj.Slice(s), [&](NodeId t) { credit(s, t); });
            }
          }
        }
        for (size_t i = 0; i < n; ++i) {
          if (local[i] != 0) {
            std::atomic_ref<uint64_t>(tri[i]).fetch_add(
                local[i], std::memory_order_relaxed);
          }
        }
      });
  std::vector<double> out(n, 0.0);
  for (size_t u = 0; u < n; ++u) {
    const size_t d = graph.NeighborSpan(static_cast<NodeId>(u)).size();
    if (d < 2) continue;
    const double possible =
        static_cast<double>(d) * (static_cast<double>(d) - 1);
    out[u] = static_cast<double>(2 * tri[u]) / possible;
  }
  return out;
}

double AverageClusteringCoefficient(const Graph& graph) {
  std::vector<double> local = LocalClusteringCoefficients(graph);
  double sum = 0;
  size_t count = 0;
  graph.ForEachVertex([&](NodeId u) {
    if (graph.OutDegree(u) >= 2) {
      sum += local[u];
      ++count;
    }
  });
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace graphgen
