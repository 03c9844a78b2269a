#include "algos/triangles.h"

#include <atomic>
#include <span>

#include "algos/intersect.h"
#include "algos/orientation.h"
#include "common/parallel.h"
#include "repr/expander.h"

namespace graphgen {

uint64_t CountTriangles(const Graph& graph) {
  // The kernel walks sorted spans; snapshot any other graph once.
  if (!graph.HasFlatAdjacency()) return CountTriangles(ExpandGraph(graph));

  // Forward counting over a degree-ordered orientation. Every triangle
  // has exactly one vertex from which both others are higher-ranked, so
  // it is counted once from that root; degree ordering bounds out-fanouts
  // by the degeneracy. Intersections use a per-thread bit-packed mark
  // bitmap instead of list merges: the root's out-neighborhood is flagged
  // once, then every wedge closes with a single bit test — half the
  // memory touches of a merge, no branch misprediction, and 8x denser
  // than a byte mark array.
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

}  // namespace graphgen
