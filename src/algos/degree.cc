#include "algos/degree.h"

#include "common/parallel.h"

namespace graphgen {

namespace {

std::vector<uint64_t> SpanDegrees(const Graph& graph, size_t threads) {
  std::vector<uint64_t> degrees(graph.NumVertices(), 0);
  ParallelFor(
      degrees.size(),
      [&](size_t begin, size_t end) {
        for (size_t v = begin; v < end; ++v) {
          const NodeId u = static_cast<NodeId>(v);
          if (graph.VertexExists(u)) {
            degrees[v] = graph.NeighborSpan(u).size();
          }
        }
      },
      threads);
  return degrees;
}

std::vector<uint64_t> SumDegrees(const Graph& graph,
                                 const NeighborReduction& reduction) {
  const size_t n = graph.NumVertices();
  const std::vector<double> ones(n, 1.0);
  std::vector<double> sums(n, 0.0);
  reduction.Sum(ones, sums);
  std::vector<uint64_t> degrees(n, 0);
  for (size_t v = 0; v < n; ++v) degrees[v] = static_cast<uint64_t>(sums[v]);
  return degrees;
}

}  // namespace

std::vector<uint64_t> ComputeDegrees(const Graph& graph, size_t threads) {
  if (graph.HasFlatAdjacency()) return SpanDegrees(graph, threads);
  return SumDegrees(graph, *graph.PrepareReduction(threads));
}

std::vector<uint64_t> ComputeDegrees(const Graph& graph,
                                     const NeighborReduction& reduction,
                                     size_t threads) {
  if (graph.HasFlatAdjacency()) return SpanDegrees(graph, threads);
  return SumDegrees(graph, reduction);
}

}  // namespace graphgen
