#include "algos/pagerank.h"

#include "algos/degree.h"

namespace graphgen {

std::vector<double> PageRank(const Graph& graph,
                             const PageRankOptions& options) {
  const size_t n = graph.NumVertices();
  const size_t n_active = graph.NumActiveVertices();
  if (n_active == 0) return {};
  const std::unique_ptr<NeighborReduction> reduction =
      graph.PrepareReduction(options.threads);
  const std::vector<uint64_t> degrees =
      ComputeDegrees(graph, *reduction, options.threads);
  std::vector<double> rank(n, 0.0);
  std::vector<NodeId> live;
  std::vector<NodeId> dangling;
  graph.ForEachVertex([&](NodeId v) {
    rank[v] = 1.0 / static_cast<double>(n_active);
    live.push_back(v);
    if (degrees[v] == 0) dangling.push_back(v);
  });
  // contrib[v] = rank/degree, divided once per vertex, not once per edge;
  // a degree-0 vertex contributes 0.0 and its rank is spread over every
  // live vertex instead (the dangling term), so ranks keep summing to 1.
  std::vector<double> contrib(n, 0.0);
  std::vector<double> sum(n, 0.0);
  for (size_t iter = 0; iter < options.iterations; ++iter) {
    for (size_t v = 0; v < n; ++v) {
      const uint64_t d = degrees[v];
      contrib[v] = d > 0 ? rank[v] / static_cast<double>(d) : 0.0;
    }
    double dangling_mass = 0.0;
    for (NodeId v : dangling) dangling_mass += rank[v];
    const double dangling_term = dangling_mass / static_cast<double>(n_active);
    reduction->Sum(contrib, sum);
    for (NodeId v : live) {
      rank[v] = (1.0 - options.damping) / static_cast<double>(n_active) +
                options.damping * (sum[v] + dangling_term);
    }
  }
  return rank;
}

}  // namespace graphgen
