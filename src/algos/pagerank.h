#ifndef GRAPHGEN_ALGOS_PAGERANK_H_
#define GRAPHGEN_ALGOS_PAGERANK_H_

#include <memory>
#include <vector>

#include "graph/graph.h"

namespace graphgen {

struct PageRankOptions {
  size_t iterations = 10;
  double damping = 0.85;
  size_t threads = 0;
};

/// PageRank, pull style: each iteration every live vertex sums
/// rank/degree over its neighbors with the graph's bulk neighbor
/// reduction (Graph::PrepareReduction), which is exact for the symmetric
/// (bidirectional-edge) graphs GraphGen extracts. Condensed graphs
/// aggregate at their virtual nodes, so an iteration there does
/// condensed-size work. Degrees are precomputed once and stored as a
/// vertex property, as the paper notes is required for condensed
/// representations (§6.4).
std::vector<double> PageRank(const Graph& graph,
                             const PageRankOptions& options = {});

}  // namespace graphgen

#endif  // GRAPHGEN_ALGOS_PAGERANK_H_
