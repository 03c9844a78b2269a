#ifndef GRAPHGEN_ALGOS_DEGREE_H_
#define GRAPHGEN_ALGOS_DEGREE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace graphgen {

/// Computes the (distinct-neighbor) out-degree of every vertex, the
/// paper's Degree workload, multi-threaded. Deleted vertices get degree
/// 0. On a graph with flat adjacency a degree is its span's length, read
/// in one parallel loop; elsewhere degrees are the bulk neighbor
/// reduction's sums over x = 1 (Graph::PrepareReduction), which condensed
/// graphs aggregate at their virtual nodes.
std::vector<uint64_t> ComputeDegrees(const Graph& graph, size_t threads = 0);

/// The same degrees for a caller that already prepared `reduction` on
/// `graph` (PageRank): off flat adjacency they are its sums over x = 1,
/// so the run prepares the reduction once.
std::vector<uint64_t> ComputeDegrees(const Graph& graph,
                                     const NeighborReduction& reduction,
                                     size_t threads = 0);

}  // namespace graphgen

#endif  // GRAPHGEN_ALGOS_DEGREE_H_
