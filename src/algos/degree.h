#ifndef GRAPHGEN_ALGOS_DEGREE_H_
#define GRAPHGEN_ALGOS_DEGREE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace graphgen {

/// Computes the (distinct-neighbor) out-degree of every vertex, running
/// the paper's Degree workload on the vertex-centric framework
/// (multi-threaded, one superstep). Deleted vertices get degree 0. Each
/// vertex's degree is Graph::OutDegree: the span length on EXP and CSR,
/// no edge iteration at all; a count over the neighbor callback on the
/// condensed representations.
std::vector<uint64_t> ComputeDegrees(const Graph& graph, size_t threads = 0);

}  // namespace graphgen

#endif  // GRAPHGEN_ALGOS_DEGREE_H_
