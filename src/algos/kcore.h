#ifndef GRAPHGEN_ALGOS_KCORE_H_
#define GRAPHGEN_ALGOS_KCORE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace graphgen {

/// K-core decomposition (peeling): returns the core number of every
/// vertex — the largest k such that the vertex belongs to a subgraph
/// where every vertex has degree >= k. A classic dense-subgraph detection
/// primitive the paper's introduction motivates; duplicate-sensitive, so
/// it needs a deduplicated (or C-DUP) representation. Treats the graph as
/// undirected (GraphGen's symmetric co-occurrence graphs). Degrees come
/// from ComputeDegrees; the peeling loop relaxes neighbors through
/// VisitNeighbors (NeighborSpan loops when the graph has flat adjacency).
std::vector<uint32_t> KCoreDecomposition(const Graph& graph);

/// Largest k with a non-empty k-core.
uint32_t Degeneracy(const std::vector<uint32_t>& core_numbers);

}  // namespace graphgen

#endif  // GRAPHGEN_ALGOS_KCORE_H_
