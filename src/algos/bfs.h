#ifndef GRAPHGEN_ALGOS_BFS_H_
#define GRAPHGEN_ALGOS_BFS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace graphgen {

/// Distance marker for unreachable vertices.
constexpr uint32_t kUnreachable = 0xFFFFFFFFu;

/// Single-threaded breadth-first search from `source` over the Graph API
/// (the paper's BFS workload, §6.1.2). Returns hop distances. Relaxes
/// edges through VisitNeighbors: NeighborSpan loops when the graph has
/// flat adjacency, else the virtual callback path.
std::vector<uint32_t> Bfs(const Graph& graph, NodeId source);

}  // namespace graphgen

#endif  // GRAPHGEN_ALGOS_BFS_H_
