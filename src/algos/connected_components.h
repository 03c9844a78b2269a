#ifndef GRAPHGEN_ALGOS_CONNECTED_COMPONENTS_H_
#define GRAPHGEN_ALGOS_CONNECTED_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace graphgen {

/// Connected components via multi-threaded min-label propagation on the
/// vertex-centric framework. Duplicate-insensitive, so it can run directly
/// on C-DUP without deduplication (§4.1). Returns the component label
/// (smallest member id) per vertex; deleted vertices get kInvalidNode.
std::vector<NodeId> ConnectedComponents(const Graph& graph,
                                        size_t threads = 0);

/// Number of distinct components among live vertices.
size_t CountComponents(const std::vector<NodeId>& labels);

}  // namespace graphgen

#endif  // GRAPHGEN_ALGOS_CONNECTED_COMPONENTS_H_
