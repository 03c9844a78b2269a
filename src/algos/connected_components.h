#ifndef GRAPHGEN_ALGOS_CONNECTED_COMPONENTS_H_
#define GRAPHGEN_ALGOS_CONNECTED_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace graphgen {

/// Connected components via multi-threaded min-label propagation over the
/// graph's bulk neighbor reduction (Graph::PrepareReduction).
/// Duplicate-insensitive, so it runs directly on C-DUP without
/// deduplication (§4.1), aggregated at the virtual nodes. Returns the
/// component label (smallest member id) per vertex; deleted vertices get
/// kInvalidNode. `rounds`, when given, receives the number of
/// propagation rounds, the last of which changes no label.
std::vector<NodeId> ConnectedComponents(const Graph& graph,
                                        size_t threads = 0,
                                        size_t* rounds = nullptr);

/// Number of distinct components among live vertices.
size_t CountComponents(const std::vector<NodeId>& labels);

}  // namespace graphgen

#endif  // GRAPHGEN_ALGOS_CONNECTED_COMPONENTS_H_
