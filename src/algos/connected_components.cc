#include "algos/connected_components.h"

#include <memory>
#include <unordered_set>

namespace graphgen {

std::vector<NodeId> ConnectedComponents(const Graph& graph, size_t threads,
                                        size_t* rounds) {
  const size_t n = graph.NumVertices();
  std::vector<NodeId> current(n);
  for (size_t v = 0; v < n; ++v) {
    current[v] = graph.VertexExists(static_cast<NodeId>(v))
                     ? static_cast<NodeId>(v)
                     : kInvalidNode;
  }
  // Double-buffered min-label propagation: each round every live vertex
  // takes the min of its own and its neighbors' labels, until a round
  // changes nothing.
  std::vector<NodeId> next = current;
  const std::unique_ptr<NeighborReduction> reduction =
      graph.PrepareReduction(threads);
  size_t done = 0;
  bool changed = true;
  while (changed) {
    reduction->Min(current, next);
    ++done;
    changed = next != current;
    std::swap(current, next);
  }
  if (rounds != nullptr) *rounds = done;
  return current;
}

size_t CountComponents(const std::vector<NodeId>& labels) {
  std::unordered_set<NodeId> distinct;
  for (NodeId l : labels) {
    if (l != kInvalidNode) distinct.insert(l);
  }
  return distinct.size();
}

}  // namespace graphgen
