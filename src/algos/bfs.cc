#include "algos/bfs.h"

#include <deque>

namespace graphgen {

std::vector<uint32_t> Bfs(const Graph& graph, NodeId source) {
  std::vector<uint32_t> dist(graph.NumVertices(), kUnreachable);
  if (!graph.VertexExists(source)) return dist;
  const bool flat = graph.HasFlatAdjacency();
  dist[source] = 0;
  std::deque<NodeId> queue = {source};
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    uint32_t next = dist[u] + 1;
    VisitNeighbors(graph, flat, u, [&](NodeId v) {
      if (dist[v] == kUnreachable) {
        dist[v] = next;
        queue.push_back(v);
      }
    });
  }
  return dist;
}

}  // namespace graphgen
