#include "graph/flat_adjacency.h"

namespace graphgen {

FlatAdjacency FlatAdjacency::FromDegrees(std::span<const uint64_t> degrees) {
  FlatAdjacency out(degrees.size());
  for (size_t u = 0; u < degrees.size(); ++u) {
    out.offsets[u + 1] = out.offsets[u] + degrees[u];
  }
  out.neighbors.resize(out.offsets.back());
  return out;
}

// Count, scan, then fill by ascending source, so every reverse range comes
// out already sorted.
FlatAdjacency FlatAdjacency::Transpose() const {
  const size_t n = NumVertices();
  std::vector<uint64_t> degrees(n, 0);
  for (NodeId v : neighbors) ++degrees[v];
  FlatAdjacency out = FromDegrees(degrees);
  std::vector<uint64_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (size_t u = 0; u < n; ++u) {
    for (NodeId v : Slice(static_cast<NodeId>(u))) {
      out.neighbors[cursor[v]++] = static_cast<NodeId>(u);
    }
  }
  return out;
}

}  // namespace graphgen
