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

}  // namespace graphgen
