#ifndef GRAPHGEN_GRAPH_FLAT_ADJACENCY_H_
#define GRAPHGEN_GRAPH_FLAT_ADJACENCY_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/memory.h"
#include "graph/node_ref.h"

namespace graphgen {

/// One flat adjacency in CSR form: vertex u's neighbors are
/// neighbors[offsets[u], offsets[u + 1]), so `offsets` always has
/// NumVertices() + 1 entries. This is the plain row_ptrs + adj pair every
/// flat graph shares: CsrGraph, both directions of ExpandedGraph (§4.3
/// EXP), and the triangle kernels' degree orientation.
struct FlatAdjacency {
  /// n vertices, no edges.
  explicit FlatAdjacency(size_t n = 0) : offsets(n + 1, 0) {}

  /// Offsets as the prefix sum of `degrees`; neighbors sized to their
  /// total and left for the caller to fill range by range.
  static FlatAdjacency FromDegrees(std::span<const uint64_t> degrees);

  /// The linear merge of a basis adjacency with a packed delta: n
  /// vertices, where vertex u < basis_n starts from basis_slice(u) (sorted,
  /// duplicate-free) and every (u << 32 | v) key in `delta` (sorted, u and
  /// v below n) adds v to u's range. Candidates the basis already holds
  /// and repeats within the delta are skipped, so every range stays
  /// sorted and duplicate-free. Untouched ranges are bulk copies.
  template <typename BasisSlice>
  static FlatAdjacency Merge(size_t n, size_t basis_n, BasisSlice basis_slice,
                             std::span<const uint64_t> delta);

  size_t NumVertices() const { return offsets.size() - 1; }
  std::span<const NodeId> Slice(NodeId u) const {
    return {neighbors.data() + offsets[u],
            static_cast<size_t>(offsets[u + 1] - offsets[u])};
  }
  size_t MemoryBytes() const {
    return VectorBytes(offsets) + VectorBytes(neighbors);
  }

  /// The reverse adjacency over the same vertices. Every range comes out
  /// sorted, and duplicate-free when this adjacency's ranges are.
  FlatAdjacency Transpose() const;

  std::vector<uint64_t> offsets;
  std::vector<NodeId> neighbors;
};

template <typename BasisSlice>
FlatAdjacency FlatAdjacency::Merge(size_t n, size_t basis_n,
                                   BasisSlice basis_slice,
                                   std::span<const uint64_t> delta) {
  FlatAdjacency out(n);
  // Sized for every basis edge plus every candidate; the final resize
  // drops the slots the skips left unused (the capacity stays). Raw-pointer
  // writes: this loop streams the whole adjacency and push_back's capacity
  // check is measurable.
  uint64_t capacity = delta.size();
  for (size_t u = 0; u < basis_n; ++u) {
    capacity += basis_slice(static_cast<NodeId>(u)).size();
  }
  out.neighbors.resize(capacity);
  NodeId* w = out.neighbors.data();
  size_t k = 0;
  for (size_t u = 0; u < n; ++u) {
    const std::span<const NodeId> cur =
        u < basis_n ? basis_slice(static_cast<NodeId>(u))
                    : std::span<const NodeId>();
    const NodeId* p = cur.data();
    const NodeId* pe = p + cur.size();
    NodeId* const row = w;
    for (; k < delta.size() && (delta[k] >> 32) == u; ++k) {
      const NodeId v = static_cast<NodeId>(delta[k]);
      while (p != pe && *p < v) *w++ = *p++;
      if (p != pe && *p == v) continue;  // in the basis; the drain emits it
      if (w != row && w[-1] == v) continue;  // repeated within the delta
      *w++ = v;
    }
    w = std::copy(p, pe, w);
    out.offsets[u + 1] = static_cast<uint64_t>(w - out.neighbors.data());
  }
  out.neighbors.resize(static_cast<size_t>(w - out.neighbors.data()));
  return out;
}

}  // namespace graphgen

#endif  // GRAPHGEN_GRAPH_FLAT_ADJACENCY_H_
