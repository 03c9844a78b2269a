#ifndef GRAPHGEN_GRAPH_FLAT_ADJACENCY_H_
#define GRAPHGEN_GRAPH_FLAT_ADJACENCY_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "graph/node_ref.h"

namespace graphgen {

/// One flat adjacency in CSR form: vertex u's entries are
/// neighbors[offsets[u], offsets[u + 1]), so `offsets` always has
/// NumVertices() + 1 entries. This is the plain row_ptrs + adj pair every
/// flat graph shares. FlatAdjacency (NodeId entries) backs ExpandedGraph's
/// out-edges (§4.3 EXP, and every ExpandGraph snapshot) and the triangle
/// kernels' degree orientation; CondensedAdjacency (NodeRef entries, 4
/// bytes each) backs the served condensed graphs' out-lists.
template <typename T>
struct BasicFlatAdjacency {
  /// n vertices, no edges.
  explicit BasicFlatAdjacency(size_t n = 0) : offsets(n + 1, 0) {}

  /// Offsets as the prefix sum of `degrees`; neighbors sized to their
  /// total and left for the caller to fill range by range.
  static BasicFlatAdjacency FromDegrees(std::span<const uint64_t> degrees) {
    BasicFlatAdjacency out(degrees.size());
    for (size_t u = 0; u < degrees.size(); ++u) {
      out.offsets[u + 1] = out.offsets[u] + degrees[u];
    }
    out.neighbors.resize(out.offsets.back());
    return out;
  }

  /// The linear merge of a basis NodeId adjacency with a packed delta: n
  /// vertices, where vertex u < basis_n starts from basis_slice(u) (sorted,
  /// duplicate-free) and every (u << 32 | v) key in `delta` (sorted, u and
  /// v below n) adds v to u's range. Candidates the basis already holds
  /// and repeats within the delta are skipped, so every range stays
  /// sorted and duplicate-free. Untouched ranges are bulk copies.
  template <typename BasisSlice>
  static BasicFlatAdjacency Merge(size_t n, size_t basis_n,
                                  BasisSlice basis_slice,
                                  std::span<const uint64_t> delta);

  size_t NumVertices() const { return offsets.size() - 1; }
  std::span<const T> Slice(NodeId u) const {
    return {neighbors.data() + offsets[u],
            static_cast<size_t>(offsets[u + 1] - offsets[u])};
  }
  size_t MemoryBytes() const {
    return VectorBytes(offsets) + VectorBytes(neighbors);
  }

  std::vector<uint64_t> offsets;
  std::vector<T> neighbors;
};

using FlatAdjacency = BasicFlatAdjacency<NodeId>;
using CondensedAdjacency = BasicFlatAdjacency<NodeRef>;

template <typename T>
template <typename BasisSlice>
BasicFlatAdjacency<T> BasicFlatAdjacency<T>::Merge(
    size_t n, size_t basis_n, BasisSlice basis_slice,
    std::span<const uint64_t> delta) {
  BasicFlatAdjacency out(n);
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

/// A frozen flat adjacency with a copy-on-write overlay for the §3.4
/// mutations: the first change to a vertex copies its base range into a
/// per-vertex vector, and that vertex reads the copy from then on;
/// untouched vertices keep reading the contiguous base, so a graph that is
/// never mutated pays nothing for mutability. ExpandedGraph keeps its
/// out-edges in one; CondensedGraph its real nodes' out-lists.
template <typename T>
class PatchedAdjacency {
 public:
  PatchedAdjacency() = default;
  explicit PatchedAdjacency(BasicFlatAdjacency<T> base)
      : base_(std::move(base)) {}

  size_t NumVertices() const { return base_.NumVertices(); }

  /// u's entries: its overlay copy once mutated, else its base range.
  std::span<const T> Slice(NodeId u) const {
    if (!patch_.empty()) {
      auto it = patch_.find(u);
      if (it != patch_.end()) return {it->second.data(), it->second.size()};
    }
    return base_.Slice(u);
  }

  /// The mutable list for u, copying its base range into the overlay on
  /// first touch.
  std::vector<T>& Mutable(NodeId u) {
    auto [it, inserted] = patch_.try_emplace(u);
    if (inserted) {
      const std::span<const T> base = base_.Slice(u);
      it->second.assign(base.begin(), base.end());
    }
    return it->second;
  }

  /// Appends a vertex with an empty base range; it needs no overlay entry
  /// until its first edge.
  void AddVertex() { base_.offsets.push_back(base_.offsets.back()); }

  /// Entries over all vertices, overlay included.
  uint64_t NumEntries() const {
    uint64_t total = base_.neighbors.size();
    for (const auto& [u, list] : patch_) {
      total += list.size();
      total -= base_.Slice(u).size();
    }
    return total;
  }

  /// Vertices currently carried in the overlay.
  size_t NumPatched() const { return patch_.size(); }

  /// Heap bytes of the overlay alone: bucket array and node overhead
  /// estimate, plus the per-vertex buffers.
  size_t PatchBytes() const {
    if (patch_.empty()) return 0;  // the sentinel bucket is not heap-allocated
    size_t total = patch_.bucket_count() * sizeof(void*);
    for (const auto& [u, list] : patch_) {
      total += sizeof(u) + sizeof(list) + list.capacity() * sizeof(T) +
               2 * sizeof(void*);
    }
    return total;
  }

  size_t MemoryBytes() const { return base_.MemoryBytes() + PatchBytes(); }

  /// Re-flattens base and overlay into exact-size base arrays, keeping
  /// entry t of vertex u only when keep(u, t) holds, and empties the
  /// overlay. Returns the number of overlay entries folded in.
  template <typename Keep>
  size_t Compact(Keep keep) {
    const size_t folded = patch_.size();
    const size_t n = NumVertices();
    BasicFlatAdjacency<T> flat(n);
    for (size_t u = 0; u < n; ++u) {
      const NodeId id = static_cast<NodeId>(u);
      uint64_t kept = 0;
      for (const T& t : Slice(id)) kept += keep(id, t) ? 1 : 0;
      flat.offsets[u + 1] = flat.offsets[u] + kept;
    }
    flat.neighbors.resize(flat.offsets.back());
    T* w = flat.neighbors.data();
    for (size_t u = 0; u < n; ++u) {
      const NodeId id = static_cast<NodeId>(u);
      for (const T& t : Slice(id)) {
        if (keep(id, t)) *w++ = t;
      }
    }
    base_ = std::move(flat);
    // Move-assign a fresh map: clear() (and ={} list-assignment) would keep
    // the grown bucket array resident.
    patch_ = decltype(patch_)();
    return folded;
  }

 private:
  BasicFlatAdjacency<T> base_;
  // A present entry fully replaces that vertex's base range.
  std::unordered_map<NodeId, std::vector<T>> patch_;
};

}  // namespace graphgen

#endif  // GRAPHGEN_GRAPH_FLAT_ADJACENCY_H_
