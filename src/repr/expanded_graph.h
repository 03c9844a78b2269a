#ifndef GRAPHGEN_REPR_EXPANDED_GRAPH_H_
#define GRAPHGEN_REPR_EXPANDED_GRAPH_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/flat_adjacency.h"
#include "graph/graph.h"
#include "graph/properties.h"

namespace graphgen {

/// EXP: the fully expanded graph — every logical edge is a direct real-to-
/// real edge, no virtual nodes (§4.3). Fastest to iterate, largest
/// footprint; the baseline all other representations are compared against.
///
/// Storage is flat CSR: one offsets array plus one contiguous neighbors
/// array per direction, so traversal is pure pointer arithmetic and the
/// whole adjacency lives in two cache-friendly allocations instead of one
/// heap vector per vertex. Per-range neighbor lists are kept sorted, so
/// ExistsEdge is a binary search and NeighborSpan feeds the sorted-span
/// merge kernels directly.
///
/// The §3.4 mutation API is served by a copy-on-write patch overlay: the
/// first AddEdge/DeleteEdge touching a vertex copies its CSR slice into a
/// per-vertex vector and mutates there; untouched vertices keep reading
/// the contiguous base. Analytic workloads (extract once, analyze many
/// times) therefore never pay for mutability. Vertex deletion stays lazy
/// (§3.4): a DeleteVertex *after* the adjacency was built leaves stale
/// targets in the stored lists, so HasFlatAdjacency() reports false and
/// kernels fall back to the filtering ForEachNeighbor path. Vertices
/// already deleted when the CSR is adopted (the expander's propagation of
/// storage deletions) are excluded from the arrays at build time and do
/// not cost the fast path.
class ExpandedGraph : public Graph {
 public:
  ExpandedGraph() = default;
  explicit ExpandedGraph(size_t num_vertices)
      : out_(num_vertices), in_(num_vertices), deleted_(num_vertices, 0) {}

  std::string_view Name() const override { return "EXP"; }

  size_t NumVertices() const override { return deleted_.size(); }
  size_t NumActiveVertices() const override {
    return deleted_.size() - num_deleted_;
  }
  bool VertexExists(NodeId v) const override {
    return v < deleted_.size() && !deleted_[v];
  }

  void ForEachNeighbor(NodeId u,
                       const std::function<void(NodeId)>& fn) const override;

  size_t OutDegree(NodeId u) const override;

  bool HasFlatAdjacency() const override { return stale_deletions_ == 0; }
  std::span<const NodeId> NeighborSpan(NodeId u) const override {
    return OutSpan(u);
  }

  bool ExistsEdge(NodeId u, NodeId v) const override;
  Status AddEdge(NodeId u, NodeId v) override;
  Status DeleteEdge(NodeId u, NodeId v) override;
  NodeId AddVertex() override;
  Status DeleteVertex(NodeId v) override;

  uint64_t CountStoredEdges() const override;
  size_t NumVirtualNodes() const override { return 0; }
  GraphFootprint MemoryFootprint() const override;

  /// Direct access to a (sorted) adjacency range; used by the expander,
  /// the BSP engine, and compression baselines. May include logically
  /// deleted targets while deletions are pending.
  std::span<const NodeId> RawNeighbors(NodeId u) const { return OutSpan(u); }
  std::span<const NodeId> RawInNeighbors(NodeId u) const { return InSpan(u); }

  /// Adopts fully built adjacencies in one move (the expander's and the
  /// incremental patch's bulk-load path). `out` and `in` must cover the
  /// same vertices, be each other's transpose, and keep every range
  /// sorted and duplicate-free. `deleted` (empty = none) marks vertices
  /// that are already logically deleted; the adjacencies must contain no
  /// edge touching them, so the span contract stays intact. Replaces any
  /// existing adjacency and patches.
  void AdoptCsr(FlatAdjacency out, FlatAdjacency in,
                std::vector<uint8_t> deleted = {});

  /// Re-flattens the copy-on-write patch overlay into the CSR base arrays
  /// and scrubs any stale targets left by post-build vertex deletions:
  /// afterwards the overlay is empty, HasFlatAdjacency() is true again,
  /// and every read is a pure base-array span. Returns the number of
  /// overlay entries folded in.
  size_t Compact();

  /// Vertices currently carried in the patch overlay (out + in side).
  size_t PatchedVertices() const {
    return out_patch_.size() + in_patch_.size();
  }

  /// Heap bytes attributable to the overlay alone (also included in
  /// MemoryFootprint().topology_bytes).
  size_t PatchOverlayBytes() const;

  PropertyTable& properties() { return properties_; }
  const PropertyTable& properties() const { return properties_; }

 private:
  std::span<const NodeId> OutSpan(NodeId u) const {
    if (!out_patch_.empty()) {
      auto it = out_patch_.find(u);
      if (it != out_patch_.end()) return {it->second.data(), it->second.size()};
    }
    return out_.Slice(u);
  }
  std::span<const NodeId> InSpan(NodeId u) const {
    if (!in_patch_.empty()) {
      auto it = in_patch_.find(u);
      if (it != in_patch_.end()) return {it->second.data(), it->second.size()};
    }
    return in_.Slice(u);
  }

  /// The mutable per-vertex list for u, copying the CSR slice into the
  /// patch overlay on first touch.
  std::vector<NodeId>& MutableOut(NodeId u);
  std::vector<NodeId>& MutableIn(NodeId u);

  // Flat CSR base, one per direction.
  FlatAdjacency out_;
  FlatAdjacency in_;
  // Copy-on-write overlay for mutated vertices; a present entry fully
  // replaces that vertex's base slice (and stays sorted).
  std::unordered_map<NodeId, std::vector<NodeId>> out_patch_;
  std::unordered_map<NodeId, std::vector<NodeId>> in_patch_;
  std::vector<uint8_t> deleted_;
  size_t num_deleted_ = 0;
  // Deletions applied after the adjacency was built: only these can leave
  // stale targets in the stored lists (adoption-time deletions are
  // already scrubbed), so only these withdraw the span contract.
  size_t stale_deletions_ = 0;
  PropertyTable properties_;
};

}  // namespace graphgen

#endif  // GRAPHGEN_REPR_EXPANDED_GRAPH_H_
