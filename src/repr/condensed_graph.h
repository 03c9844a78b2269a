#ifndef GRAPHGEN_REPR_CONDENSED_GRAPH_H_
#define GRAPHGEN_REPR_CONDENSED_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/flat_adjacency.h"
#include "graph/graph.h"
#include "graph/properties.h"
#include "graph/storage.h"

namespace graphgen {

/// The condensed structure C-DUP, DEDUP-1 and BITMAP share (§4.3): real
/// nodes are the graph's vertices and u_s -> ... -> v_t paths its edges.
/// The three representations differ only in how getNeighbors walks that
/// structure, so a subclass supplies ForEachNeighbor and ExistsEdge (and
/// BITMAP its own DeleteEdge); the vertex, edge-insertion and footprint
/// operations live here once.
///
/// The constructor consumes the builders' CondensedStorage and keeps only
/// what a served graph reads: the real and virtual out-lists as two flat
/// CSR arrays of NodeRefs, the deleted flags and the shared property
/// table. No in-lists are stored; every walk reads out-lists, and the BSP
/// engine builds the transpose it needs per run. The adjacency footprint
/// is (n+1)·8 + (nv+1)·8 + 4·E + n bytes for n real nodes, nv virtual
/// nodes and E stored edges.
///
/// §3.4 mutations touch only the real out-lists, the deleted flags and the
/// vertex count: real out-lists sit in a PatchedAdjacency (the overlay
/// ExpandedGraph uses), so the first edit of a vertex copies its range.
/// Virtual out-lists are immutable, which BITMAP's bit positions rely on.
class CondensedGraph : public Graph {
 public:
  size_t NumVertices() const override { return deleted_.size(); }
  size_t NumActiveVertices() const override {
    return deleted_.size() - num_deleted_;
  }
  bool VertexExists(NodeId v) const override {
    return v < deleted_.size() && !deleted_[v];
  }

  /// Stores a direct u_s -> v_t edge unless a path already connects them.
  Status AddEdge(NodeId u, NodeId v) override;
  /// Removes direct u_s -> v_t edges; if a path through virtual nodes
  /// remains, detaches u_s from its virtual out-neighbors and compensates
  /// with direct edges to every other expanded neighbor (§4.3).
  Status DeleteEdge(NodeId u, NodeId v) override;
  NodeId AddVertex() override;
  Status DeleteVertex(NodeId v) override;

  uint64_t CountStoredEdges() const override {
    return real_.NumEntries() + virt_.neighbors.size();
  }
  size_t NumVirtualNodes() const override { return virt_.NumVertices(); }
  GraphFootprint MemoryFootprint() const override;

  /// The out-list of a real or virtual node. May hold deleted real
  /// targets; the walks skip them.
  std::span<const NodeRef> OutEdges(NodeRef node) const {
    return node.is_virtual() ? virt_.Slice(node.index())
                             : real_.Slice(node.index());
  }
  bool IsDeleted(NodeId u) const { return deleted_[u] != 0; }

  /// Pairs of real nodes that more than one path connects (0 for DEDUP-1
  /// and for what VMiner builds).
  uint64_t CountDuplicatePairs() const;

  /// Folds the real out-lists' overlay into exact-size arrays, drops the
  /// lists of deleted vertices and deleted real targets from the rest.
  /// Virtual out-lists keep theirs (the walks skip them). Returns the
  /// number of overlay entries folded in.
  size_t Compact();

  const PropertyTable& properties() const { return properties_; }

 protected:
  explicit CondensedGraph(CondensedStorage storage);

  /// Erases the entries of u's out-list that `drop` selects, keeping the
  /// order of the rest; returns how many. Leaves the overlay alone when
  /// none match.
  template <typename Drop>
  size_t EraseOutEdges(NodeId u, Drop drop);

  PatchedAdjacency<NodeRef> real_;
  CondensedAdjacency virt_;
  std::vector<uint8_t> deleted_;
  size_t num_deleted_ = 0;
  // Deletions since the last Compact: the targets they leave behind.
  size_t stale_deletions_ = 0;
  PropertyTable properties_;
};

template <typename Drop>
size_t CondensedGraph::EraseOutEdges(NodeId u, Drop drop) {
  const std::span<const NodeRef> cur = real_.Slice(u);
  if (std::none_of(cur.begin(), cur.end(), drop)) return 0;
  return std::erase_if(real_.Mutable(u), drop);
}

}  // namespace graphgen

#endif  // GRAPHGEN_REPR_CONDENSED_GRAPH_H_
