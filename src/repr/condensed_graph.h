#ifndef GRAPHGEN_REPR_CONDENSED_GRAPH_H_
#define GRAPHGEN_REPR_CONDENSED_GRAPH_H_

#include <utility>

#include "graph/graph.h"
#include "graph/storage.h"

namespace graphgen {

/// The condensed structure C-DUP, DEDUP-1 and BITMAP share (§4.3): one
/// CondensedStorage whose real nodes are the graph's vertices and whose
/// u_s -> ... -> v_t paths are its edges. The three representations
/// differ only in how getNeighbors walks that structure, so a subclass
/// supplies ForEachNeighbor and ExistsEdge (and BITMAP its own
/// DeleteEdge); the vertex, edge-insertion and footprint operations live
/// here once.
class CondensedGraph : public Graph {
 public:
  size_t NumVertices() const override { return storage_.NumRealNodes(); }
  size_t NumActiveVertices() const override {
    return storage_.NumActiveRealNodes();
  }
  bool VertexExists(NodeId v) const override {
    return v < storage_.NumRealNodes() && !storage_.IsDeleted(v);
  }

  /// Stores a direct u_s -> v_t edge unless a path already connects them.
  Status AddEdge(NodeId u, NodeId v) override;
  /// Removes direct u_s -> v_t edges; if a path through virtual nodes
  /// remains, detaches u_s from its virtual out-neighbors and compensates
  /// with direct edges to every other expanded neighbor (§4.3).
  Status DeleteEdge(NodeId u, NodeId v) override;
  NodeId AddVertex() override { return storage_.AddRealNode(); }
  Status DeleteVertex(NodeId v) override;

  uint64_t CountStoredEdges() const override {
    return storage_.CountCondensedEdges();
  }
  size_t NumVirtualNodes() const override {
    return storage_.NumVirtualNodes();
  }
  GraphFootprint MemoryFootprint() const override {
    return {storage_.MemoryBytes(), storage_.properties().MemoryBytes(), 0};
  }

  const CondensedStorage& storage() const { return storage_; }

 protected:
  explicit CondensedGraph(CondensedStorage storage)
      : storage_(std::move(storage)) {}

  CondensedStorage storage_;
};

}  // namespace graphgen

#endif  // GRAPHGEN_REPR_CONDENSED_GRAPH_H_
