#ifndef GRAPHGEN_REPR_CDUP_GRAPH_H_
#define GRAPHGEN_REPR_CDUP_GRAPH_H_

#include <memory>
#include <utility>

#include "graph/graph.h"
#include "graph/storage.h"

namespace graphgen {

/// C-DUP: the condensed *duplicated* representation extracted directly
/// from the database (§4.3). getNeighbors performs a depth-first traversal
/// through the virtual nodes and deduplicates on the fly with a hash set —
/// the cheapest representation to build, with the highest per-iteration
/// cost.
class CDupGraph : public Graph {
 public:
  explicit CDupGraph(CondensedStorage storage)
      : storage_(std::move(storage)) {}

  std::string_view Name() const override { return "C-DUP"; }

  size_t NumVertices() const override { return storage_.NumRealNodes(); }
  size_t NumActiveVertices() const override {
    return storage_.NumActiveRealNodes();
  }
  bool VertexExists(NodeId v) const override {
    return v < storage_.NumRealNodes() && !storage_.IsDeleted(v);
  }

  void ForEachNeighbor(NodeId u,
                       const std::function<void(NodeId)>& fn) const override {
    storage_.ForEachExpandedNeighbor(u, fn);
  }

  bool ExistsEdge(NodeId u, NodeId v) const override;
  Status AddEdge(NodeId u, NodeId v) override;
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
  CondensedStorage& mutable_storage() { return storage_; }

 protected:
  CondensedStorage storage_;
};

}  // namespace graphgen

#endif  // GRAPHGEN_REPR_CDUP_GRAPH_H_
