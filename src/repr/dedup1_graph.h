#ifndef GRAPHGEN_REPR_DEDUP1_GRAPH_H_
#define GRAPHGEN_REPR_DEDUP1_GRAPH_H_

#include <memory>
#include <utility>

#include "graph/graph.h"
#include "graph/storage.h"

namespace graphgen {

/// DEDUP-1: structurally identical to C-DUP but guaranteed to contain at
/// most one path between any two real nodes (§4.3), so getNeighbors needs
/// no hash set. Constructed by the deduplication algorithms of §5.2;
/// the constructor trusts (and tests verify) the no-duplication invariant.
class Dedup1Graph : public Graph {
 public:
  explicit Dedup1Graph(CondensedStorage storage)
      : storage_(std::move(storage)) {}

  std::string_view Name() const override { return "DEDUP-1"; }

  size_t NumVertices() const override { return storage_.NumRealNodes(); }
  size_t NumActiveVertices() const override {
    return storage_.NumActiveRealNodes();
  }
  bool VertexExists(NodeId v) const override {
    return v < storage_.NumRealNodes() && !storage_.IsDeleted(v);
  }

  /// Plain DFS, no hash set: the defining advantage of DEDUP-1.
  void ForEachNeighbor(NodeId u,
                       const std::function<void(NodeId)>& fn) const override {
    storage_.ForEachPathNeighbor(u, fn);
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

 private:
  CondensedStorage storage_;
};

}  // namespace graphgen

#endif  // GRAPHGEN_REPR_DEDUP1_GRAPH_H_
