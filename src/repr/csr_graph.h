#ifndef GRAPHGEN_REPR_CSR_GRAPH_H_
#define GRAPHGEN_REPR_CSR_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/flat_adjacency.h"
#include "graph/graph.h"

namespace graphgen {

/// CSR: an immutable flat-adjacency snapshot of any Graph's *expanded*
/// view. This is the materialized adapter behind the NeighborSpan fast
/// path: a condensed representation (C-DUP, DEDUP-1/2, BITMAP) keeps its
/// compact storage, and when an analyst is about to run several
/// traversal-heavy kernels, one Build() pays the full expansion once and
/// every subsequent kernel runs devirtualized over two contiguous arrays.
/// CountTriangles and LocalClusteringCoefficients take one themselves
/// when handed a graph without flat adjacency.
///
/// Build cost is a single ForEachNeighbor sweep (the same price as one
/// callback-path kernel pass) plus a per-range sort; the footprint is
/// 4 bytes per edge + 8 bytes per vertex. The snapshot reflects the source
/// graph at build time — live vertices, live targets — and is immutable:
/// the §3.4 mutation operations return kUnsupported. Mutate the
/// source representation and rebuild instead.
class CsrGraph : public Graph {
 public:
  /// Snapshots `g`'s expanded view. Thread-safe with respect to concurrent
  /// readers of `g` (only const methods are called).
  static CsrGraph Build(const Graph& g, size_t threads = 0);

  std::string_view Name() const override { return "CSR"; }

  size_t NumVertices() const override { return exists_.size(); }
  size_t NumActiveVertices() const override { return num_active_; }
  bool VertexExists(NodeId v) const override {
    return v < exists_.size() && exists_[v];
  }

  void ForEachNeighbor(NodeId u,
                       const std::function<void(NodeId)>& fn) const override {
    if (!VertexExists(u)) return;
    for (NodeId v : adj_.Slice(u)) fn(v);
  }

  size_t OutDegree(NodeId u) const override {
    return VertexExists(u) ? adj_.Slice(u).size() : 0;
  }

  bool HasFlatAdjacency() const override { return true; }
  std::span<const NodeId> NeighborSpan(NodeId u) const override {
    return adj_.Slice(u);
  }

  bool ExistsEdge(NodeId u, NodeId v) const override;

  // Immutable snapshot: the mutation API is rejected wholesale.
  Status AddEdge(NodeId u, NodeId v) override;
  Status DeleteEdge(NodeId u, NodeId v) override;
  NodeId AddVertex() override { return kInvalidNode; }
  Status DeleteVertex(NodeId v) override;

  uint64_t CountStoredEdges() const override { return adj_.neighbors.size(); }
  size_t NumVirtualNodes() const override { return 0; }
  GraphFootprint MemoryFootprint() const override;

 private:
  CsrGraph() = default;

  FlatAdjacency adj_;  // sorted per range
  std::vector<uint8_t> exists_;
  size_t num_active_ = 0;
};

}  // namespace graphgen

#endif  // GRAPHGEN_REPR_CSR_GRAPH_H_
