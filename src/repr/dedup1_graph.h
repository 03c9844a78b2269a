#ifndef GRAPHGEN_REPR_DEDUP1_GRAPH_H_
#define GRAPHGEN_REPR_DEDUP1_GRAPH_H_

#include <utility>

#include "graph/condensed_walk.h"
#include "repr/condensed_graph.h"

namespace graphgen {

/// DEDUP-1: structurally identical to C-DUP but guaranteed to contain at
/// most one path between any two real nodes (§4.3), so getNeighbors needs
/// no hash set. Constructed by the deduplication algorithms of §5.2;
/// the constructor trusts (and tests verify) the no-duplication invariant.
class Dedup1Graph : public CondensedGraph {
 public:
  explicit Dedup1Graph(CondensedStorage storage)
      : CondensedGraph(std::move(storage)) {}

  std::string_view Name() const override { return "DEDUP-1"; }

  /// Plain DFS, no hash set: the defining advantage of DEDUP-1.
  void ForEachNeighbor(NodeId u,
                       const std::function<void(NodeId)>& fn) const override {
    condensed::ForEachPathNeighbor(*this, u, fn);
  }

  bool ExistsEdge(NodeId u, NodeId v) const override;

  std::unique_ptr<NeighborReduction> PrepareReduction(
      size_t threads = 0) const override {
    return MakeReduction(threads, true, nullptr);
  }
};

}  // namespace graphgen

#endif  // GRAPHGEN_REPR_DEDUP1_GRAPH_H_
