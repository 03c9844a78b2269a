#ifndef GRAPHGEN_REPR_CDUP_GRAPH_H_
#define GRAPHGEN_REPR_CDUP_GRAPH_H_

#include <utility>

#include "graph/condensed_walk.h"
#include "repr/condensed_graph.h"

namespace graphgen {

/// C-DUP: the condensed *duplicated* representation extracted directly
/// from the database (§4.3). getNeighbors performs a depth-first traversal
/// through the virtual nodes and deduplicates on the fly with a mark set
/// (condensed_walk.h) — the cheapest representation to build, with the
/// highest per-iteration cost.
class CDupGraph : public CondensedGraph {
 public:
  explicit CDupGraph(CondensedStorage storage)
      : CondensedGraph(std::move(storage)) {}

  std::string_view Name() const override { return "C-DUP"; }

  void ForEachNeighbor(NodeId u,
                       const std::function<void(NodeId)>& fn) const override {
    condensed::ForEachExpandedNeighbor(*this, NumVertices(), u, fn);
  }

  bool ExistsEdge(NodeId u, NodeId v) const override;
};

}  // namespace graphgen

#endif  // GRAPHGEN_REPR_CDUP_GRAPH_H_
