#ifndef GRAPHGEN_GRAPH_GRAPH_H_
#define GRAPHGEN_GRAPH_GRAPH_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/node_ref.h"

namespace graphgen {

/// Pull-style neighbor iterator, the paper's getNeighbors() contract
/// (§3.4). Obtained from Graph::Neighbors(u); duplicate-free for every
/// representation because it drains ForEachNeighbor.
class NeighborIterator {
 public:
  virtual ~NeighborIterator() = default;
  virtual bool HasNext() = 0;
  virtual NodeId Next() = 0;

  /// Drains the iterator into a vector (getNeighbors(v).toList in the
  /// paper's Java API).
  std::vector<NodeId> ToList();
};

/// Iterator over a pre-materialized neighbor list, as Graph::Neighbors
/// returns it.
class VectorNeighborIterator : public NeighborIterator {
 public:
  explicit VectorNeighborIterator(std::vector<NodeId> items)
      : items_(std::move(items)) {}
  bool HasNext() override { return pos_ < items_.size(); }
  NodeId Next() override { return items_[pos_++]; }

 private:
  std::vector<NodeId> items_;
  size_t pos_ = 0;
};

/// Byte-level breakdown of a representation's heap footprint. The graph
/// service charges MemoryFootprint().Total() against its cache budget, and
/// the shell's `stats` command reports the split so analysts can see where
/// a representation spends its memory (the paper's Fig. 10 axis).
struct GraphFootprint {
  size_t adjacency_bytes = 0;  // condensed or expanded adjacency structure
  size_t property_bytes = 0;   // vertex property columns
  size_t aux_bytes = 0;        // representation extras (BITMAP's bitmaps)

  size_t Total() const { return adjacency_bytes + property_bytes + aux_bytes; }
};

/// One run's bulk neighbor reduction (Graph::PrepareReduction): the one
/// step degree, PageRank and connected components repeat. Both methods
/// write out[u] for every live vertex u only, index x and out by vertex
/// id, and compute each out[u] on one thread in an order that does not
/// depend on the thread count. The graph must not change while the
/// reduction lives.
class NeighborReduction {
 public:
  virtual ~NeighborReduction() = default;
  /// out[u] = the sum of x[v] over u's distinct live out-neighbors v.
  virtual void Sum(std::span<const double> x, std::span<double> out) const = 0;
  /// out[u] = the min of x[u] and of x[v] over those neighbors.
  virtual void Min(std::span<const NodeId> x,
                   std::span<NodeId> out) const = 0;
};

/// The 7-operation graph API of §3.4 that every in-memory representation
/// implements (C-DUP, EXP, DEDUP-1, DEDUP-2, BITMAP). All graph
/// algorithms and the vertex-centric framework are written against this
/// interface, so any representation can back any analysis.
///
/// Vertices are dense ids [0, NumVertices()); deleted vertices leave holes
/// (lazy deletion, §3.4) which VertexExists reports.
class Graph {
 public:
  virtual ~Graph() = default;

  /// Short representation name ("C-DUP", "EXP", "DEDUP-1", ...).
  virtual std::string_view Name() const = 0;

  /// Size of the vertex id space (including logically deleted slots).
  virtual size_t NumVertices() const = 0;
  /// Number of live vertices.
  virtual size_t NumActiveVertices() const = 0;
  virtual bool VertexExists(NodeId v) const = 0;

  /// getVertices(): calls fn for every live vertex id.
  virtual void ForEachVertex(const std::function<void(NodeId)>& fn) const;

  /// getNeighbors(v): calls fn once per distinct out-neighbor.
  virtual void ForEachNeighbor(NodeId u,
                               const std::function<void(NodeId)>& fn) const = 0;

  /// getNeighbors(v) as a pull iterator.
  virtual std::unique_ptr<NeighborIterator> Neighbors(NodeId u) const;

  /// Flat-adjacency capability: when true, NeighborSpan(u) is valid for
  /// every live vertex u and returns the exact neighbor set — sorted,
  /// duplicate-free, live targets only — as one contiguous span. Kernels
  /// use it to traverse edges with zero virtual dispatch and zero
  /// std::function indirection; when false they fall back to
  /// ForEachNeighbor. EXP implements it natively (and reports false while
  /// lazy vertex deletions are pending, since stale targets would leak
  /// into the spans); ExpandGraph (repr/expander.h) snapshots any
  /// representation into an EXP graph that has it, which only triangle
  /// counting and clustering do.
  virtual bool HasFlatAdjacency() const { return false; }

  /// Sorted distinct live out-neighbors of u as a contiguous span. Only
  /// meaningful when HasFlatAdjacency() is true; the default returns an
  /// empty span. The span is invalidated by any mutation of the graph.
  virtual std::span<const NodeId> NeighborSpan(NodeId u) const;

  /// The bulk neighbor reduction for a run on `threads` workers (0 = the
  /// default). This default pulls over NeighborSpan when the graph has
  /// flat adjacency, splitting vertices into edge-balanced ranges once
  /// here, and over ForEachNeighbor otherwise. Condensed graphs aggregate
  /// at their virtual nodes instead (repr/condensed_graph.h).
  virtual std::unique_ptr<NeighborReduction> PrepareReduction(
      size_t threads = 0) const;

  /// Materialized distinct neighbor list.
  std::vector<NodeId> NeighborList(NodeId u) const;

  /// Out-degree of u (distinct neighbors).
  virtual size_t OutDegree(NodeId u) const;

  /// existsEdge(v, u).
  virtual bool ExistsEdge(NodeId u, NodeId v) const = 0;

  /// addEdge(v, u). No-op returning OK if the edge already exists;
  /// InvalidArgument, changing nothing, if an endpoint does not exist or
  /// u == v (self paths are never logical edges; see
  /// graph/condensed_walk.h).
  virtual Status AddEdge(NodeId u, NodeId v) = 0;
  /// deleteEdge(v, u); removes the logical edge u -> v (all paths).
  virtual Status DeleteEdge(NodeId u, NodeId v) = 0;
  /// addVertex(): returns the new vertex id.
  virtual NodeId AddVertex() = 0;
  /// deleteVertex(v): lazy logical removal (§3.4).
  virtual Status DeleteVertex(NodeId v) = 0;

  /// Total number of edges in the *expanded* view of this graph.
  virtual uint64_t CountExpandedEdges() const;

  /// Number of physically stored (condensed) edges.
  virtual uint64_t CountStoredEdges() const = 0;
  /// Number of virtual nodes (0 for EXP).
  virtual size_t NumVirtualNodes() const = 0;

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const { return MemoryFootprint().Total(); }

  /// The heap footprint broken down by component; the single source of
  /// byte accounting every representation implements.
  virtual GraphFootprint MemoryFootprint() const = 0;

  /// Sorted unique expanded edge list; the equivalence oracle used by
  /// tests to verify representations agree.
  std::vector<std::pair<NodeId, NodeId>> ExpandedEdgeSet() const;
};

/// Calls fn(v) for every distinct out-neighbor v of u. `flat` is
/// g.HasFlatAdjacency(), resolved once per run by the caller: a plain
/// loop over NeighborSpan(u) when true (zero virtual dispatch per edge),
/// else the virtual callback path. `fn` is passed by reference, so the
/// callback path wraps it in a reference_wrapper — no allocation, no
/// copy. This is the one flat-vs-callback branch every traversal kernel
/// shares.
template <typename Fn>
void VisitNeighbors(const Graph& g, bool flat, NodeId u, Fn&& fn) {
  if (flat) {
    for (NodeId v : g.NeighborSpan(u)) fn(v);
  } else {
    g.ForEachNeighbor(u, std::function<void(NodeId)>(std::ref(fn)));
  }
}

}  // namespace graphgen

#endif  // GRAPHGEN_GRAPH_GRAPH_H_
