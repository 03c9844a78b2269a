#ifndef GRAPHGEN_GRAPH_STORAGE_H_
#define GRAPHGEN_GRAPH_STORAGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/node_ref.h"
#include "graph/properties.h"

namespace graphgen {

/// The builders' form of a condensed graph GC(V', E') as defined in §4.1
/// of the paper:
///
///  * every real node u appears once physically, but logically twice
///    (u_s with only out-edges, u_t with only in-edges);
///  * the remaining nodes are *virtual* nodes introduced for the values of
///    large-output join attributes;
///  * an expanded edge u -> v exists iff there is a directed path from
///    u_s to v_t.
///
/// Adjacency is one mutable vector per node and direction (the paper's
/// Java ArrayLists; §3.4). Out-lists of real nodes hold virtual refs and
/// direct real refs (direct edge u_s -> v_t). Virtual nodes hold both
/// in-lists and out-lists that may reference real or virtual nodes
/// (virtual-virtual edges make the graph multi-layer).
///
/// This is the type the planner, the §4.2 preprocessing, the dedup
/// builders and the EXP patch enumeration build and rewrite, all of which
/// need in-lists and cheap edits anywhere. A served C-DUP, DEDUP-1 or
/// BITMAP graph consumes it: CondensedGraph (repr/condensed_graph.h)
/// freezes the out-lists into flat CSR arrays and drops the in-lists,
/// the way EXP serves a FlatAdjacency.
///
/// Real-node deletion is lazy (§3.4): DeleteRealNode only marks the vertex
/// and iteration skips marked vertices. A served graph scrubs them with
/// CondensedGraph::Compact.
class CondensedStorage {
 public:
  CondensedStorage() = default;

  // Copyable (dedup algorithms clone the C-DUP input) and movable.
  CondensedStorage(const CondensedStorage&) = default;
  CondensedStorage& operator=(const CondensedStorage&) = default;
  CondensedStorage(CondensedStorage&&) = default;
  CondensedStorage& operator=(CondensedStorage&&) = default;

  // ---- Construction ----

  /// Adds one real node; returns its id.
  NodeId AddRealNode();
  /// Adds `n` real nodes; returns the id of the first.
  NodeId AddRealNodes(size_t n);
  /// Adds one virtual node; returns its index in the virtual space.
  uint32_t AddVirtualNode();
  /// Adds `n` virtual nodes; returns the index of the first.
  uint32_t AddVirtualNodes(size_t n);

  /// Adds a directed condensed edge. Enforces the structural rules of
  /// §4.1: a real source endpoint acts as u_s (never receives in-edges via
  /// this edge) and a real target acts as v_t.
  void AddEdge(NodeRef from, NodeRef to);

  /// Adds a batch of edges, element-for-element identical to calling
  /// AddEdge in order, but each touched adjacency list is reserved to its
  /// exact final size first. The extraction assembly loop appends
  /// hundreds of thousands of edges; per-edge geometric vector growth
  /// (reallocate + copy, per node) costs more than the appends
  /// themselves.
  void AddEdges(const std::vector<std::pair<NodeRef, NodeRef>>& edges);

  /// Removes one occurrence of the edge; returns false if absent.
  bool RemoveEdge(NodeRef from, NodeRef to);

  // ---- Topology access ----

  size_t NumRealNodes() const { return real_out_.size(); }
  size_t NumVirtualNodes() const { return virt_out_.size(); }
  /// Real nodes not marked deleted.
  size_t NumActiveRealNodes() const { return real_out_.size() - num_deleted_; }

  const std::vector<NodeRef>& OutEdges(NodeRef node) const {
    return node.is_virtual() ? virt_out_[node.index()] : real_out_[node.index()];
  }
  const std::vector<NodeRef>& InEdges(NodeRef node) const {
    return node.is_virtual() ? virt_in_[node.index()] : real_in_[node.index()];
  }
  std::vector<NodeRef>& MutableOutEdges(NodeRef node) {
    return node.is_virtual() ? virt_out_[node.index()] : real_out_[node.index()];
  }
  std::vector<NodeRef>& MutableInEdges(NodeRef node) {
    return node.is_virtual() ? virt_in_[node.index()] : real_in_[node.index()];
  }

  /// Total number of condensed edges (what Table 1 reports for C-DUP).
  uint64_t CountCondensedEdges() const;

  /// True if there are no virtual->virtual edges (single-layer, §4.1).
  bool IsSingleLayer() const;
  /// Longest directed virtual chain; 0 when there are no virtual nodes,
  /// 1 for single-layer, >1 for multi-layer graphs.
  size_t NumLayers() const;
  /// The condensed graph must be a DAG (§4.1 property 2); checks the
  /// virtual-virtual subgraph for cycles.
  bool IsAcyclic() const;

  // ---- Expanded-graph views ----

  // The walks are graph/condensed_walk.h's, shared with CondensedGraph.

  /// Calls fn once per *distinct* real neighbor reachable from u_s
  /// (deduplicating via a mark set — the C-DUP on-the-fly strategy).
  void ForEachExpandedNeighbor(NodeId u,
                               const std::function<void(NodeId)>& fn) const;

  /// Calls fn for every real target of every u_s->...->v_t path, including
  /// duplicates (used to *measure* duplication). Self paths are skipped.
  void ForEachPathNeighbor(NodeId u,
                           const std::function<void(NodeId)>& fn) const;

  /// Distinct expanded neighbors of u, unsorted.
  std::vector<NodeId> ExpandedNeighbors(NodeId u) const;

  /// Number of edges the fully expanded graph would have. Parallelized;
  /// this is the quantity GraphGen computes "for free" during dedup to
  /// decide whether expansion is affordable (§4.2 Step 6).
  uint64_t CountExpandedEdges() const;

  /// Number of (u, v) pairs connected by more than one path, i.e. the
  /// duplication that dedup must remove. Zero means DEDUP-1-clean.
  uint64_t CountDuplicatePairs() const;

  /// Sorted, unique expanded edge list (test / equivalence oracle).
  std::vector<std::pair<NodeId, NodeId>> ExpandedEdgeSet() const;

  // ---- Mutation helpers used by preprocessing & dedup ----

  /// Removes virtual node v and directly connects each in-neighbor to each
  /// out-neighbor (§4.2 Step 6). The virtual node keeps its slot but
  /// becomes disconnected; use CompactVirtualNodes() to reclaim.
  void ExpandVirtualNode(uint32_t v);

  /// Drops virtual nodes with no in- and no out-edges, compacting indexes.
  void CompactVirtualNodes();

  /// Renumbers every virtual node: slot v moves to slot perm[v] and every
  /// adjacency reference is rewritten. `perm` must be a permutation of
  /// [0, NumVirtualNodes()). The extractor uses this to put virtual ids
  /// into canonical (key-sorted) order so a delta-patched graph is
  /// bitwise identical to a fresh extraction regardless of the order in
  /// which boundary values were first seen.
  void PermuteVirtualNodes(const std::vector<uint32_t>& perm);

  /// Detaches `node` from all its edges (both directions).
  void DetachAll(NodeRef node);

  /// Collapses parallel (duplicate) condensed edges, which contribute
  /// nothing but duplication; called by the dedup algorithms on their
  /// working copies. Rebuilds all in-lists.
  void RemoveParallelEdges();

  /// Sorts every adjacency list (the paper keeps neighbor lists sorted to
  /// make intersection checks fast, §5.2.2).
  void SortAdjacency();

  /// True if out-list of `from` contains `to` (binary search when sorted).
  bool HasEdge(NodeRef from, NodeRef to) const;

  // ---- Lazy deletion (§3.4) ----

  bool IsDeleted(NodeId u) const { return deleted_[u] != 0; }
  /// Logically removes a real node from the vertex index.
  void DeleteRealNode(NodeId u);
  size_t NumPendingDeletions() const { return num_deleted_; }

  // ---- Properties ----

  PropertyTable& properties() { return properties_; }
  const PropertyTable& properties() const { return properties_; }

  /// Approximate heap footprint (adjacency only; add properties().MemoryBytes()
  /// for the full object).
  size_t MemoryBytes() const;

 private:
  std::vector<std::vector<NodeRef>> real_out_;
  std::vector<std::vector<NodeRef>> real_in_;
  std::vector<std::vector<NodeRef>> virt_out_;
  std::vector<std::vector<NodeRef>> virt_in_;
  std::vector<uint8_t> deleted_;
  size_t num_deleted_ = 0;
  bool sorted_ = false;
  PropertyTable properties_;
};

}  // namespace graphgen

#endif  // GRAPHGEN_GRAPH_STORAGE_H_
