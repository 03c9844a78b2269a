#include "repr/condensed_graph.h"

#include <unordered_set>
#include <utility>

#include "common/memory.h"
#include "graph/condensed_walk.h"

namespace graphgen {

namespace {

// The out-lists of `count` real or virtual nodes of `s` as one exact-size
// CSR.
CondensedAdjacency FreezeOutLists(const CondensedStorage& s, size_t count,
                                  bool is_virtual) {
  auto ref = [is_virtual](size_t i) {
    const uint32_t index = static_cast<uint32_t>(i);
    return is_virtual ? NodeRef::Virtual(index) : NodeRef::Real(index);
  };
  std::vector<uint64_t> degrees(count);
  for (size_t i = 0; i < count; ++i) degrees[i] = s.OutEdges(ref(i)).size();
  CondensedAdjacency flat = CondensedAdjacency::FromDegrees(degrees);
  for (size_t i = 0; i < count; ++i) {
    const std::vector<NodeRef>& out = s.OutEdges(ref(i));
    std::copy(out.begin(), out.end(),
              flat.neighbors.begin() + static_cast<ptrdiff_t>(flat.offsets[i]));
  }
  return flat;
}

}  // namespace

CondensedGraph::CondensedGraph(CondensedStorage storage)
    : real_(FreezeOutLists(storage, storage.NumRealNodes(), false)),
      virt_(FreezeOutLists(storage, storage.NumVirtualNodes(), true)),
      deleted_(storage.NumRealNodes(), 0),
      properties_(std::move(storage.properties())) {
  for (NodeId u = 0; u < deleted_.size(); ++u) {
    if (storage.IsDeleted(u)) {
      deleted_[u] = 1;
      ++num_deleted_;
    }
  }
  stale_deletions_ = num_deleted_;
}

Status CondensedGraph::AddEdge(NodeId u, NodeId v) {
  if (!VertexExists(u) || !VertexExists(v)) {
    return Status::InvalidArgument("AddEdge endpoint does not exist");
  }
  // A stored u_s -> u_t edge is a self path, which no walk reports.
  if (u == v) return Status::InvalidArgument("self edges are not supported");
  if (ExistsEdge(u, v)) return Status::OK();
  real_.Mutable(u).push_back(NodeRef::Real(v));
  return Status::OK();
}

Status CondensedGraph::DeleteEdge(NodeId u, NodeId v) {
  if (!VertexExists(u) || !VertexExists(v)) {
    return Status::InvalidArgument("DeleteEdge endpoint does not exist");
  }
  if (!ExistsEdge(u, v)) {
    return Status::NotFound("edge does not exist");
  }
  // Remove any direct u_s -> v_t edges.
  EraseOutEdges(u, [v](NodeRef r) { return r == NodeRef::Real(v); });
  if (!ExistsEdge(u, v)) return Status::OK();
  // Paths through virtual nodes remain: the logical-edge deletion of §4.3
  // detaches u_s from its virtual out-neighbors and compensates with
  // direct edges to every other expanded neighbor.
  const std::vector<NodeId> neighbors =
      condensed::ExpandedNeighbors(*this, NumVertices(), u);
  EraseOutEdges(u, [](NodeRef r) { return r.is_virtual(); });
  // Direct real edges that survived are still intact; avoid duplicating
  // them when re-adding.
  std::vector<NodeRef>& out = real_.Mutable(u);
  const std::unordered_set<NodeRef, NodeRefHash> direct(out.begin(),
                                                        out.end());
  for (NodeId w : neighbors) {
    if (w == v || direct.contains(NodeRef::Real(w))) continue;
    out.push_back(NodeRef::Real(w));
  }
  return Status::OK();
}

NodeId CondensedGraph::AddVertex() {
  real_.AddVertex();
  deleted_.push_back(0);
  return static_cast<NodeId>(deleted_.size() - 1);
}

Status CondensedGraph::DeleteVertex(NodeId v) {
  if (!VertexExists(v)) {
    return Status::NotFound("vertex does not exist");
  }
  deleted_[v] = 1;
  ++num_deleted_;
  ++stale_deletions_;
  return Status::OK();
}

GraphFootprint CondensedGraph::MemoryFootprint() const {
  return {real_.MemoryBytes() + virt_.MemoryBytes() + VectorBytes(deleted_),
          properties_.MemoryBytes(), 0};
}

uint64_t CondensedGraph::CountDuplicatePairs() const {
  return condensed::CountDuplicatePairs(*this, NumVertices());
}

size_t CondensedGraph::Compact() {
  if (real_.NumPatched() == 0 && stale_deletions_ == 0) return 0;
  const size_t folded = real_.Compact([&](NodeId u, NodeRef r) {
    return !deleted_[u] && (r.is_virtual() || !deleted_[r.index()]);
  });
  stale_deletions_ = 0;
  return folded;
}

}  // namespace graphgen
