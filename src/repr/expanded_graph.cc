#include "repr/expanded_graph.h"

#include <algorithm>
#include <cassert>

#include "common/memory.h"

namespace graphgen {

void ExpandedGraph::ForEachNeighbor(
    NodeId u, const std::function<void(NodeId)>& fn) const {
  if (!VertexExists(u)) return;
  for (NodeId v : out_.Slice(u)) {
    if (!deleted_[v]) fn(v);
  }
}

size_t ExpandedGraph::OutDegree(NodeId u) const {
  if (!VertexExists(u)) return 0;
  std::span<const NodeId> out = out_.Slice(u);
  if (stale_deletions_ == 0) return out.size();
  size_t n = 0;
  for (NodeId v : out) {
    if (!deleted_[v]) ++n;
  }
  return n;
}

bool ExpandedGraph::ExistsEdge(NodeId u, NodeId v) const {
  if (!VertexExists(u) || !VertexExists(v)) return false;
  std::span<const NodeId> out = out_.Slice(u);
  return std::binary_search(out.begin(), out.end(), v);
}

Status ExpandedGraph::AddEdge(NodeId u, NodeId v) {
  if (!VertexExists(u) || !VertexExists(v)) {
    return Status::InvalidArgument("AddEdge endpoint does not exist");
  }
  if (u == v) return Status::InvalidArgument("self edges are not supported");
  std::span<const NodeId> cur = out_.Slice(u);
  if (std::binary_search(cur.begin(), cur.end(), v)) return Status::OK();
  std::vector<NodeId>& out = out_.Mutable(u);
  out.insert(std::lower_bound(out.begin(), out.end(), v), v);
  return Status::OK();
}

Status ExpandedGraph::DeleteEdge(NodeId u, NodeId v) {
  if (!VertexExists(u) || !VertexExists(v)) {
    return Status::InvalidArgument("DeleteEdge endpoint does not exist");
  }
  std::span<const NodeId> cur = out_.Slice(u);
  if (!std::binary_search(cur.begin(), cur.end(), v)) {
    return Status::NotFound("edge does not exist");
  }
  std::vector<NodeId>& out = out_.Mutable(u);
  out.erase(std::lower_bound(out.begin(), out.end(), v));
  return Status::OK();
}

NodeId ExpandedGraph::AddVertex() {
  // Appending an empty CSR range keeps the base covering every vertex, so
  // the new vertex needs no patch entry until its first edge.
  out_.AddVertex();
  deleted_.push_back(0);
  return static_cast<NodeId>(deleted_.size() - 1);
}

Status ExpandedGraph::DeleteVertex(NodeId v) {
  if (!VertexExists(v)) {
    return Status::NotFound("vertex does not exist");
  }
  deleted_[v] = 1;
  ++num_deleted_;
  ++stale_deletions_;
  return Status::OK();
}

uint64_t ExpandedGraph::CountStoredEdges() const {
  uint64_t total = 0;
  const size_t n = deleted_.size();
  for (size_t u = 0; u < n; ++u) {
    if (deleted_[u]) continue;
    std::span<const NodeId> out = out_.Slice(static_cast<NodeId>(u));
    if (stale_deletions_ == 0) {
      total += out.size();
    } else {
      for (NodeId v : out) {
        if (!deleted_[v]) ++total;
      }
    }
  }
  return total;
}

size_t ExpandedGraph::Compact() {
  if (out_.NumPatched() == 0 && stale_deletions_ == 0) return 0;
  const size_t folded = out_.Compact(
      [&](NodeId u, NodeId v) { return !deleted_[u] && !deleted_[v]; });
  stale_deletions_ = 0;  // stale targets are scrubbed now
  return folded;
}

GraphFootprint ExpandedGraph::MemoryFootprint() const {
  return {out_.MemoryBytes() + VectorBytes(deleted_),
          properties_.MemoryBytes(), 0};
}

void ExpandedGraph::AdoptCsr(FlatAdjacency out, std::vector<uint8_t> deleted) {
  assert(out.offsets.back() == out.neighbors.size());
  assert(deleted.empty() || deleted.size() == out.NumVertices());
  const size_t n = out.NumVertices();
  out_ = PatchedAdjacency<NodeId>(std::move(out));
  if (deleted.empty()) {
    deleted_.assign(n, 0);
    num_deleted_ = 0;
  } else {
    // Pre-scrubbed deletions: the arrays contain no edge touching these
    // vertices, so the span contract holds despite them.
    deleted_ = std::move(deleted);
    num_deleted_ = 0;
    for (uint8_t d : deleted_) num_deleted_ += d != 0;
  }
  stale_deletions_ = 0;
}

}  // namespace graphgen
