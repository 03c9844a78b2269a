#include "repr/expanded_graph.h"

#include <algorithm>
#include <cassert>

#include "common/memory.h"

namespace graphgen {

namespace {

size_t PatchBytes(const std::unordered_map<NodeId, std::vector<NodeId>>& m) {
  if (m.empty()) return 0;  // the sentinel bucket is not heap-allocated
  // Bucket array + node overhead estimate, plus the inner buffers.
  size_t total = m.bucket_count() * sizeof(void*);
  for (const auto& [u, list] : m) {
    total += sizeof(u) + sizeof(list) + list.capacity() * sizeof(NodeId) +
             2 * sizeof(void*);
  }
  return total;
}

}  // namespace

void ExpandedGraph::ForEachNeighbor(
    NodeId u, const std::function<void(NodeId)>& fn) const {
  if (!VertexExists(u)) return;
  for (NodeId v : OutSpan(u)) {
    if (!deleted_[v]) fn(v);
  }
}

size_t ExpandedGraph::OutDegree(NodeId u) const {
  if (!VertexExists(u)) return 0;
  std::span<const NodeId> out = OutSpan(u);
  if (stale_deletions_ == 0) return out.size();
  size_t n = 0;
  for (NodeId v : out) {
    if (!deleted_[v]) ++n;
  }
  return n;
}

bool ExpandedGraph::ExistsEdge(NodeId u, NodeId v) const {
  if (!VertexExists(u) || !VertexExists(v)) return false;
  std::span<const NodeId> out = OutSpan(u);
  return std::binary_search(out.begin(), out.end(), v);
}

std::vector<NodeId>& ExpandedGraph::MutableOut(NodeId u) {
  auto [it, inserted] = out_patch_.try_emplace(u);
  if (inserted) {
    std::span<const NodeId> base = out_.Slice(u);
    it->second.assign(base.begin(), base.end());
  }
  return it->second;
}

std::vector<NodeId>& ExpandedGraph::MutableIn(NodeId u) {
  auto [it, inserted] = in_patch_.try_emplace(u);
  if (inserted) {
    std::span<const NodeId> base = in_.Slice(u);
    it->second.assign(base.begin(), base.end());
  }
  return it->second;
}

Status ExpandedGraph::AddEdge(NodeId u, NodeId v) {
  if (!VertexExists(u) || !VertexExists(v)) {
    return Status::InvalidArgument("AddEdge endpoint does not exist");
  }
  std::span<const NodeId> cur = OutSpan(u);
  if (std::binary_search(cur.begin(), cur.end(), v)) return Status::OK();
  std::vector<NodeId>& out = MutableOut(u);
  out.insert(std::lower_bound(out.begin(), out.end(), v), v);
  std::vector<NodeId>& in = MutableIn(v);
  auto it = std::lower_bound(in.begin(), in.end(), u);
  if (it == in.end() || *it != u) in.insert(it, u);
  return Status::OK();
}

Status ExpandedGraph::DeleteEdge(NodeId u, NodeId v) {
  if (!VertexExists(u) || !VertexExists(v)) {
    return Status::InvalidArgument("DeleteEdge endpoint does not exist");
  }
  std::span<const NodeId> cur = OutSpan(u);
  if (!std::binary_search(cur.begin(), cur.end(), v)) {
    return Status::NotFound("edge does not exist");
  }
  std::vector<NodeId>& out = MutableOut(u);
  out.erase(std::lower_bound(out.begin(), out.end(), v));
  std::vector<NodeId>& in = MutableIn(v);
  auto it = std::lower_bound(in.begin(), in.end(), u);
  if (it != in.end() && *it == u) in.erase(it);
  return Status::OK();
}

NodeId ExpandedGraph::AddVertex() {
  // Appending an empty CSR range keeps the base covering every vertex, so
  // the new vertex needs no patch entry until its first edge.
  out_.offsets.push_back(out_.offsets.back());
  in_.offsets.push_back(in_.offsets.back());
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
    std::span<const NodeId> out = OutSpan(static_cast<NodeId>(u));
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

size_t ExpandedGraph::PatchOverlayBytes() const {
  return PatchBytes(out_patch_) + PatchBytes(in_patch_);
}

size_t ExpandedGraph::Compact() {
  const size_t folded = out_patch_.size() + in_patch_.size();
  if (folded == 0 && stale_deletions_ == 0) return 0;
  const size_t n = deleted_.size();
  auto rebuild = [&](const FlatAdjacency& base, auto span_of) {
    FlatAdjacency flat(n);
    flat.neighbors.reserve(base.neighbors.size());
    for (size_t u = 0; u < n; ++u) {
      if (!deleted_[u]) {
        for (NodeId v : span_of(static_cast<NodeId>(u))) {
          if (!deleted_[v]) flat.neighbors.push_back(v);
        }
      }
      flat.offsets[u + 1] = flat.neighbors.size();
    }
    return flat;
  };
  out_ = rebuild(out_, [&](NodeId u) { return OutSpan(u); });
  // Move-assign fresh maps: clear() (and ={} list-assignment) would keep
  // the grown bucket arrays resident.
  out_patch_ = decltype(out_patch_)();
  in_ = rebuild(in_, [&](NodeId u) { return InSpan(u); });
  in_patch_ = decltype(in_patch_)();
  stale_deletions_ = 0;  // stale targets are scrubbed now
  return folded;
}

GraphFootprint ExpandedGraph::MemoryFootprint() const {
  return {out_.MemoryBytes() + in_.MemoryBytes() + PatchBytes(out_patch_) +
              PatchBytes(in_patch_) + VectorBytes(deleted_),
          properties_.MemoryBytes(), 0};
}

void ExpandedGraph::AdoptCsr(FlatAdjacency out, FlatAdjacency in,
                             std::vector<uint8_t> deleted) {
  assert(out.NumVertices() == in.NumVertices());
  assert(out.offsets.back() == out.neighbors.size());
  assert(in.offsets.back() == in.neighbors.size());
  assert(deleted.empty() || deleted.size() == out.NumVertices());
  out_ = std::move(out);
  in_ = std::move(in);
  out_patch_.clear();
  in_patch_.clear();
  if (deleted.empty()) {
    deleted_.assign(out_.NumVertices(), 0);
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
