#include "repr/dedup1_graph.h"

#include <unordered_set>
#include <vector>

namespace graphgen {

bool Dedup1Graph::ExistsEdge(NodeId u, NodeId v) const {
  if (!VertexExists(u) || !VertexExists(v) || u == v) return false;
  std::vector<NodeRef> stack;
  const auto& out = storage_.OutEdges(NodeRef::Real(u));
  stack.assign(out.begin(), out.end());
  while (!stack.empty()) {
    NodeRef r = stack.back();
    stack.pop_back();
    if (r.is_real()) {
      if (r.index() == v) return true;
      continue;
    }
    const auto& vout = storage_.OutEdges(r);
    stack.insert(stack.end(), vout.begin(), vout.end());
  }
  return false;
}

Status Dedup1Graph::AddEdge(NodeId u, NodeId v) {
  if (!VertexExists(u) || !VertexExists(v)) {
    return Status::InvalidArgument("AddEdge endpoint does not exist");
  }
  // Maintain the single-path invariant: only add when absent.
  if (ExistsEdge(u, v)) return Status::OK();
  storage_.AddEdge(NodeRef::Real(u), NodeRef::Real(v));
  return Status::OK();
}

Status Dedup1Graph::DeleteEdge(NodeId u, NodeId v) {
  if (!VertexExists(u) || !VertexExists(v)) {
    return Status::InvalidArgument("DeleteEdge endpoint does not exist");
  }
  if (storage_.RemoveEdge(NodeRef::Real(u), NodeRef::Real(v))) {
    return Status::OK();  // was a direct edge
  }
  if (!ExistsEdge(u, v)) {
    return Status::NotFound("edge does not exist");
  }
  // The unique path runs through virtual nodes: detach u_s from its
  // virtual out-edges and compensate with direct edges (cheaper schemes
  // exist for single-layer graphs, but this is correct for all shapes).
  std::vector<NodeId> neighbors = storage_.ExpandedNeighbors(u);
  std::vector<NodeRef> out_copy = storage_.OutEdges(NodeRef::Real(u));
  for (NodeRef r : out_copy) {
    if (r.is_virtual()) storage_.RemoveEdge(NodeRef::Real(u), r);
  }
  std::unordered_set<NodeId> direct;
  for (NodeRef r : storage_.OutEdges(NodeRef::Real(u))) {
    if (r.is_real()) direct.insert(r.index());
  }
  for (NodeId w : neighbors) {
    if (w == v || direct.contains(w)) continue;
    storage_.AddEdge(NodeRef::Real(u), NodeRef::Real(w));
  }
  return Status::OK();
}

Status Dedup1Graph::DeleteVertex(NodeId v) {
  if (!VertexExists(v)) {
    return Status::NotFound("vertex does not exist");
  }
  storage_.DeleteRealNode(v);
  return Status::OK();
}

}  // namespace graphgen
