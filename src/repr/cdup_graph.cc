#include "repr/cdup_graph.h"

#include <unordered_set>
#include <vector>

namespace graphgen {

bool CDupGraph::ExistsEdge(NodeId u, NodeId v) const {
  if (!VertexExists(u) || !VertexExists(v) || u == v) return false;
  // DFS from u_s, terminating as soon as v_t is reached. Virtual nodes are
  // marked visited so shared substructure is not re-explored.
  std::vector<NodeRef> stack;
  std::unordered_set<uint32_t> visited_virtual;
  const auto& out = storage_.OutEdges(NodeRef::Real(u));
  stack.assign(out.begin(), out.end());
  while (!stack.empty()) {
    NodeRef r = stack.back();
    stack.pop_back();
    if (r.is_real()) {
      if (r.index() == v) return true;
      continue;
    }
    if (!visited_virtual.insert(r.index()).second) continue;
    const auto& vout = storage_.OutEdges(r);
    stack.insert(stack.end(), vout.begin(), vout.end());
  }
  return false;
}

Status CDupGraph::AddEdge(NodeId u, NodeId v) {
  if (!VertexExists(u) || !VertexExists(v)) {
    return Status::InvalidArgument("AddEdge endpoint does not exist");
  }
  if (ExistsEdge(u, v)) return Status::OK();
  storage_.AddEdge(NodeRef::Real(u), NodeRef::Real(v));
  return Status::OK();
}

Status CDupGraph::DeleteEdge(NodeId u, NodeId v) {
  if (!VertexExists(u) || !VertexExists(v)) {
    return Status::InvalidArgument("DeleteEdge endpoint does not exist");
  }
  if (!ExistsEdge(u, v)) {
    return Status::NotFound("edge does not exist");
  }
  // Remove any direct u_s -> v_t edges.
  while (storage_.RemoveEdge(NodeRef::Real(u), NodeRef::Real(v))) {
  }
  if (!ExistsEdge(u, v)) return Status::OK();
  // Paths through virtual nodes remain: the logical-edge deletion of §4.3
  // detaches u_s from its virtual out-neighbors and compensates with
  // direct edges to every other expanded neighbor.
  std::vector<NodeId> neighbors = storage_.ExpandedNeighbors(u);
  std::vector<NodeRef> out_copy = storage_.OutEdges(NodeRef::Real(u));
  for (NodeRef r : out_copy) {
    if (r.is_virtual()) storage_.RemoveEdge(NodeRef::Real(u), r);
  }
  // Direct real edges that survived are still intact; avoid duplicating
  // them when re-adding.
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

Status CDupGraph::DeleteVertex(NodeId v) {
  if (!VertexExists(v)) {
    return Status::NotFound("vertex does not exist");
  }
  storage_.DeleteRealNode(v);
  return Status::OK();
}

}  // namespace graphgen
