#include "repr/condensed_graph.h"

#include <unordered_set>
#include <vector>

namespace graphgen {

Status CondensedGraph::AddEdge(NodeId u, NodeId v) {
  if (!VertexExists(u) || !VertexExists(v)) {
    return Status::InvalidArgument("AddEdge endpoint does not exist");
  }
  // A stored u_s -> u_t edge is a self path, which no walk reports.
  if (u == v) return Status::InvalidArgument("self edges are not supported");
  if (ExistsEdge(u, v)) return Status::OK();
  storage_.AddEdge(NodeRef::Real(u), NodeRef::Real(v));
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

Status CondensedGraph::DeleteVertex(NodeId v) {
  if (!VertexExists(v)) {
    return Status::NotFound("vertex does not exist");
  }
  storage_.DeleteRealNode(v);
  return Status::OK();
}

}  // namespace graphgen
