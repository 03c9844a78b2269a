#include "repr/cdup_graph.h"

#include <span>
#include <vector>

#include "common/mark_set.h"

namespace graphgen {

bool CDupGraph::ExistsEdge(NodeId u, NodeId v) const {
  if (!VertexExists(u) || !VertexExists(v) || u == v) return false;
  // DFS from u_s, terminating as soon as v_t is reached. Virtual nodes are
  // marked visited so shared substructure is not re-explored.
  std::vector<NodeRef> stack;
  MarkSetLease visited_virtual(NumVirtualNodes());
  const std::span<const NodeRef> out = OutEdges(NodeRef::Real(u));
  stack.assign(out.begin(), out.end());
  while (!stack.empty()) {
    NodeRef r = stack.back();
    stack.pop_back();
    if (r.is_real()) {
      if (r.index() == v) return true;
      continue;
    }
    if (!visited_virtual->Insert(r.index())) continue;
    const std::span<const NodeRef> vout = OutEdges(r);
    stack.insert(stack.end(), vout.begin(), vout.end());
  }
  return false;
}

}  // namespace graphgen
