#include "repr/dedup1_graph.h"

#include <span>
#include <vector>

namespace graphgen {

bool Dedup1Graph::ExistsEdge(NodeId u, NodeId v) const {
  if (!VertexExists(u) || !VertexExists(v) || u == v) return false;
  std::vector<NodeRef> stack;
  const std::span<const NodeRef> out = OutEdges(NodeRef::Real(u));
  stack.assign(out.begin(), out.end());
  while (!stack.empty()) {
    NodeRef r = stack.back();
    stack.pop_back();
    if (r.is_real()) {
      if (r.index() == v) return true;
      continue;
    }
    const std::span<const NodeRef> vout = OutEdges(r);
    stack.insert(stack.end(), vout.begin(), vout.end());
  }
  return false;
}

}  // namespace graphgen
