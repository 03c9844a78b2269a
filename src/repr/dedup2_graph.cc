#include "repr/dedup2_graph.h"

#include <algorithm>
#include <unordered_set>

#include "common/memory.h"

namespace graphgen {

void Dedup2Graph::ForEachNeighbor(
    NodeId u, const std::function<void(NodeId)>& fn) const {
  if (!VertexExists(u)) return;
  for (uint32_t v : membership_[u]) {
    for (NodeId x : members_[v]) {
      if (x != u && !deleted_[x]) fn(x);
    }
    for (uint32_t w : vadj_[v]) {
      for (NodeId y : members_[w]) {
        if (y != u && !deleted_[y]) fn(y);
      }
    }
  }
}

bool Dedup2Graph::ExistsEdge(NodeId u, NodeId v) const {
  if (!VertexExists(u) || !VertexExists(v) || u == v) return false;
  for (uint32_t vn : membership_[u]) {
    const auto& mem = members_[vn];
    if (std::find(mem.begin(), mem.end(), v) != mem.end()) return true;
    for (uint32_t w : vadj_[vn]) {
      const auto& wm = members_[w];
      if (std::find(wm.begin(), wm.end(), v) != wm.end()) return true;
    }
  }
  return false;
}

Status Dedup2Graph::AddEdge(NodeId u, NodeId v) {
  if (!VertexExists(u) || !VertexExists(v)) {
    return Status::InvalidArgument("AddEdge endpoint does not exist");
  }
  if (u == v) return Status::InvalidArgument("self edges are not supported");
  if (ExistsEdge(u, v)) return Status::OK();
  // A pair virtual node implements a direct undirected edge without
  // violating either invariant.
  AddVirtualNode({u, v});
  return Status::OK();
}

Status Dedup2Graph::DeleteEdge(NodeId u, NodeId v) {
  if (!VertexExists(u) || !VertexExists(v)) {
    return Status::InvalidArgument("DeleteEdge endpoint does not exist");
  }
  // u's own virtual nodes hold u: a self path, never a logical edge.
  if (u == v) return Status::NotFound("edge does not exist");
  // Find the unique virtual node V through which u reaches v.
  uint32_t via = 0xFFFFFFFFu;
  for (uint32_t vn : membership_[u]) {
    const auto& mem = members_[vn];
    if (std::find(mem.begin(), mem.end(), v) != mem.end()) {
      via = vn;
      break;
    }
    for (uint32_t w : vadj_[vn]) {
      const auto& wm = members_[w];
      if (std::find(wm.begin(), wm.end(), v) != wm.end()) {
        via = vn;
        break;
      }
    }
    if (via != 0xFFFFFFFFu) break;
  }
  if (via == 0xFFFFFFFFu) return Status::NotFound("edge does not exist");

  // Collect everything u could reach through `via`, detach u from it, and
  // compensate with pair virtual nodes for all lost neighbors except v.
  std::unordered_set<NodeId> lost;
  for (NodeId x : members_[via]) {
    if (x != u) lost.insert(x);
  }
  for (uint32_t w : vadj_[via]) {
    for (NodeId y : members_[w]) lost.insert(y);
  }
  DetachMember(via, u);
  for (NodeId x : lost) {
    if (x == v || x == u || deleted_[x]) continue;
    GRAPHGEN_RETURN_NOT_OK(AddEdge(u, x));
  }
  return Status::OK();
}

NodeId Dedup2Graph::AddVertex() {
  membership_.emplace_back();
  deleted_.push_back(0);
  return static_cast<NodeId>(membership_.size() - 1);
}

Status Dedup2Graph::DeleteVertex(NodeId v) {
  if (!VertexExists(v)) {
    return Status::NotFound("vertex does not exist");
  }
  deleted_[v] = 1;
  ++num_deleted_;
  return Status::OK();
}

uint64_t Dedup2Graph::CountStoredEdges() const {
  // Undirected edge count: real-virtual membership edges plus
  // virtual-virtual edges (stored twice in vadj_).
  uint64_t membership_edges = 0;
  for (const auto& m : members_) membership_edges += m.size();
  uint64_t vv = 0;
  for (const auto& a : vadj_) vv += a.size();
  return membership_edges + vv / 2;
}

GraphFootprint Dedup2Graph::MemoryFootprint() const {
  return {NestedVectorBytes(membership_) + NestedVectorBytes(members_) +
              NestedVectorBytes(vadj_) + VectorBytes(deleted_),
          properties_.MemoryBytes(), 0};
}

uint32_t Dedup2Graph::AddVirtualNode(std::vector<NodeId> members) {
  uint32_t id = static_cast<uint32_t>(members_.size());
  for (NodeId u : members) membership_[u].push_back(id);
  members_.push_back(std::move(members));
  vadj_.emplace_back();
  return id;
}

void Dedup2Graph::AddVirtualEdge(uint32_t v, uint32_t w) {
  vadj_[v].push_back(w);
  vadj_[w].push_back(v);
}

void Dedup2Graph::RemoveVirtualEdge(uint32_t v, uint32_t w) {
  auto& av = vadj_[v];
  auto it = std::find(av.begin(), av.end(), w);
  if (it != av.end()) av.erase(it);
  auto& aw = vadj_[w];
  auto it2 = std::find(aw.begin(), aw.end(), v);
  if (it2 != aw.end()) aw.erase(it2);
}

void Dedup2Graph::DetachMember(uint32_t v, NodeId u) {
  auto& mem = members_[v];
  auto it = std::find(mem.begin(), mem.end(), u);
  if (it != mem.end()) mem.erase(it);
  auto& ms = membership_[u];
  auto it2 = std::find(ms.begin(), ms.end(), v);
  if (it2 != ms.end()) ms.erase(it2);
}

}  // namespace graphgen
