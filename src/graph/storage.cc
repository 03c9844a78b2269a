#include "graph/storage.h"

#include <algorithm>
#include <atomic>

#include "common/mark_set.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "graph/condensed_walk.h"

namespace graphgen {

NodeId CondensedStorage::AddRealNode() {
  real_out_.emplace_back();
  real_in_.emplace_back();
  deleted_.push_back(0);
  sorted_ = false;
  return static_cast<NodeId>(real_out_.size() - 1);
}

NodeId CondensedStorage::AddRealNodes(size_t n) {
  NodeId first = static_cast<NodeId>(real_out_.size());
  real_out_.resize(real_out_.size() + n);
  real_in_.resize(real_in_.size() + n);
  deleted_.resize(deleted_.size() + n, 0);
  sorted_ = false;
  return first;
}

uint32_t CondensedStorage::AddVirtualNode() {
  virt_out_.emplace_back();
  virt_in_.emplace_back();
  sorted_ = false;
  return static_cast<uint32_t>(virt_out_.size() - 1);
}

uint32_t CondensedStorage::AddVirtualNodes(size_t n) {
  const uint32_t first = static_cast<uint32_t>(virt_out_.size());
  virt_out_.resize(virt_out_.size() + n);
  virt_in_.resize(virt_in_.size() + n);
  sorted_ = false;
  return first;
}

void CondensedStorage::AddEdge(NodeRef from, NodeRef to) {
  MutableOutEdges(from).push_back(to);
  MutableInEdges(to).push_back(from);
  sorted_ = false;
}

void CondensedStorage::AddEdges(
    const std::vector<std::pair<NodeRef, NodeRef>>& edges) {
  if (edges.empty()) return;
  // The bulk path scans every node's count slot (O(all nodes) zeroing);
  // for batches small relative to the graph, plain appends are cheaper.
  const size_t nodes = real_out_.size() + virt_out_.size();
  if (edges.size() < 1024 || edges.size() * 8 < nodes) {
    for (const auto& [from, to] : edges) AddEdge(from, to);
    return;
  }
  // Pass 1: per-node degree deltas (node ids are dense in both spaces).
  std::vector<uint32_t> real_out(real_out_.size(), 0);
  std::vector<uint32_t> real_in(real_in_.size(), 0);
  std::vector<uint32_t> virt_out(virt_out_.size(), 0);
  std::vector<uint32_t> virt_in(virt_in_.size(), 0);
  for (const auto& [from, to] : edges) {
    ++(from.is_virtual() ? virt_out : real_out)[from.index()];
    ++(to.is_virtual() ? virt_in : real_in)[to.index()];
  }
  // Pass 2: one exact resize per touched list; the count slots become
  // per-node write cursors (the list's previous size).
  auto prepare = [](std::vector<std::vector<NodeRef>>& lists,
                    std::vector<uint32_t>& counts) {
    for (size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      const uint32_t old = static_cast<uint32_t>(lists[i].size());
      lists[i].resize(old + counts[i]);
      counts[i] = old;
    }
  };
  prepare(real_out_, real_out);
  prepare(real_in_, real_in);
  prepare(virt_out_, virt_out);
  prepare(virt_in_, virt_in);
  // Pass 3: scatter in order — one indexed write per edge per direction,
  // no per-push capacity checks or size updates.
  for (const auto& [from, to] : edges) {
    if (from.is_virtual()) {
      virt_out_[from.index()][virt_out[from.index()]++] = to;
    } else {
      real_out_[from.index()][real_out[from.index()]++] = to;
    }
    if (to.is_virtual()) {
      virt_in_[to.index()][virt_in[to.index()]++] = from;
    } else {
      real_in_[to.index()][real_in[to.index()]++] = from;
    }
  }
  sorted_ = false;
}

bool CondensedStorage::RemoveEdge(NodeRef from, NodeRef to) {
  auto& out = MutableOutEdges(from);
  auto it = std::find(out.begin(), out.end(), to);
  if (it == out.end()) return false;
  out.erase(it);
  auto& in = MutableInEdges(to);
  auto it2 = std::find(in.begin(), in.end(), from);
  if (it2 != in.end()) in.erase(it2);
  return true;
}

uint64_t CondensedStorage::CountCondensedEdges() const {
  uint64_t total = 0;
  for (const auto& l : real_out_) total += l.size();
  for (const auto& l : virt_out_) total += l.size();
  return total;
}

bool CondensedStorage::IsSingleLayer() const {
  for (const auto& l : virt_out_) {
    for (NodeRef r : l) {
      if (r.is_virtual()) return false;
    }
  }
  return true;
}

size_t CondensedStorage::NumLayers() const {
  if (virt_out_.empty()) return 0;
  // Longest path in the virtual-virtual DAG, via memoized DFS.
  const size_t nv = virt_out_.size();
  std::vector<int> depth(nv, -1);
  std::function<int(uint32_t)> dfs = [&](uint32_t v) -> int {
    if (depth[v] >= 0) return depth[v];
    depth[v] = 0;  // guards against (disallowed) cycles
    int best = 1;
    for (NodeRef r : virt_out_[v]) {
      if (r.is_virtual()) best = std::max(best, 1 + dfs(r.index()));
    }
    depth[v] = best;
    return best;
  };
  int layers = 0;
  for (uint32_t v = 0; v < nv; ++v) layers = std::max(layers, dfs(v));
  return static_cast<size_t>(layers);
}

bool CondensedStorage::IsAcyclic() const {
  const size_t nv = virt_out_.size();
  // Colors: 0 = unvisited, 1 = on stack, 2 = done.
  std::vector<uint8_t> color(nv, 0);
  std::vector<std::pair<uint32_t, size_t>> stack;
  for (uint32_t start = 0; start < nv; ++start) {
    if (color[start] != 0) continue;
    stack.emplace_back(start, 0);
    color[start] = 1;
    while (!stack.empty()) {
      auto& [v, i] = stack.back();
      const auto& out = virt_out_[v];
      bool advanced = false;
      while (i < out.size()) {
        NodeRef r = out[i++];
        if (!r.is_virtual()) continue;
        uint32_t w = r.index();
        if (color[w] == 1) return false;
        if (color[w] == 0) {
          color[w] = 1;
          stack.emplace_back(w, 0);
          advanced = true;
          break;
        }
      }
      if (!advanced && (stack.back().second >= virt_out_[stack.back().first].size())) {
        color[stack.back().first] = 2;
        stack.pop_back();
      }
    }
  }
  return true;
}

void CondensedStorage::ForEachExpandedNeighbor(
    NodeId u, const std::function<void(NodeId)>& fn) const {
  condensed::ForEachExpandedNeighbor(*this, real_out_.size(), u, fn);
}

void CondensedStorage::ForEachPathNeighbor(
    NodeId u, const std::function<void(NodeId)>& fn) const {
  condensed::ForEachPathNeighbor(*this, u, fn);
}

std::vector<NodeId> CondensedStorage::ExpandedNeighbors(NodeId u) const {
  return condensed::ExpandedNeighbors(*this, real_out_.size(), u);
}

uint64_t CondensedStorage::CountExpandedEdges() const {
  std::atomic<uint64_t> total{0};
  const size_t n = real_out_.size();
  ParallelFor(n, [&](size_t begin, size_t end) {
    uint64_t local = 0;
    MarkSet seen(n);
    for (size_t u = begin; u < end; ++u) {
      if (deleted_[u]) continue;
      seen.Clear();
      condensed::ForEachPathNeighbor(*this, static_cast<NodeId>(u),
                                     [&](NodeId v) {
                                       if (seen.Insert(v)) ++local;
                                     });
    }
    total.fetch_add(local, std::memory_order_relaxed);
  });
  return total.load();
}

uint64_t CondensedStorage::CountDuplicatePairs() const {
  return condensed::CountDuplicatePairs(*this, real_out_.size());
}

std::vector<std::pair<NodeId, NodeId>> CondensedStorage::ExpandedEdgeSet()
    const {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < real_out_.size(); ++u) {
    if (deleted_[u]) continue;
    ForEachExpandedNeighbor(u, [&](NodeId v) { edges.emplace_back(u, v); });
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

void CondensedStorage::ExpandVirtualNode(uint32_t v) {
  // Copy lists: AddEdge mutates them.
  std::vector<NodeRef> ins = virt_in_[v];
  std::vector<NodeRef> outs = virt_out_[v];
  DetachAll(NodeRef::Virtual(v));
  for (NodeRef in : ins) {
    for (NodeRef out : outs) {
      // Self paths are never logical edges (see ForEachPathNeighbor), so
      // materializing them would only waste memory.
      if (in.is_real() && out.is_real() && in.index() == out.index()) {
        continue;
      }
      AddEdge(in, out);
    }
  }
}

void CondensedStorage::CompactVirtualNodes() {
  const size_t nv = virt_out_.size();
  std::vector<uint32_t> remap(nv, 0xFFFFFFFFu);
  uint32_t next = 0;
  for (uint32_t v = 0; v < nv; ++v) {
    if (!virt_out_[v].empty() || !virt_in_[v].empty()) remap[v] = next++;
  }
  if (next == nv) return;
  auto rewrite = [&](std::vector<std::vector<NodeRef>>& lists) {
    for (auto& l : lists) {
      for (auto& r : l) {
        if (r.is_virtual()) r = NodeRef::Virtual(remap[r.index()]);
      }
    }
  };
  rewrite(real_out_);
  rewrite(real_in_);
  rewrite(virt_out_);
  rewrite(virt_in_);
  for (uint32_t v = 0; v < nv; ++v) {
    if (remap[v] != 0xFFFFFFFFu && remap[v] != v) {
      virt_out_[remap[v]] = std::move(virt_out_[v]);
      virt_in_[remap[v]] = std::move(virt_in_[v]);
    }
  }
  virt_out_.resize(next);
  virt_in_.resize(next);
}

void CondensedStorage::PermuteVirtualNodes(const std::vector<uint32_t>& perm) {
  const size_t nv = virt_out_.size();
  if (perm.size() != nv) return;
  auto rewrite = [&](std::vector<std::vector<NodeRef>>& lists) {
    for (auto& l : lists) {
      for (auto& r : l) {
        if (r.is_virtual()) r = NodeRef::Virtual(perm[r.index()]);
      }
    }
  };
  rewrite(real_out_);
  rewrite(real_in_);
  rewrite(virt_out_);
  rewrite(virt_in_);
  std::vector<std::vector<NodeRef>> new_out(nv);
  std::vector<std::vector<NodeRef>> new_in(nv);
  for (uint32_t v = 0; v < nv; ++v) {
    new_out[perm[v]] = std::move(virt_out_[v]);
    new_in[perm[v]] = std::move(virt_in_[v]);
  }
  virt_out_ = std::move(new_out);
  virt_in_ = std::move(new_in);
  sorted_ = false;
}

void CondensedStorage::DetachAll(NodeRef node) {
  auto& out = MutableOutEdges(node);
  for (NodeRef to : out) {
    auto& in = MutableInEdges(to);
    auto it = std::find(in.begin(), in.end(), node);
    if (it != in.end()) in.erase(it);
  }
  out.clear();
  auto& in = MutableInEdges(node);
  for (NodeRef from : in) {
    auto& their_out = MutableOutEdges(from);
    auto it = std::find(their_out.begin(), their_out.end(), node);
    if (it != their_out.end()) their_out.erase(it);
  }
  in.clear();
}

void CondensedStorage::RemoveParallelEdges() {
  auto dedup = [](std::vector<NodeRef>& l) {
    std::sort(l.begin(), l.end());
    l.erase(std::unique(l.begin(), l.end()), l.end());
  };
  for (auto& l : real_out_) dedup(l);
  for (auto& l : virt_out_) dedup(l);
  for (auto& l : real_in_) l.clear();
  for (auto& l : virt_in_) l.clear();
  for (NodeId u = 0; u < real_out_.size(); ++u) {
    for (NodeRef r : real_out_[u]) {
      MutableInEdges(r).push_back(NodeRef::Real(u));
    }
  }
  for (uint32_t v = 0; v < virt_out_.size(); ++v) {
    for (NodeRef r : virt_out_[v]) {
      MutableInEdges(r).push_back(NodeRef::Virtual(v));
    }
  }
  sorted_ = false;
}

void CondensedStorage::SortAdjacency() {
  auto sort_all = [](std::vector<std::vector<NodeRef>>& lists) {
    for (auto& l : lists) std::sort(l.begin(), l.end());
  };
  sort_all(real_out_);
  sort_all(real_in_);
  sort_all(virt_out_);
  sort_all(virt_in_);
  sorted_ = true;
}

bool CondensedStorage::HasEdge(NodeRef from, NodeRef to) const {
  const auto& out = OutEdges(from);
  if (sorted_) {
    return std::binary_search(out.begin(), out.end(), to);
  }
  return std::find(out.begin(), out.end(), to) != out.end();
}

void CondensedStorage::DeleteRealNode(NodeId u) {
  if (deleted_[u]) return;
  deleted_[u] = 1;
  ++num_deleted_;
}

size_t CondensedStorage::MemoryBytes() const {
  return NestedVectorBytes(real_out_) + NestedVectorBytes(real_in_) +
         NestedVectorBytes(virt_out_) + NestedVectorBytes(virt_in_) +
         VectorBytes(deleted_);
}

}  // namespace graphgen
