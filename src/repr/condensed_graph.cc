#include "repr/condensed_graph.h"

#include <algorithm>
#include <functional>
#include <unordered_set>
#include <utility>

#include "common/memory.h"
#include "common/parallel.h"
#include "graph/condensed_walk.h"
#include "repr/bitmap_graph.h"

namespace graphgen {

namespace {

// MakeReduction on a single-layer graph, in two passes. Pass one visits
// every virtual node w once: total[w] reduces x over w's live entries,
// and per bitmap at w, slot[k] reduces x over the live entries it
// permits. Pass two gives every live real u the reduction of its live
// direct entries other than u and, per virtual node w on its out-list,
// slot[k] for u's bitmap at w, or total[w] when it has none.
//
// Why this is the walk's answer: a min cannot change when a neighbor is
// met twice or when u meets itself (the min includes x[u] anyway). A sum
// can, so sums aggregate only when u_s's paths are unique. Then the walk
// reads every entry pass two reads, once each, except u itself, which it
// skips, so u subtracts x[u] once per entry equal to u among those it
// read (self_[u]).
//
// A bitmap is read four bits at a time: per 4-entry block of w's
// out-list, a 16-entry table holds the reduction of every subset of the
// block, so each bitmap word costs 16 lookups, whatever its density. The
// tables cost 4 ops per entry of w and are built once per pass. At the
// densities BITMAP-2 builds (36-79% of bits set on the benchmark's and
// Table 4's graphs) this reads bitmaps 1.3-2.2x as fast as a set-bit
// scan (README).
class AggregatedReduction : public NeighborReduction {
 public:
  // `walk` answers the sums when paths are not unique, else is null.
  AggregatedReduction(const CondensedGraph& g, const BitmapGraph* bitmaps,
                      std::unique_ptr<NeighborReduction> walk, size_t threads)
      : g_(g), bitmaps_(bitmaps), walk_(std::move(walk)), threads_(threads) {
    if (walk_ == nullptr) CountSelfEntries();
  }

  void Sum(std::span<const double> x, std::span<double> out) const override {
    if (walk_ != nullptr) {
      walk_->Sum(x, out);
      return;
    }
    Reduce(x, out, 0.0, std::plus<double>(),
           [&](NodeId u, double sum) { return sum - self_[u] * x[u]; });
  }

  void Min(std::span<const NodeId> x, std::span<NodeId> out) const override {
    const auto min = [](NodeId a, NodeId b) { return std::min(a, b); };
    Reduce(x, out, kInvalidNode, min,
           [&](NodeId u, NodeId best) { return std::min(best, x[u]); });
  }

 private:
  // self_[u]: per entry w of live u's out-list, the entries of w's
  // out-list equal to u that u's read of w includes.
  void CountSelfEntries() {
    const size_t n = g_.NumVertices();
    // (u << 32 | w) per virtual entry w of a live u, sorted, so the w
    // side can count how often u reads w.
    std::vector<uint64_t> reads;
    for (NodeId u = 0; u < n; ++u) {
      if (g_.IsDeleted(u)) continue;
      for (NodeRef r : g_.OutEdges(NodeRef::Real(u))) {
        if (r.is_virtual()) reads.push_back(uint64_t{u} << 32 | r.index());
      }
    }
    std::sort(reads.begin(), reads.end());
    self_.assign(n, 0);
    for (uint32_t w = 0; w < g_.NumVirtualNodes(); ++w) {
      const std::span<const NodeRef> out = g_.OutEdges(NodeRef::Virtual(w));
      for (size_t i = 0; i < out.size(); ++i) {
        const NodeId t = out[i].index();
        const auto [lo, hi] =
            std::equal_range(reads.begin(), reads.end(), uint64_t{t} << 32 | w);
        if (lo == hi) continue;
        const uint64_t* bits =
            bitmaps_ == nullptr ? nullptr : bitmaps_->FindBitmap(w, t);
        if (bits == nullptr || TestBit(bits, i)) {
          self_[t] += static_cast<uint32_t>(hi - lo);
        }
      }
    }
  }

  // out[u] = finish(u, the op-fold of u's reads) for every live u.
  template <typename T, typename Op, typename Finish>
  void Reduce(std::span<const T> x, std::span<T> out, T identity, Op op,
              Finish finish) const {
    std::vector<T> total(g_.NumVirtualNodes(), identity);
    std::vector<T> slot(bitmaps_ == nullptr ? 0 : bitmaps_->NumBitmaps());
    ParallelFor(total.size(), [&](size_t begin, size_t end) {
      std::vector<T> table;
      for (uint32_t w = static_cast<uint32_t>(begin); w < end; ++w) {
        const std::span<const NodeRef> vout = g_.OutEdges(NodeRef::Virtual(w));
        table.assign(16 * ((vout.size() + 3) / 4), identity);
        T acc = identity;
        for (size_t i = 0; i < vout.size(); ++i) {
          const NodeId t = vout[i].index();
          if (g_.IsDeleted(t)) continue;
          acc = op(acc, x[t]);
          table[16 * (i / 4) + (1u << (i % 4))] = x[t];
        }
        total[w] = acc;
        if (bitmaps_ == nullptr) continue;
        const size_t first = bitmaps_->owner_begin()[w];
        const size_t last = bitmaps_->owner_begin()[w + 1];
        if (first == last) continue;
        // A one-bit mask keeps its entry: op(identity, v) is v.
        for (size_t b = 0; b < table.size(); b += 16) {
          for (unsigned mask = 3; mask < 16; ++mask) {
            table[b + mask] = op(table[b + (mask & (mask - 1))],
                                 table[b + (mask & -mask)]);
          }
        }
        const size_t words = BitmapWords(vout.size());
        for (size_t k = first; k < last; ++k) {
          const uint64_t* bits = bitmaps_->SlotBitmap(w, k);
          T read = identity;
          for (size_t j = 0; j < words; ++j) {
            const T* block = table.data() + 256 * j;
            for (uint64_t word = bits[j]; word != 0; word >>= 4, block += 16) {
              read = op(read, block[word & 15]);
            }
          }
          slot[k] = read;
        }
      }
    }, threads_);
    ParallelFor(g_.NumVertices(), [&](size_t begin, size_t end) {
      for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
        if (g_.IsDeleted(u)) continue;
        T acc = identity;
        for (NodeRef r : g_.OutEdges(NodeRef::Real(u))) {
          const NodeId i = r.index();
          if (r.is_real()) {
            if (i != u && !g_.IsDeleted(i)) acc = op(acc, x[i]);
            continue;
          }
          const auto [k, found] = bitmaps_ == nullptr
                                      ? std::pair<size_t, bool>(0, false)
                                      : bitmaps_->FindSlot(i, u);
          acc = op(acc, found ? slot[k] : total[i]);
        }
        out[u] = finish(u, acc);
      }
    }, threads_);
  }

  const CondensedGraph& g_;
  const BitmapGraph* bitmaps_;
  std::unique_ptr<NeighborReduction> walk_;
  size_t threads_;
  std::vector<uint32_t> self_;
};

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
  single_layer_ = std::none_of(virt_.neighbors.begin(), virt_.neighbors.end(),
                               [](NodeRef r) { return r.is_virtual(); });
}

std::unique_ptr<NeighborReduction> CondensedGraph::MakeReduction(
    size_t threads, bool unique_paths, const BitmapGraph* bitmaps) const {
  if (!single_layer_) return Graph::PrepareReduction(threads);
  return std::make_unique<AggregatedReduction>(
      *this, bitmaps,
      unique_paths ? nullptr : Graph::PrepareReduction(threads), threads);
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
