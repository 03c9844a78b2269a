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
// slot[k] for u's bitmap at w, or total[w] when it has none. Which of
// the two each virtual entry of u reads, and self_[u] below, are found
// once, when the reduction is prepared, not once per pass.
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
// tables cost 4 ops per entry of w and are built once per pass, at the
// virtual nodes that hold bitmaps. At the
// densities BITMAP-2 builds (36-79% of bits set on the benchmark's and
// Table 4's graphs) this reads bitmaps 1.3-2.2x as fast as a set-bit
// scan (README).
class AggregatedReduction : public NeighborReduction {
 public:
  // `walk` answers the sums when paths are not unique, else is null.
  AggregatedReduction(const CondensedGraph& g, const BitmapGraph* bitmaps,
                      std::unique_ptr<NeighborReduction> walk, size_t threads)
      : g_(g), bitmaps_(bitmaps), walk_(std::move(walk)), threads_(threads) {
    PrepareReads();
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
  // Fills reads_: per virtual entry w of live u's out-list, in order, the
  // index pass two reads, w (total[w]) or NumVirtualNodes() + k (slot[k]
  // of u's bitmap at w). When sums aggregate, also self_[u]: per such
  // entry, the entries of w's out-list equal to u that u's read includes,
  // found by binary search in w's entries sorted by target.
  void PrepareReads() {
    const size_t n = g_.NumVertices();
    const size_t nv = g_.NumVirtualNodes();
    read_begin_.assign(n + 1, 0);
    for (NodeId u = 0; u < n; ++u) {
      size_t count = 0;
      if (!g_.IsDeleted(u)) {
        for (NodeRef r : g_.OutEdges(NodeRef::Real(u))) count += r.is_virtual();
      }
      read_begin_[u + 1] = read_begin_[u] + count;
    }
    reads_.resize(read_begin_[n]);
    // (target << 32 | position) per entry of every w, sorted within w.
    std::vector<uint64_t> by_target;
    std::vector<size_t> by_target_begin;
    if (walk_ == nullptr) {
      self_.assign(n, 0);
      by_target_begin.assign(nv + 1, 0);
      for (uint32_t w = 0; w < nv; ++w) {
        by_target_begin[w + 1] =
            by_target_begin[w] + g_.OutEdges(NodeRef::Virtual(w)).size();
      }
      by_target.resize(by_target_begin[nv]);
      ParallelFor(nv, [&](size_t begin, size_t end) {
        for (size_t w = begin; w < end; ++w) {
          const std::span<const NodeRef> out =
              g_.OutEdges(NodeRef::Virtual(static_cast<uint32_t>(w)));
          uint64_t* keys = by_target.data() + by_target_begin[w];
          for (size_t i = 0; i < out.size(); ++i) {
            keys[i] = uint64_t{out[i].index()} << 32 | i;
          }
          std::sort(keys, keys + out.size());
        }
      }, threads_);
    }
    ParallelFor(n, [&](size_t begin, size_t end) {
      for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
        if (g_.IsDeleted(u)) continue;
        size_t* read = reads_.data() + read_begin_[u];
        for (NodeRef r : g_.OutEdges(NodeRef::Real(u))) {
          if (r.is_real()) continue;
          const uint32_t w = r.index();
          const auto [k, found] = bitmaps_ == nullptr
                                      ? std::pair<size_t, bool>(0, false)
                                      : bitmaps_->FindSlot(w, u);
          *read++ = found ? nv + k : w;
          if (walk_ != nullptr) continue;
          const uint64_t* bits = found ? bitmaps_->SlotBitmap(w, k) : nullptr;
          const auto [lo, hi] = std::equal_range(
              by_target.begin() + by_target_begin[w],
              by_target.begin() + by_target_begin[w + 1], uint64_t{u} << 32,
              [](uint64_t a, uint64_t b) { return a >> 32 < b >> 32; });
          for (auto it = lo; it != hi; ++it) {
            if (bits == nullptr || TestBit(bits, *it & 0xFFFFFFFFu)) {
              ++self_[u];
            }
          }
        }
      }
    }, threads_);
  }

  // out[u] = finish(u, the op-fold of u's reads) for every live u.
  template <typename T, typename Op, typename Finish>
  void Reduce(std::span<const T> x, std::span<T> out, T identity, Op op,
              Finish finish) const {
    const size_t nv = g_.NumVirtualNodes();
    // total[w] at w, slot[k] at nv + k: what reads_ indexes. Pass one
    // writes every entry, so none is initialized here.
    const std::unique_ptr<T[]> read_value = std::make_unique_for_overwrite<T[]>(
        nv + (bitmaps_ == nullptr ? 0 : bitmaps_->NumBitmaps()));
    T* const slot = read_value.get() + nv;
    ParallelFor(nv, [&](size_t begin, size_t end) {
      std::vector<T> table;
      for (uint32_t w = static_cast<uint32_t>(begin); w < end; ++w) {
        const std::span<const NodeRef> vout = g_.OutEdges(NodeRef::Virtual(w));
        const size_t first =
            bitmaps_ == nullptr ? 0 : bitmaps_->owner_begin()[w];
        const size_t last =
            bitmaps_ == nullptr ? 0 : bitmaps_->owner_begin()[w + 1];
        table.resize(first == last ? 0 : 16 * ((vout.size() + 3) / 4));
        T acc = identity;
        for (size_t b = 0; b < vout.size(); b += 4) {
          // The block's subsets, built in a local array so no entry waits
          // on a store to the table; a one-bit mask keeps its entry, since
          // op(identity, v) is v.
          T subset[16];
          std::fill_n(subset, 16, identity);
          for (size_t i = b; i < std::min(b + 4, vout.size()); ++i) {
            const NodeId t = vout[i].index();
            if (g_.IsDeleted(t)) continue;
            acc = op(acc, x[t]);
            subset[1u << (i - b)] = x[t];
          }
          if (table.empty()) continue;
          for (unsigned mask = 3; mask < 16; ++mask) {
            subset[mask] =
                op(subset[mask & (mask - 1)], subset[mask & -mask]);
          }
          std::copy_n(subset, 16, table.data() + 4 * b);
        }
        read_value[w] = acc;
        if (first == last) continue;
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
        const size_t* read = reads_.data() + read_begin_[u];
        T acc = identity;
        for (NodeRef r : g_.OutEdges(NodeRef::Real(u))) {
          const NodeId i = r.index();
          if (r.is_virtual()) {
            acc = op(acc, read_value[*read++]);
          } else if (i != u && !g_.IsDeleted(i)) {
            acc = op(acc, x[i]);
          }
        }
        out[u] = finish(u, acc);
      }
    }, threads_);
  }

  const CondensedGraph& g_;
  const BitmapGraph* bitmaps_;
  std::unique_ptr<NeighborReduction> walk_;
  size_t threads_;
  std::vector<size_t> read_begin_;
  std::vector<size_t> reads_;
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
