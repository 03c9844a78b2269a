#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "common/mark_set.h"
#include "common/parallel.h"
#include "common/sync.h"
#include "dedup/bitmap_algorithms.h"

namespace graphgen {

namespace {

// True if all `bits` bits of `words` are set (the padding bits past them
// are always zero).
bool AllOnes(std::span<const uint64_t> words, size_t bits) {
  size_t set = 0;
  for (uint64_t w : words) set += std::popcount(w);
  return set == bits;
}

/// Per-source greedy set-cover pass (§5.1.3). Virtual nodes are adopted in
/// decreasing order of the number of still-uncovered real targets they can
/// reach; adopted nodes receive bitmaps claiming exactly the fresh
/// targets, and useless top-level membership edges are queued for
/// deletion.
class Bitmap2Builder {
 public:
  Bitmap2Builder(const CondensedStorage& storage, BitmapArena& arena,
                 std::vector<std::pair<NodeId, uint32_t>>& edge_deletions)
      : storage_(storage),
        arena_(arena),
        deletions_(edge_deletions),
        covered_(storage.NumRealNodes()),
        seen_virt_(storage.NumVirtualNodes()),
        scratch_visited_(storage.NumVirtualNodes()),
        scratch_reals_(storage.NumRealNodes()) {}

  void Run(NodeId u) {
    u_ = u;
    covered_.Clear();
    seen_virt_.Clear();
    const auto& out = storage_.OutEdges(NodeRef::Real(u));
    std::vector<uint32_t> roots;
    for (NodeRef r : out) {
      if (r.is_real()) {
        if (r.index() != u) covered_.Insert(r.index());
      } else if (seen_virt_.Insert(r.index())) {
        roots.push_back(r.index());
      }
    }
    // Greedy over top-level virtual nodes: adopt the one reaching the most
    // uncovered targets; delete membership edges that contribute nothing.
    std::vector<bool> done(roots.size(), false);
    for (size_t round = 0; round < roots.size(); ++round) {
      size_t best_i = roots.size();
      size_t best_gain = 0;
      for (size_t i = 0; i < roots.size(); ++i) {
        if (done[i]) continue;
        size_t gain = CountUncoveredReachable(roots[i]);
        if (gain > best_gain) {
          best_gain = gain;
          best_i = i;
        }
      }
      if (best_i == roots.size()) {
        // Nothing left to gain: delete the remaining membership edges
        // ("there is no reason to traverse those", §5.1.3).
        for (size_t i = 0; i < roots.size(); ++i) {
          if (!done[i]) deletions_.emplace_back(u, roots[i]);
        }
        break;
      }
      done[best_i] = true;
      Explore(roots[best_i]);
    }
  }

 private:
  /// |reachable real targets of v not yet covered|, honoring already-
  /// explored virtual nodes (their contribution is fixed).
  size_t CountUncoveredReachable(uint32_t v) {
    size_t count = 0;
    scratch_visited_.Clear();
    scratch_stack_.assign(1, v);
    scratch_visited_.Insert(v);
    scratch_reals_.Clear();
    while (!scratch_stack_.empty()) {
      uint32_t w = scratch_stack_.back();
      scratch_stack_.pop_back();
      for (NodeRef r : storage_.OutEdges(NodeRef::Virtual(w))) {
        if (r.is_real()) {
          NodeId x = r.index();
          if (x != u_ && !covered_.Contains(x) && scratch_reals_.Insert(x)) {
            ++count;
          }
        } else if (!seen_virt_.Contains(r.index()) &&
                   scratch_visited_.Insert(r.index())) {
          scratch_stack_.push_back(r.index());
        }
      }
    }
    return count;
  }

  /// Adopts virtual node v: installs its bitmap, claims fresh real
  /// targets, and recursively adopts the most profitable virtual children
  /// (the per-layer greedy of §5.1.3). v must already be in seen_virt_
  /// when it is a root; descendants are added here.
  void Explore(uint32_t v) {
    const auto& out = storage_.OutEdges(NodeRef::Virtual(v));
    // v's bitmap sits on top of bits_, above those of the virtual nodes
    // still being explored; recursion may reallocate bits_, so bits are
    // addressed by offset.
    const size_t base = bits_.size();
    bits_.resize(base + BitmapWords(out.size()), 0);
    // Claim fresh real targets first.
    for (size_t i = 0; i < out.size(); ++i) {
      NodeRef r = out[i];
      if (r.is_real()) {
        NodeId x = r.index();
        if (x != u_ && covered_.Insert(x)) SetBit(&bits_[base], i);
      }
    }
    // Then descend into virtual children, best-gain first.
    while (true) {
      size_t best_i = out.size();
      size_t best_gain = 0;
      for (size_t i = 0; i < out.size(); ++i) {
        NodeRef r = out[i];
        if (!r.is_virtual() || seen_virt_.Contains(r.index())) continue;
        size_t gain = CountUncoveredReachable(r.index());
        if (gain > best_gain) {
          best_gain = gain;
          best_i = i;
        }
      }
      if (best_i == out.size()) break;
      uint32_t w = out[best_i].index();
      seen_virt_.Insert(w);
      SetBit(&bits_[base], best_i);
      Explore(w);
    }
    // All-ones bitmaps add no information beyond "traverse all"; skipping
    // them is a pure memory optimization.
    const std::span<const uint64_t> bm = std::span(bits_).subspan(base);
    if (!AllOnes(bm, out.size())) arena_.Add(v, u_, bm);
    bits_.resize(base);
  }

  const CondensedStorage& storage_;
  BitmapArena& arena_;
  std::vector<std::pair<NodeId, uint32_t>>& deletions_;
  NodeId u_ = 0;
  std::vector<uint64_t> bits_;
  MarkSet covered_;
  MarkSet seen_virt_;
  MarkSet scratch_visited_;
  MarkSet scratch_reals_;
  std::vector<uint32_t> scratch_stack_;
};

}  // namespace

Result<BitmapGraph> BuildBitmap2(const CondensedStorage& input,
                                 const DedupOptions& options) {
  CondensedStorage storage = input;
  storage.RemoveParallelEdges();
  const size_t n = storage.NumRealNodes();

  Mutex results_lock;
  std::vector<BitmapArena> arenas;
  // (u, v) membership edges to delete, applied after the parallel phase so
  // shared in-lists are never mutated concurrently.
  std::vector<std::pair<NodeId, uint32_t>> all_deletions;
  ParallelFor(
      n,
      [&](size_t begin, size_t end) {
        BitmapArena arena;
        std::vector<std::pair<NodeId, uint32_t>> deletions;
        Bitmap2Builder builder(storage, arena, deletions);
        for (size_t u = begin; u < end; ++u) {
          if (storage.IsDeleted(static_cast<NodeId>(u))) continue;
          builder.Run(static_cast<NodeId>(u));
        }
        MutexLock guard(results_lock);
        arenas.push_back(std::move(arena));
        all_deletions.insert(all_deletions.end(), deletions.begin(),
                             deletions.end());
      },
      options.threads);

  // Membership edges only leave real out-lists and virtual in-lists, so
  // the virtual out-lists the bitmaps index are already final.
  for (const auto& [u, v] : all_deletions) {
    storage.RemoveEdge(NodeRef::Real(u), NodeRef::Virtual(v));
  }
  return BitmapGraph(std::move(storage), arenas);
}

}  // namespace graphgen
