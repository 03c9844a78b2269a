#include <span>
#include <utility>
#include <vector>

#include "common/mark_set.h"
#include "common/parallel.h"
#include "common/sync.h"
#include "dedup/bitmap_algorithms.h"

namespace graphgen {

namespace {

/// Per-source DFS that fills local bitmaps using the first-visit policy:
/// each real target and each virtual node is traversable at most once per
/// source u (Algorithm 2, generalized to multi-layer inputs).
class Bitmap1Builder {
 public:
  Bitmap1Builder(const CondensedStorage& storage, BitmapArena& arena)
      : storage_(storage),
        arena_(arena),
        seen_real_(storage.NumRealNodes()),
        seen_virt_(storage.NumVirtualNodes()) {}

  void Run(NodeId u) {
    u_ = u;
    seen_real_.Clear();
    seen_virt_.Clear();
    const auto& out = storage_.OutEdges(NodeRef::Real(u));
    // Direct real targets are claimed first; duplicates among them were
    // stripped by RemoveParallelEdges.
    std::vector<uint32_t> roots;
    for (NodeRef r : out) {
      if (r.is_real()) {
        if (r.index() != u) seen_real_.Insert(r.index());
      } else if (seen_virt_.Insert(r.index())) {
        roots.push_back(r.index());
      }
    }
    for (uint32_t v : roots) Explore(v);
  }

 private:
  void Explore(uint32_t v) {
    const auto& out = storage_.OutEdges(NodeRef::Virtual(v));
    // v's bitmap sits on top of bits_, above those of the virtual nodes
    // still being explored; recursion may reallocate bits_, so bits are
    // addressed by offset.
    const size_t base = bits_.size();
    bits_.resize(base + BitmapWords(out.size()), 0);
    for (size_t i = 0; i < out.size(); ++i) {
      NodeRef r = out[i];
      if (r.is_real()) {
        NodeId x = r.index();
        if (x != u_ && seen_real_.Insert(x)) SetBit(&bits_[base], i);
      } else {
        uint32_t w = r.index();
        if (seen_virt_.Insert(w)) {
          SetBit(&bits_[base], i);
          Explore(w);
        }
      }
    }
    arena_.Add(v, u_, std::span(bits_).subspan(base));
    bits_.resize(base);
  }

  const CondensedStorage& storage_;
  BitmapArena& arena_;
  NodeId u_ = 0;
  std::vector<uint64_t> bits_;
  MarkSet seen_real_;
  MarkSet seen_virt_;
};

}  // namespace

Result<BitmapGraph> BuildBitmap1(const CondensedStorage& input,
                                 const DedupOptions& options) {
  CondensedStorage storage = input;
  storage.RemoveParallelEdges();
  const size_t n = storage.NumRealNodes();

  Mutex arenas_lock;
  std::vector<BitmapArena> arenas;
  ParallelFor(
      n,
      [&](size_t begin, size_t end) {
        BitmapArena arena;
        Bitmap1Builder builder(storage, arena);
        for (size_t u = begin; u < end; ++u) {
          if (storage.IsDeleted(static_cast<NodeId>(u))) continue;
          builder.Run(static_cast<NodeId>(u));
        }
        MutexLock guard(arenas_lock);
        arenas.push_back(std::move(arena));
      },
      options.threads);
  return BitmapGraph(std::move(storage), arenas);
}

}  // namespace graphgen
