#include "repr/bitmap_graph.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <tuple>
#include <vector>

namespace graphgen {

namespace {

void ClearBit(uint64_t* words, size_t i) {
  words[i >> 6] &= ~(uint64_t{1} << (i & 63));
}

// Inserts `count` copies of `value` at `pos` into a new, exactly sized
// array, so capacity-based byte counts stay exact after a mutation.
template <typename T>
void InsertExact(std::vector<T>& vec, size_t pos, size_t count, T value) {
  std::vector<T> grown;
  grown.reserve(vec.size() + count);
  grown.insert(grown.end(), vec.begin(), vec.begin() + pos);
  grown.insert(grown.end(), count, value);
  grown.insert(grown.end(), vec.begin() + pos, vec.end());
  vec = std::move(grown);
}

}  // namespace

BitmapGraph::BitmapGraph(CondensedStorage storage,
                         const std::vector<BitmapArena>& arenas)
    : CondensedGraph(std::move(storage)) {
  const size_t nv = NumVirtualNodes();
  struct Ref {
    uint32_t virt;
    NodeId owner;
    const uint64_t* words;
  };
  std::vector<Ref> refs;
  size_t num_records = 0;
  for (const BitmapArena& a : arenas) num_records += a.records_.size();
  refs.reserve(num_records);
  for (const BitmapArena& a : arenas) {
    [[maybe_unused]] size_t arena_words = 0;
    for (const BitmapArena::Record& r : a.records_) {
      refs.push_back({r.virt, r.owner, a.words_.data() + r.offset});
      arena_words += WordsOf(r.virt);
    }
    assert(arena_words == a.words_.size());
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return std::tie(a.virt, a.owner) < std::tie(b.virt, b.owner);
  });

  // Count, then prefix-sum into the two offset arrays.
  owner_begin_.assign(nv + 1, 0);
  word_begin_.assign(nv + 1, 0);
  for (const Ref& r : refs) ++owner_begin_[r.virt + 1];
  size_t total_words = 0;
  for (uint32_t v = 0; v < nv; ++v) {
    total_words += owner_begin_[v + 1] * WordsOf(v);
    assert(total_words <= std::numeric_limits<uint32_t>::max());
    word_begin_[v + 1] = static_cast<uint32_t>(total_words);
    owner_begin_[v + 1] += owner_begin_[v];
  }
  owners_.resize(refs.size());
  words_.resize(total_words);
  uint64_t* out = words_.data();
  for (size_t k = 0; k < refs.size(); ++k) {
    assert(k == 0 || refs[k - 1].virt != refs[k].virt ||
           refs[k - 1].owner != refs[k].owner);
    owners_[k] = refs[k].owner;
    out = std::copy_n(refs[k].words, WordsOf(refs[k].virt), out);
  }
}

std::pair<size_t, bool> BitmapGraph::FindSlot(uint32_t virt,
                                              NodeId owner) const {
  const auto first = owners_.begin() + owner_begin_[virt];
  const auto last = owners_.begin() + owner_begin_[virt + 1];
  const auto it = std::lower_bound(first, last, owner);
  return {static_cast<size_t>(it - owners_.begin()),
          it != last && *it == owner};
}

const uint64_t* BitmapGraph::FindBitmap(uint32_t virt, NodeId owner) const {
  const auto [slot, found] = FindSlot(virt, owner);
  if (!found) return nullptr;
  return words_.data() + word_begin_[virt] +
         (slot - owner_begin_[virt]) * WordsOf(virt);
}

uint64_t* BitmapGraph::MutableBitmap(uint32_t virt, NodeId owner) {
  const size_t bits = OutEdges(NodeRef::Virtual(virt)).size();
  const size_t w = BitmapWords(bits);
  const auto [slot, found] = FindSlot(virt, owner);
  const size_t at = word_begin_[virt] + (slot - owner_begin_[virt]) * w;
  if (!found) {
    // O(total) per insertion, which §3.4 mutations can afford.
    InsertExact(owners_, slot, 1, owner);
    InsertExact(words_, at, w, ~uint64_t{0});
    if (bits % 64 != 0) words_[at + w - 1] = (uint64_t{1} << (bits % 64)) - 1;
    for (size_t v = virt + 1; v < owner_begin_.size(); ++v) {
      ++owner_begin_[v];
      word_begin_[v] += static_cast<uint32_t>(w);
    }
  }
  return words_.data() + at;
}

template <typename Fn>
void BitmapGraph::Traverse(NodeId u, Fn&& fn) const {
  if (!VertexExists(u)) return;
  // One out-list on the DFS path, walked from its end: `virt` is its
  // virtual node (kNoVirtual for u_s's own list). Unrestricted lists have
  // out-edges [0, pos) left; bitmapped ones have the set bits of `word`
  // (bitmap word `pos`) and of the words below it, found a word at a time.
  struct Frame {
    const NodeRef* out;
    const uint64_t* bits;
    uint32_t virt;
    size_t pos;
    uint64_t word;
  };
  std::vector<Frame> stack;
  const std::span<const NodeRef> root = OutEdges(NodeRef::Real(u));
  stack.push_back({root.data(), nullptr, kNoVirtual, root.size(), 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    size_t i;
    if (f.bits == nullptr) {
      if (f.pos == 0) {
        stack.pop_back();
        continue;
      }
      i = --f.pos;
    } else {
      while (f.word == 0 && f.pos > 0) f.word = f.bits[--f.pos];
      if (f.word == 0) {
        stack.pop_back();
        continue;
      }
      const int bit = 63 - std::countl_zero(f.word);
      f.word &= ~(uint64_t{1} << bit);
      i = f.pos * 64 + bit;
    }
    const NodeRef r = f.out[i];
    if (r.is_real()) {
      if (r.index() == u || IsDeleted(r.index())) continue;
      if (!fn(r.index(), f.virt, i)) return;
      continue;
    }
    // `f` dangles once the stack grows.
    const uint32_t v = r.index();
    const std::span<const NodeRef> vout = OutEdges(r);
    const uint64_t* bm = FindBitmap(v, u);
    stack.push_back({vout.data(), bm, v,
                     bm == nullptr ? vout.size() : BitmapWords(vout.size()),
                     0});
  }
}

void BitmapGraph::ForEachNeighbor(
    NodeId u, const std::function<void(NodeId)>& fn) const {
  Traverse(u, [&](NodeId v, uint32_t, size_t) {
    fn(v);
    return true;
  });
}

bool BitmapGraph::ExistsEdge(NodeId u, NodeId v) const {
  if (!VertexExists(u) || !VertexExists(v)) return false;
  bool found = false;
  Traverse(u, [&](NodeId w, uint32_t, size_t) {
    found = w == v;
    return !found;
  });
  return found;
}

Status BitmapGraph::DeleteEdge(NodeId u, NodeId v) {
  if (!VertexExists(u) || !VertexExists(v)) {
    return Status::InvalidArgument("DeleteEdge endpoint does not exist");
  }
  bool removed =
      EraseOutEdges(u, [v](NodeRef r) { return r == NodeRef::Real(v); }) > 0;
  // Bitmaps make logical deletion local: clear the bit of the virtual
  // out-edge through which u's walk reaches v. Repeat until no path
  // remains (there is exactly one in a deduplicated graph); MutableBitmap
  // may move the index, so every clear restarts the walk.
  while (true) {
    uint32_t via = kNoVirtual;
    size_t via_index = 0;
    Traverse(u, [&](NodeId w, uint32_t virt, size_t i) {
      if (w != v || virt == kNoVirtual) return true;
      via = virt;
      via_index = i;
      return false;
    });
    if (via == kNoVirtual) break;
    ClearBit(MutableBitmap(via, u), via_index);
    removed = true;
  }
  if (!removed) return Status::NotFound("edge does not exist");
  return Status::OK();
}

size_t BitmapGraph::BitmapMemoryBytes() const {
  return owner_begin_.capacity() * sizeof(uint32_t) +
         owners_.capacity() * sizeof(NodeId) +
         word_begin_.capacity() * sizeof(uint32_t) +
         words_.capacity() * sizeof(uint64_t);
}

}  // namespace graphgen
