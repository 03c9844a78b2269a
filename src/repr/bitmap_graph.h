#ifndef GRAPHGEN_REPR_BITMAP_GRAPH_H_
#define GRAPHGEN_REPR_BITMAP_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "repr/condensed_graph.h"

namespace graphgen {

/// Number of 64-bit words a bitmap over `bits` out-edges occupies.
inline size_t BitmapWords(size_t bits) { return (bits + 63) / 64; }
inline bool TestBit(const uint64_t* words, size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1u;
}
inline void SetBit(uint64_t* words, size_t i) {
  words[i >> 6] |= uint64_t{1} << (i & 63);
}

/// One preprocessing worker's output: (virtual node, owner, words)
/// records in emission order. BitmapGraph's constructor sorts the records
/// of every arena by (virtual node, owner) into its flat index, so the
/// index does not depend on how sources were split across workers.
class BitmapArena {
 public:
  /// Appends the bitmap of `owner` at virtual node `virt`.
  void Add(uint32_t virt, NodeId owner, std::span<const uint64_t> words) {
    records_.push_back({virt, owner, words_.size()});
    words_.insert(words_.end(), words.begin(), words.end());
  }

 private:
  friend class BitmapGraph;
  struct Record {
    uint32_t virt;
    NodeId owner;
    size_t offset;
  };
  std::vector<Record> records_;
  std::vector<uint64_t> words_;
};

/// BITMAP: the condensed structure of C-DUP augmented with per-virtual-node
/// bitmaps (§4.3). A virtual node V may hold a bitmap for a source real
/// node u, sized |out(V)|; during a traversal that started at u_s, bit i
/// tells whether out-edge i of V may be followed. The bitmaps are set by
/// the BITMAP-1 / BITMAP-2 preprocessing algorithms (§5.1) so that every
/// real target is reached exactly once — getNeighbors needs no hash set.
///
/// The bitmaps live in one flat, CSR-shaped index. owners_[owner_begin_[v]
/// .. owner_begin_[v+1]) are v's bitmap owners, sorted; the bitmap of
/// owner slot k starts at words_[word_begin_[v] + k·W(v)], where
/// W(v) = BitmapWords(|out(v)|). Bits at or past |out(v)| are zero. The
/// offsets are 32-bit, so an index holds fewer than 2^32 words (32 GiB).
/// Virtual out-lists never change after construction (CondensedGraph
/// keeps them immutable), so W(v) always matches.
///
/// A (u, V) pair with no bitmap is traversed unrestricted: BITMAP-2 drops
/// all-ones bitmaps, and edges added after preprocessing have none.
///
/// getNeighbors, ExistsEdge and DeleteEdge share one walk (Traverse): a
/// stack of (out-list, bitmap, cursor) frames that visits each list's
/// permitted out-edges from last to first, finding set bits a word at a
/// time, depth first. That is the order of a DFS that pushes every
/// permitted out-edge and pops the last, so neighbor sequences (and the
/// sums of kernels that follow them) match that simpler walk, which
/// tests/test_util.h keeps as the reference. The walk keeps its stack
/// locally, so a callback may start another walk.
class BitmapGraph : public CondensedGraph {
 public:
  /// Takes `storage` as final and builds the flat index from the records
  /// of `arenas`; at most one record per (virtual node, owner), each
  /// W(v) words long.
  explicit BitmapGraph(CondensedStorage storage,
                       const std::vector<BitmapArena>& arenas = {});

  std::string_view Name() const override { return "BITMAP"; }

  void ForEachNeighbor(NodeId u,
                       const std::function<void(NodeId)>& fn) const override;

  bool ExistsEdge(NodeId u, NodeId v) const override;
  /// Clears the bit that lets u's walk reach v instead of detaching u_s.
  Status DeleteEdge(NodeId u, NodeId v) override;

  /// Aggregated sums and mins (CondensedGraph::PrepareReduction); a
  /// source reads only the permitted bits where it has a bitmap.
  std::unique_ptr<NeighborReduction> PrepareReduction(
      size_t threads = 0) const override {
    return MakeReduction(threads, true, this);
  }

  GraphFootprint MemoryFootprint() const override {
    GraphFootprint footprint = CondensedGraph::MemoryFootprint();
    footprint.aux_bytes = BitmapMemoryBytes();
    return footprint;
  }

  /// Heap held by the flat bitmap index (capacity of its four arrays) —
  /// the overhead the paper flags as this representation's main drawback.
  size_t BitmapMemoryBytes() const;
  /// Number of (source, virtual-node) bitmaps installed.
  size_t NumBitmaps() const { return owners_.size(); }

  /// The W(v) words of `owner`'s bitmap at virtual node `virt`, or null
  /// when it has none (traverse every out-edge).
  const uint64_t* FindBitmap(uint32_t virt, NodeId owner) const;
  /// Owner slot of `owner` at `virt`: its position in owners() and
  /// whether it is present.
  std::pair<size_t, bool> FindSlot(uint32_t virt, NodeId owner) const;
  /// The W(v) words of owner slot `slot`, which must be one of `virt`'s.
  const uint64_t* SlotBitmap(uint32_t virt, size_t slot) const {
    return words_.data() + word_begin_[virt] +
           (slot - owner_begin_[virt]) * WordsOf(virt);
  }

  /// The flat index, read-only.
  const std::vector<uint32_t>& owner_begin() const { return owner_begin_; }
  const std::vector<NodeId>& owners() const { return owners_; }
  const std::vector<uint32_t>& word_begin() const { return word_begin_; }
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  static constexpr uint32_t kNoVirtual = 0xFFFFFFFFu;
  // Walks u_s's paths honoring its bitmaps and calls
  // fn(target, via_virtual, via_index) for every live real target other
  // than u, until fn returns false. via_index is the target's position in
  // the out-list of virtual node via_virtual, which is kNoVirtual for a
  // direct edge.
  template <typename Fn>
  void Traverse(NodeId u, Fn&& fn) const;
  size_t WordsOf(uint32_t virt) const {
    return BitmapWords(OutEdges(NodeRef::Virtual(virt)).size());
  }
  // The bitmap of `owner` at `virt`, inserting an all-ones one first if it
  // has none.
  uint64_t* MutableBitmap(uint32_t virt, NodeId owner);

  std::vector<uint32_t> owner_begin_;
  std::vector<NodeId> owners_;
  std::vector<uint32_t> word_begin_;
  std::vector<uint64_t> words_;
};

}  // namespace graphgen

#endif  // GRAPHGEN_REPR_BITMAP_GRAPH_H_
