#ifndef GRAPHGEN_ALGOS_INTERSECT_H_
#define GRAPHGEN_ALGOS_INTERSECT_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/node_ref.h"

namespace graphgen::detail {

/// Size ratio (|long| / |short|) at which the sorted-set intersections
/// switch from linear merge to galloping. Measured with
/// `bench_kernels --gallop` (crossover sweep over skew ratios at
/// short=256): the streaming merge stays ahead of per-element binary
/// search until surprisingly deep skew — gallop/merge is still 1.25 at
/// 32x and only crosses under 1.0 between 32x and 64x (0.87 at 64x,
/// 0.42 at 128x) — so the old hardcoded 32 was switching a full bracket
/// too early. 48 sits on the measured crossover.
inline constexpr size_t kGallopRatio = 48;

/// Calls fn(x) for every x in a ∩ b (sorted duplicate-free spans), in
/// ascending order. Linear merge with a bounds pre-check, switching to
/// galloping when one side is kGallopRatio times longer: each short-side
/// element is binary-searched in the long side's remaining suffix — the
/// skew case that dominates on power-law degree distributions (cf. the
/// merge/gallop hybrid in standard triangle-count kernels).
template <typename Fn>
inline void IntersectSortedForEach(std::span<const NodeId> a,
                                   std::span<const NodeId> b, Fn&& fn) {
  if (a.empty() || b.empty()) return;
  if (a.back() < b.front() || b.back() < a.front()) return;
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() >= kGallopRatio * a.size()) {
    const NodeId* lo = b.data();
    const NodeId* end = b.data() + b.size();
    for (NodeId x : a) {
      lo = std::lower_bound(lo, end, x);
      if (lo == end) break;
      if (*lo == x) {
        fn(x);
        ++lo;
      }
    }
    return;
  }
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      fn(a[i]);
      ++i;
      ++j;
    }
  }
}

// ------------------------------------------- bitmap-assisted intersection

/// Degree threshold at which triangle/clustering roots switch from
/// per-neighbor sorted-list intersections to the bitmap path below:
/// flag the root's out-neighborhood once, then close every wedge with a
/// single bit test. Below this the set/clear passes cost more than the
/// handful of merges they replace.
inline constexpr size_t kBitmapMinDegree = 16;

/// Word-packed membership bitmap over a rank universe [0, n), reused by a
/// worker thread across many roots: `Set` the root's neighborhood, run
/// any number of `Test`-side intersections against it, then `Clear` the
/// same list — O(degree) per root, never O(n), and 8x denser than a byte
/// mark array so high-degree neighborhoods stay cache-resident.
class NeighborBitmap {
 public:
  explicit NeighborBitmap(size_t universe) : words_((universe + 63) / 64, 0) {}

  void Set(NodeId x) {
    words_[static_cast<size_t>(x) >> 6] |= uint64_t{1} << (x & 63);
  }
  bool Test(NodeId x) const {
    return ((words_[static_cast<size_t>(x) >> 6] >> (x & 63)) & 1) != 0;
  }
  /// Clears exactly the bits previously Set from `list`.
  void Clear(std::span<const NodeId> list) {
    for (NodeId x : list) {
      words_[static_cast<size_t>(x) >> 6] &= ~(uint64_t{1} << (x & 63));
    }
  }

 private:
  std::vector<uint64_t> words_;
};

/// |A ∩ b| where A is the set currently flagged in `bm`. Branch-free:
/// every element of b costs one load/shift/mask regardless of hit rate.
inline uint64_t IntersectBitmapCount(const NeighborBitmap& bm,
                                     std::span<const NodeId> b) {
  uint64_t count = 0;
  for (NodeId x : b) count += static_cast<uint64_t>(bm.Test(x));
  return count;
}

/// Calls fn(x) for every x in b with bm.Test(x), in b's (sorted) order —
/// the same elements in the same order as the sorted-list intersections,
/// so the two paths are interchangeable bit for bit.
template <typename Fn>
inline void IntersectBitmapForEach(const NeighborBitmap& bm,
                                   std::span<const NodeId> b, Fn&& fn) {
  for (NodeId x : b) {
    if (bm.Test(x)) fn(x);
  }
}

}  // namespace graphgen::detail

#endif  // GRAPHGEN_ALGOS_INTERSECT_H_
