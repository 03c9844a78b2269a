#ifndef GRAPHGEN_COMMON_MARK_SET_H_
#define GRAPHGEN_COMMON_MARK_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace graphgen {

/// A set over the indices [0, size()) with an O(1) Clear(): index i is
/// marked iff its stamp equals the current epoch, so Clear() bumps the
/// epoch instead of touching the array. When the epoch wraps around, the
/// array is zeroed once and the epoch restarts at 1 (stamp 0 is never an
/// epoch, so fresh slots are unmarked).
///
/// The dedup walks keep one per worker and clear it once per source
/// vertex; a hash set would pay for its buckets on every clear and for a
/// hash on every probe. It answers membership only: nothing can iterate
/// it, so results never depend on its layout. Not thread-safe.
template <typename Stamp>
class BasicMarkSet {
  static_assert(std::numeric_limits<Stamp>::is_integer &&
                !std::numeric_limits<Stamp>::is_signed);

 public:
  BasicMarkSet() = default;
  explicit BasicMarkSet(size_t n) : stamps_(n, 0) {}

  [[nodiscard]] size_t size() const { return stamps_.size(); }

  /// Grows the index space to at least n; new indices are unmarked and
  /// existing marks are kept.
  void Grow(size_t n) {
    if (n > stamps_.size()) stamps_.resize(n, 0);
  }

  /// Unmarks every index.
  void Clear() {
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), Stamp{0});
      epoch_ = 1;
    }
  }

  /// Marks i; returns true iff it was not marked before.
  bool Insert(size_t i) {
    if (stamps_[i] == epoch_) return false;
    stamps_[i] = epoch_;
    return true;
  }

  [[nodiscard]] bool Contains(size_t i) const { return stamps_[i] == epoch_; }

 private:
  std::vector<Stamp> stamps_;
  Stamp epoch_ = 1;
};

using MarkSet = BasicMarkSet<uint32_t>;

/// A cleared MarkSet of at least n indices, borrowed from the calling
/// thread's pool for the lease's lifetime, for walks that cannot own one
/// (a Graph's const neighbor iteration). Leases nest: a callback that
/// starts another walk on the same thread borrows a different set, so the
/// outer walk's marks survive. The pool keeps one set per nesting depth
/// reached, each as large as its largest request, until the thread exits.
class MarkSetLease {
 public:
  explicit MarkSetLease(size_t n);
  ~MarkSetLease();
  MarkSetLease(const MarkSetLease&) = delete;
  MarkSetLease& operator=(const MarkSetLease&) = delete;

  MarkSet& operator*() const { return *set_; }
  MarkSet* operator->() const { return set_; }

 private:
  MarkSet* set_;
};

}  // namespace graphgen

#endif  // GRAPHGEN_COMMON_MARK_SET_H_
