#ifndef GRAPHGEN_COMMON_SIMD_H_
#define GRAPHGEN_COMMON_SIMD_H_

/// Batch kernels for the extraction hot loops.
///
/// The scan-predicate masks and the dict⋈dict probe-code translation are
/// plain scalar loops with one implementation on every build and CPU; the
/// compiler is free to vectorize them. The hash-table tag probes below use
/// SSE2, which every x86-64 CPU has, and a portable loop elsewhere.
///
/// The predicate kernels work on the scan's byte-mask representation
/// (`keep[i] &= verdict(i)` over 0/1 bytes) with the NULL-bitmap merge
/// folded in: NULL cells take the precompiled `null_match` verdict, and
/// typed arrays hold zero placeholders at NULL positions so every cell is
/// safe to read.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>  // SSE2 (baseline on x86-64) for the tag probes
#define GRAPHGEN_SIMD_X86_64 1
#endif

namespace graphgen::simd {

/// The instruction set the tag probes compile to: "sse2" on x86-64,
/// "portable" elsewhere. Fixed per build.
const char* TierName();

// -------------------------------------------- scan predicate mask kernels

/// Verdict shapes over an int64 column after the compile step reduced the
/// scalar predicate semantics (Value promotion through double for
/// ordering, exact int64 equality) to pure int64 compares:
///   kLe      x <= bound
///   kGe      x >= bound
///   kEq      x == eq
///   kNe      x != eq
///   kLeOrEq  x <= bound || x == eq   (<= with a representability gap)
///   kGeOrEq  x >= bound || x == eq
enum class I64MaskOp : uint8_t { kLe, kGe, kEq, kNe, kLeOrEq, kGeOrEq };

/// Verdict shapes over a double column; IEEE-ordered except kNe, which is
/// true for NaN cells (scalar `!(x == c)`).
enum class F64MaskOp : uint8_t { kLt, kLe, kGt, kGe, kEq, kNe };

/// keep[i] &= verdict(data[i]) over [0, n), honoring `nulls` (NULL cells
/// verdict `null_match`; nulls may be nullptr).
void AndMaskI64(I64MaskOp op, const int64_t* data, int64_t bound, int64_t eq,
                const uint8_t* nulls, bool null_match, uint8_t* keep, size_t n);

/// keep[i] &= verdict(data[i]) for double columns.
void AndMaskF64(F64MaskOp op, const double* data, double bound,
                const uint8_t* nulls, bool null_match, uint8_t* keep, size_t n);

/// keep[i] &= table[codes[i]] for dictionary columns, honoring nulls the
/// same way (NULL placeholders store code 0, so the lookup is always
/// safe). `table` holds one 0/1 verdict per dictionary code.
void AndMaskCodes(const uint32_t* codes, const uint32_t* table,
                  const uint8_t* nulls, bool null_match, uint8_t* keep,
                  size_t n);

// --------------------------------------- join probe-code translation

/// Batched probe-side dictionary-code translation for dict⋈dict hash
/// joins: for each probe row i in [0, n),
///   id   = tuples[i * stride + slot]       (the row's base-table row id)
///   code = codes[id]
///   out[i] = nulls-or-missing ? -1 : trans[code]
/// `trans` maps probe codes to build codes (-1 = absent from the build
/// dictionary); rows with a NULL mask entry take -1 exactly like the
/// per-row key extractor.
void TranslateCodes(const uint32_t* tuples, size_t stride, size_t slot,
                    const uint32_t* codes, const int32_t* trans,
                    const uint8_t* nulls, int32_t* out, size_t n);

// --------------------------------- predicate threshold precomputation

/// Largest int64 x with (double)x < bound, or nullopt when none exists
/// (bound <= -2^63 or NaN). int64→double conversion is monotone, so
/// `(double)x < bound` is exactly `x <= *MaxInt64WithDoubleLess(bound)`.
inline std::optional<int64_t> MaxInt64WithDoubleLess(double bound) {
  if (std::isnan(bound)) return std::nullopt;
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  if (!(static_cast<double>(lo) < bound)) return std::nullopt;
  if (static_cast<double>(hi) < bound) return hi;
  // Invariant: predicate(lo) true, predicate(hi) false.
  while (hi - 1 > lo) {
    const int64_t mid = lo + static_cast<int64_t>(
        (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)) / 2);
    if (static_cast<double>(mid) < bound) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Smallest int64 x with (double)x > bound, or nullopt when none exists.
/// `(double)x > bound` is exactly `x >= *MinInt64WithDoubleGreater(bound)`.
inline std::optional<int64_t> MinInt64WithDoubleGreater(double bound) {
  if (std::isnan(bound)) return std::nullopt;
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  if (!(static_cast<double>(hi) > bound)) return std::nullopt;
  if (static_cast<double>(lo) > bound) return lo;
  // Invariant: predicate(lo) false, predicate(hi) true.
  while (hi - 1 > lo) {
    const int64_t mid = lo + static_cast<int64_t>(
        (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)) / 2);
    if (static_cast<double>(mid) > bound) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

// ------------------------------------------------- hash-table tag groups

/// One-byte tags for SIMD group probing of the flat open-addressing hash
/// tables: each slot carries 7 bits of its key's hash (distinct from the
/// empty marker), and a probe compares 16 tags per step with one SSE2
/// compare+movemask instead of walking slots one at a time. SSE2 is
/// baseline on x86-64, and other targets compile the portable loop.
inline constexpr uint8_t kTagEmpty = 0xff;
inline constexpr size_t kTagGroupWidth = 16;

/// 7-bit tag of a hash (top bits — the slot index uses the low bits).
inline uint8_t TagOfHash(uint64_t h) {
  return static_cast<uint8_t>(h >> 57);
}

/// Bit i set iff tags[i] == tag, for i in [0, 16). `tags` need not be
/// aligned but must have 16 readable bytes.
inline uint32_t TagMatch16(const uint8_t* tags, uint8_t tag) {
#ifdef GRAPHGEN_SIMD_X86_64
  const __m128i group =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));
  const __m128i needle = _mm_set1_epi8(static_cast<char>(tag));
  return static_cast<uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(group, needle)));
#else
  uint32_t bits = 0;
  for (size_t i = 0; i < kTagGroupWidth; ++i) {
    bits |= static_cast<uint32_t>(tags[i] == tag) << i;
  }
  return bits;
#endif
}

/// Bit i set iff tags[i] == kTagEmpty.
inline uint32_t TagEmpty16(const uint8_t* tags) {
  return TagMatch16(tags, kTagEmpty);
}

}  // namespace graphgen::simd

#endif  // GRAPHGEN_COMMON_SIMD_H_
