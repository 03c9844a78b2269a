// Kernel checks for common/simd.h: every scan-mask and translation kernel
// must match an independent straight-line reference byte for byte on
// arbitrary inputs. Inputs sweep predicate ops, NULL densities, NaN and
// signed zeros and infinities, dictionary cardinalities, strides,
// unaligned base pointers, and every short length from 0 to 40.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"

namespace graphgen::simd {
namespace {

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

// Lengths that cover empty, short, and 16/32-element boundaries.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 40};
// Misalignment of the base pointers relative to the allocation.
const size_t kOffsets[] = {0, 1, 3};
const double kNullRates[] = {0.0, 0.1, 0.5, 1.0};

std::vector<uint8_t> RandomKeep(Rng& rng, size_t n, size_t pad) {
  std::vector<uint8_t> keep(n + pad);
  for (auto& k : keep) k = static_cast<uint8_t>(rng.NextBounded(2));
  return keep;
}

std::vector<uint8_t> RandomNulls(Rng& rng, size_t n, size_t pad, double rate) {
  std::vector<uint8_t> nulls(n + pad, 0);
  for (auto& v : nulls) v = static_cast<uint8_t>(rng.NextBool(rate));
  return nulls;
}

// Values concentrated around the bound so compares flip frequently, with
// the extremes mixed in.
int64_t InterestingI64(Rng& rng, int64_t center) {
  switch (rng.NextBounded(8)) {
    case 0:
      return kI64Min;
    case 1:
      return kI64Max;
    case 2:
      return center;
    default:
      return center + rng.NextInt(-4, 4);
  }
}

double InterestingF64(Rng& rng, double center) {
  switch (rng.NextBounded(10)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return std::numeric_limits<double>::infinity();
    case 2:
      return -std::numeric_limits<double>::infinity();
    case 3:
      return 0.0;
    case 4:
      return -0.0;
    case 5:
      return center;
    default:
      return center + static_cast<double>(rng.NextInt(-4, 4)) * 0.5;
  }
}

TEST(SimdTierTest, TierNameIsFixedPerBuild) {
#ifdef GRAPHGEN_SIMD_X86_64
  EXPECT_STREQ(TierName(), "sse2");
#else
  EXPECT_STREQ(TierName(), "portable");
#endif
}

TEST(SimdThresholdTest, MaxInt64WithDoubleLess) {
  EXPECT_FALSE(MaxInt64WithDoubleLess(std::nan("")).has_value());
  EXPECT_FALSE(MaxInt64WithDoubleLess(-1e300).has_value());
  EXPECT_FALSE(
      MaxInt64WithDoubleLess(static_cast<double>(kI64Min)).has_value());
  EXPECT_EQ(MaxInt64WithDoubleLess(1e300), kI64Max);
  EXPECT_EQ(MaxInt64WithDoubleLess(0.5), 0);
  EXPECT_EQ(MaxInt64WithDoubleLess(0.0), -1);
  EXPECT_EQ(MaxInt64WithDoubleLess(-0.5), -1);
  Rng rng(0xbeef);
  for (int trial = 0; trial < 2000; ++trial) {
    // Magnitudes across all scales: a signed sample arithmetic-shifted
    // by a random amount (C++20 defines signed >> as arithmetic).
    double b;
    if (trial % 3 == 0) {
      b = static_cast<double>(static_cast<int64_t>(rng.Next()) >>
                              rng.NextBounded(63));
    } else {
      b = static_cast<double>(static_cast<int64_t>(rng.Next())) *
          rng.NextDouble();
    }
    const auto x = MaxInt64WithDoubleLess(b);
    if (!x.has_value()) {
      EXPECT_FALSE(static_cast<double>(kI64Min) < b) << "bound " << b;
      continue;
    }
    EXPECT_LT(static_cast<double>(*x), b) << "bound " << b;
    if (*x < kI64Max) {
      EXPECT_FALSE(static_cast<double>(*x + 1) < b) << "bound " << b;
    }
  }
}

TEST(SimdThresholdTest, MinInt64WithDoubleGreater) {
  EXPECT_FALSE(MinInt64WithDoubleGreater(std::nan("")).has_value());
  EXPECT_FALSE(MinInt64WithDoubleGreater(1e300).has_value());
  EXPECT_EQ(MinInt64WithDoubleGreater(-1e300), kI64Min);
  EXPECT_EQ(MinInt64WithDoubleGreater(0.5), 1);
  EXPECT_EQ(MinInt64WithDoubleGreater(0.0), 1);
  EXPECT_EQ(MinInt64WithDoubleGreater(-0.5), 0);
  Rng rng(0xf00d);
  for (int trial = 0; trial < 2000; ++trial) {
    // Magnitudes across all scales: a signed sample arithmetic-shifted
    // by a random amount (C++20 defines signed >> as arithmetic).
    double b;
    if (trial % 3 == 0) {
      b = static_cast<double>(static_cast<int64_t>(rng.Next()) >>
                              rng.NextBounded(63));
    } else {
      b = static_cast<double>(static_cast<int64_t>(rng.Next())) *
          rng.NextDouble();
    }
    const auto x = MinInt64WithDoubleGreater(b);
    if (!x.has_value()) {
      EXPECT_FALSE(static_cast<double>(kI64Max) > b) << "bound " << b;
      continue;
    }
    EXPECT_GT(static_cast<double>(*x), b) << "bound " << b;
    if (*x > kI64Min) {
      EXPECT_FALSE(static_cast<double>(*x - 1) > b) << "bound " << b;
    }
  }
}

TEST(SimdMaskTest, AndMaskI64MatchesReference) {
  Rng rng(1);
  const I64MaskOp ops[] = {I64MaskOp::kLe,     I64MaskOp::kGe,
                           I64MaskOp::kEq,     I64MaskOp::kNe,
                           I64MaskOp::kLeOrEq, I64MaskOp::kGeOrEq};
  for (const I64MaskOp op : ops) {
    for (const double null_rate : kNullRates) {
      for (const size_t n : kLengths) {
        for (const size_t off : kOffsets) {
          const int64_t bound = rng.NextInt(-100, 100);
          const int64_t eq = rng.NextInt(-100, 100);
          std::vector<int64_t> data(n + off);
          for (auto& d : data) d = InterestingI64(rng, bound);
          const bool use_nulls = null_rate > 0.0 || rng.NextBool(0.5);
          std::vector<uint8_t> nulls = RandomNulls(rng, n, off, null_rate);
          const bool null_match = rng.NextBool(0.5);
          std::vector<uint8_t> keep = RandomKeep(rng, n, off);

          // Independent reference.
          std::vector<uint8_t> want = keep;
          for (size_t i = 0; i < n; ++i) {
            const int64_t x = data[off + i];
            uint8_t v = 0;
            switch (op) {
              case I64MaskOp::kLe:
                v = x <= bound;
                break;
              case I64MaskOp::kGe:
                v = x >= bound;
                break;
              case I64MaskOp::kEq:
                v = x == eq;
                break;
              case I64MaskOp::kNe:
                v = x != eq;
                break;
              case I64MaskOp::kLeOrEq:
                v = x <= bound || x == eq;
                break;
              case I64MaskOp::kGeOrEq:
                v = x >= bound || x == eq;
                break;
            }
            if (use_nulls && nulls[off + i] != 0) v = null_match ? 1 : 0;
            want[off + i] &= v;
          }

          const uint8_t* np = use_nulls ? nulls.data() + off : nullptr;
          AndMaskI64(op, data.data() + off, bound, eq, np, null_match,
                     keep.data() + off, n);
          ASSERT_EQ(keep, want)
              << "op=" << static_cast<int>(op) << " n=" << n << " off=" << off;
        }
      }
    }
  }
}

TEST(SimdMaskTest, AndMaskF64MatchesReference) {
  Rng rng(2);
  const F64MaskOp ops[] = {F64MaskOp::kLt, F64MaskOp::kLe, F64MaskOp::kGt,
                           F64MaskOp::kGe, F64MaskOp::kEq, F64MaskOp::kNe};
  for (const F64MaskOp op : ops) {
    for (const double null_rate : kNullRates) {
      for (const size_t n : kLengths) {
        for (const size_t off : kOffsets) {
          double bound = static_cast<double>(rng.NextInt(-50, 50)) * 0.5;
          if (rng.NextBool(0.05)) bound = std::nan("");
          std::vector<double> data(n + off);
          for (auto& d : data) d = InterestingF64(rng, bound);
          const bool use_nulls = null_rate > 0.0 || rng.NextBool(0.5);
          std::vector<uint8_t> nulls = RandomNulls(rng, n, off, null_rate);
          const bool null_match = rng.NextBool(0.5);
          std::vector<uint8_t> keep = RandomKeep(rng, n, off);

          std::vector<uint8_t> want = keep;
          for (size_t i = 0; i < n; ++i) {
            const double x = data[off + i];
            uint8_t v = 0;
            switch (op) {
              case F64MaskOp::kLt:
                v = x < bound;
                break;
              case F64MaskOp::kLe:
                v = x <= bound;
                break;
              case F64MaskOp::kGt:
                v = x > bound;
                break;
              case F64MaskOp::kGe:
                v = x >= bound;
                break;
              case F64MaskOp::kEq:
                v = x == bound;
                break;
              case F64MaskOp::kNe:
                v = !(x == bound);
                break;
            }
            if (use_nulls && nulls[off + i] != 0) v = null_match ? 1 : 0;
            want[off + i] &= v;
          }

          const uint8_t* np = use_nulls ? nulls.data() + off : nullptr;
          AndMaskF64(op, data.data() + off, bound, np, null_match,
                     keep.data() + off, n);
          ASSERT_EQ(keep, want)
              << "op=" << static_cast<int>(op) << " n=" << n << " off=" << off;
        }
      }
    }
  }
}

TEST(SimdMaskTest, AndMaskCodesMatchesReferenceAcrossCardinalities) {
  Rng rng(3);
  const size_t cardinalities[] = {1, 2, 17, 300, 70000};
  for (const size_t card : cardinalities) {
    std::vector<uint32_t> table(card);
    for (auto& t : table) t = static_cast<uint32_t>(rng.NextBool(0.4));
    for (const double null_rate : kNullRates) {
      for (const size_t n : kLengths) {
        for (const size_t off : kOffsets) {
          std::vector<uint32_t> codes(n + off);
          for (auto& c : codes) {
            c = static_cast<uint32_t>(rng.NextBounded(card));
          }
          const bool use_nulls = null_rate > 0.0 || rng.NextBool(0.5);
          std::vector<uint8_t> nulls = RandomNulls(rng, n, off, null_rate);
          const bool null_match = rng.NextBool(0.5);
          std::vector<uint8_t> keep = RandomKeep(rng, n, off);

          std::vector<uint8_t> want = keep;
          for (size_t i = 0; i < n; ++i) {
            uint8_t v = table[codes[off + i]] != 0;
            if (use_nulls && nulls[off + i] != 0) v = null_match ? 1 : 0;
            want[off + i] &= v;
          }

          const uint8_t* np = use_nulls ? nulls.data() + off : nullptr;
          AndMaskCodes(codes.data() + off, table.data(), np, null_match,
                       keep.data() + off, n);
          ASSERT_EQ(keep, want) << "card=" << card << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdTranslateTest, TranslateCodesMatchesReference) {
  Rng rng(4);
  const size_t strides[] = {1, 2, 3, 5};
  const size_t cardinalities[] = {1, 9, 1000};
  for (const size_t stride : strides) {
    for (const size_t card : cardinalities) {
      for (const bool with_nulls : {false, true}) {
        for (const size_t n : kLengths) {
          const size_t slot = rng.NextBounded(stride);
          const size_t rows = 10 + rng.NextBounded(500);
          std::vector<uint32_t> tuples(n * stride);
          for (auto& t : tuples) {
            t = static_cast<uint32_t>(rng.NextBounded(rows));
          }
          std::vector<uint32_t> codes(rows);
          for (auto& c : codes) {
            c = static_cast<uint32_t>(rng.NextBounded(card));
          }
          std::vector<uint8_t> nulls(rows);
          for (auto& v : nulls) v = static_cast<uint8_t>(rng.NextBool(0.2));
          std::vector<int32_t> trans(card);
          for (size_t c = 0; c < card; ++c) {
            trans[c] = rng.NextBool(0.3)
                           ? -1
                           : static_cast<int32_t>(rng.NextBounded(card));
          }

          std::vector<int32_t> want(n);
          for (size_t i = 0; i < n; ++i) {
            const uint32_t id = tuples[i * stride + slot];
            want[i] = (with_nulls && nulls[id] != 0) ? -1 : trans[codes[id]];
          }

          const uint8_t* np = with_nulls ? nulls.data() : nullptr;
          std::vector<int32_t> out(n, 42);
          TranslateCodes(tuples.data(), stride, slot, codes.data(),
                         trans.data(), np, out.data(), n);
          ASSERT_EQ(out, want)
              << "stride=" << stride << " card=" << card << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdTagTest, TagHelpersMatchScalarDefinition) {
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    uint8_t tags[kTagGroupWidth];
    for (auto& t : tags) {
      t = rng.NextBool(0.3) ? kTagEmpty
                            : static_cast<uint8_t>(rng.NextBounded(128));
    }
    const uint8_t needle = rng.NextBool(0.5)
                               ? tags[rng.NextBounded(kTagGroupWidth)]
                               : static_cast<uint8_t>(rng.NextBounded(128));
    uint32_t want_match = 0;
    uint32_t want_empty = 0;
    for (size_t i = 0; i < kTagGroupWidth; ++i) {
      want_match |= static_cast<uint32_t>(tags[i] == needle) << i;
      want_empty |= static_cast<uint32_t>(tags[i] == kTagEmpty) << i;
    }
    EXPECT_EQ(TagMatch16(tags, needle), want_match);
    EXPECT_EQ(TagEmpty16(tags), want_empty);
  }
  // Hash tags never collide with the empty marker.
  for (int trial = 0; trial < 1000; ++trial) {
    EXPECT_LT(TagOfHash(rng.Next()), 128);
  }
}

}  // namespace
}  // namespace graphgen::simd
