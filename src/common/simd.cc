#include "common/simd.h"

namespace graphgen::simd {
namespace {

// ------------------------------------------------------------ mask loops

// Applies `keep[i] &= verdict(i)` over [0, n) with the NULL-bitmap merge:
// NULL cells take the precompiled null verdict instead of the cell's.
template <typename Verdict>
void AndMaskLoop(Verdict verdict, const uint8_t* nulls, bool null_match,
                 uint8_t* keep, size_t n) {
  if (nulls == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      keep[i] = static_cast<uint8_t>(keep[i] & verdict(i));
    }
    return;
  }
  const uint8_t nm = null_match ? 1 : 0;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t nn = static_cast<uint8_t>(nulls[i] != 0);
    keep[i] = static_cast<uint8_t>(
        keep[i] & ((nn & nm) | (static_cast<uint8_t>(nn ^ 1) & verdict(i))));
  }
}

}  // namespace

const char* TierName() {
#ifdef GRAPHGEN_SIMD_X86_64
  return "sse2";
#else
  return "portable";
#endif
}

void AndMaskI64(I64MaskOp op, const int64_t* data, int64_t bound, int64_t eq,
                const uint8_t* nulls, bool null_match, uint8_t* keep, size_t n) {
  switch (op) {
    case I64MaskOp::kLe:
      AndMaskLoop(
          [&](size_t i) { return static_cast<uint8_t>(data[i] <= bound); },
          nulls, null_match, keep, n);
      break;
    case I64MaskOp::kGe:
      AndMaskLoop(
          [&](size_t i) { return static_cast<uint8_t>(data[i] >= bound); },
          nulls, null_match, keep, n);
      break;
    case I64MaskOp::kEq:
      AndMaskLoop([&](size_t i) { return static_cast<uint8_t>(data[i] == eq); },
                  nulls, null_match, keep, n);
      break;
    case I64MaskOp::kNe:
      AndMaskLoop([&](size_t i) { return static_cast<uint8_t>(data[i] != eq); },
                  nulls, null_match, keep, n);
      break;
    case I64MaskOp::kLeOrEq:
      AndMaskLoop(
          [&](size_t i) {
            return static_cast<uint8_t>(data[i] <= bound || data[i] == eq);
          },
          nulls, null_match, keep, n);
      break;
    case I64MaskOp::kGeOrEq:
      AndMaskLoop(
          [&](size_t i) {
            return static_cast<uint8_t>(data[i] >= bound || data[i] == eq);
          },
          nulls, null_match, keep, n);
      break;
  }
}

void AndMaskF64(F64MaskOp op, const double* data, double bound,
                const uint8_t* nulls, bool null_match, uint8_t* keep, size_t n) {
  switch (op) {
    case F64MaskOp::kLt:
      AndMaskLoop(
          [&](size_t i) { return static_cast<uint8_t>(data[i] < bound); },
          nulls, null_match, keep, n);
      break;
    case F64MaskOp::kLe:
      AndMaskLoop(
          [&](size_t i) { return static_cast<uint8_t>(data[i] <= bound); },
          nulls, null_match, keep, n);
      break;
    case F64MaskOp::kGt:
      AndMaskLoop(
          [&](size_t i) { return static_cast<uint8_t>(data[i] > bound); },
          nulls, null_match, keep, n);
      break;
    case F64MaskOp::kGe:
      AndMaskLoop(
          [&](size_t i) { return static_cast<uint8_t>(data[i] >= bound); },
          nulls, null_match, keep, n);
      break;
    case F64MaskOp::kEq:
      AndMaskLoop(
          [&](size_t i) { return static_cast<uint8_t>(data[i] == bound); },
          nulls, null_match, keep, n);
      break;
    case F64MaskOp::kNe:
      AndMaskLoop(
          [&](size_t i) { return static_cast<uint8_t>(!(data[i] == bound)); },
          nulls, null_match, keep, n);
      break;
  }
}

void AndMaskCodes(const uint32_t* codes, const uint32_t* table,
                  const uint8_t* nulls, bool null_match, uint8_t* keep,
                  size_t n) {
  AndMaskLoop(
      [&](size_t i) { return static_cast<uint8_t>(table[codes[i]] != 0); },
      nulls, null_match, keep, n);
}

void TranslateCodes(const uint32_t* tuples, size_t stride, size_t slot,
                    const uint32_t* codes, const int32_t* trans,
                    const uint8_t* nulls, int32_t* out, size_t n) {
  if (nulls == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = trans[codes[tuples[i * stride + slot]]];
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t id = tuples[i * stride + slot];
    out[i] = nulls[id] != 0 ? -1 : trans[codes[id]];
  }
}

}  // namespace graphgen::simd
