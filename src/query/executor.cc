#include "query/executor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>

#include <bit>

#include "common/cancel.h"
#include "common/faultpoints.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "obs/metrics.h"

namespace graphgen::query {

namespace {

// Engine-level counters in the global registry. Pointers are resolved
// once (registry lookups take a lock; Add() does not) and shared by every
// Executor instance.
struct ExecMetrics {
  obs::Counter* scan_rows_in;
  obs::Counter* scan_rows_out;
  obs::Counter* join_build_rows;
  obs::Counter* join_probe_rows;
  obs::Counter* join_matches;
  obs::Counter* distinct_rows_in;
  obs::Counter* distinct_rows_out;
  obs::Counter* fused_pipelines;
  obs::Counter* unfused_pipelines;
};

const ExecMetrics& Metrics() {
  static const ExecMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    ExecMetrics em;
    em.scan_rows_in = r.GetCounter("query.scan.rows_in");
    em.scan_rows_out = r.GetCounter("query.scan.rows_out");
    em.join_build_rows = r.GetCounter("query.join.build_rows");
    em.join_probe_rows = r.GetCounter("query.join.probe_rows");
    em.join_matches = r.GetCounter("query.join.matches");
    em.distinct_rows_in = r.GetCounter("query.distinct.rows_in");
    em.distinct_rows_out = r.GetCounter("query.distinct.rows_out");
    em.fused_pipelines = r.GetCounter("query.fused_pipelines");
    em.unfused_pipelines = r.GetCounter("query.unfused_pipelines");
    return em;
  }();
  return m;
}

// True when the request context can actually fail a poll (a live cancel
// flag or a deadline); an inert context skips the strided polling paths
// entirely, so the no-deadline fast path stays at seed cost.
bool NeedsPoll(const ExecContext& ctx) {
  return ctx.cancel.cancellable() || ctx.has_deadline;
}

// Runs body(begin, end) over [begin, end) in kCancelStrideRows blocks,
// polling the context between blocks; the first failure parks its Status
// in the slot and the remaining blocks are skipped. With poll == false the
// body runs once over the whole range (no per-block cost).
template <typename Body>
void StridedRun(const ExecContext& ctx, AbortSlot& slot, bool poll,
                size_t begin, size_t end, Body body) {
  if (!poll) {
    body(begin, end);
    return;
  }
  for (size_t b = begin; b < end; b += kCancelStrideRows) {
    if (!slot.Continue(ctx)) return;
    body(b, std::min(end, b + kCancelStrideRows));
  }
}

// The per-operator profile child for an operator about to run, or null
// when nobody is recording.
obs::ProfileNode* OpNode(obs::ProfileNode* parent, std::string_view name,
                         std::string_view detail = {}) {
  if (parent == nullptr || !obs::Enabled()) return nullptr;
  return parent->AddChild(name, detail);
}

using rel::ColumnVector;
using Encoding = rel::ColumnVector::Encoding;

// Below these sizes the spawn/partition overhead outweighs the win; the
// operator runs its serial path (output is identical either way).
constexpr size_t kParallelScanThreshold = 1 << 13;
constexpr size_t kParallelProbeThreshold = 1 << 12;
constexpr size_t kPartitionedBuildThreshold = 1 << 11;
constexpr size_t kParallelDistinctThreshold = 1 << 13;
constexpr size_t kMaxPartitions = 16;
// Predicate evaluation works column-at-a-time over sub-ranges this size,
// so every predicate's pass over a morsel stays in cache.
constexpr size_t kScanMorselRows = 1 << 11;
// The fused join→DISTINCT pipeline buffers probe matches in morsels of
// this many tuples, then batch-hashes and batch-inserts each morsel in
// tight per-phase loops: the bounded buffer stays in L1/L2 and the hash
// pass pipelines like the unfused operator's, while the join's full
// output is still never materialized.
constexpr size_t kFusedMorselRows = 1 << 15;
// A DISTINCT directly above a hash join takes the fused pipeline once the
// join's exact output (known from the count pass before any tuple is
// emitted) reaches this many bytes of row-id tuples. Below it the
// materialized output stays cache-resident and the classic DISTINCT is
// faster; above it streaming dedup beats materialize→rehash→re-read.
constexpr size_t kFuseMinOutputBytes = size_t{32} << 20;

// Splits [0, n) into at most `parts` equal contiguous chunks.
std::vector<IndexRange> EqualRanges(size_t n, size_t parts) {
  parts = std::max<size_t>(1, std::min(parts, n));
  const size_t chunk = (n + parts - 1) / parts;
  std::vector<IndexRange> ranges;
  for (size_t begin = 0; begin < n; begin += chunk) {
    ranges.push_back({begin, std::min(n, begin + chunk)});
  }
  if (ranges.empty()) ranges.push_back({0, 0});
  return ranges;
}

// The partition of hash h among `parts` (at most kMaxPartitions): a
// multiply-shift of hash bits 24..47. Those bits are disjoint from the
// slot tag (bits 57..63, simd::TagOfHash) and from the home slot
// (TagProbe::Home, the low bits of any table under 2^24 slots), so a
// partition's keys still spread over every home slot of its own table.
// No division; with parts == 1 it is always 0.
size_t PartitionOf(uint64_t h, size_t parts) {
  return static_cast<size_t>((((h >> 24) & 0xffffffu) * parts) >> 24);
}

// Row ids grouped by hash partition, built by one parallel count-then-
// scatter pass over contiguous input ranges, so each partition worker
// then walks only its own rows instead of every row. Chunk (p, t) holds
// range t's rows of partition p in ascending order, and chunks are laid
// out partition-major, so each partition's rows are ascending overall —
// the order a serial scan would visit them in.
class HashPartitions {
 public:
  // part_of(t, i) names the partition of row i (i in ranges[t]), or
  // `parts` to leave the row out. The caller charges 4 bytes per row.
  template <typename PartOf>
  HashPartitions(const std::vector<IndexRange>& ranges, size_t parts,
                 PartOf part_of)
      : nranges_(ranges.size()), offsets_(parts * nranges_ + 1, 0) {
    // counts[t][p] for p in [0, parts]: the last bucket counts left-out
    // rows and gets no chunk.
    std::vector<std::array<size_t, kMaxPartitions + 1>> counts(nranges_);
    ParallelInvoke(nranges_, [&](size_t t) {
      std::array<size_t, kMaxPartitions + 1> c{};
      for (size_t i = ranges[t].begin; i < ranges[t].end; ++i) {
        ++c[part_of(t, i)];
      }
      counts[t] = c;
    });
    size_t off = 0;
    for (size_t p = 0; p < parts; ++p) {
      for (size_t t = 0; t < nranges_; ++t) {
        offsets_[p * nranges_ + t] = off;
        off += counts[t][p];
      }
    }
    offsets_.back() = off;
    rows_ = std::make_unique_for_overwrite<uint32_t[]>(off);
    ParallelInvoke(nranges_, [&](size_t t) {
      std::array<size_t, kMaxPartitions + 1> cursor{};
      for (size_t p = 0; p < parts; ++p) cursor[p] = offsets_[p * nranges_ + t];
      for (size_t i = ranges[t].begin; i < ranges[t].end; ++i) {
        const size_t p = part_of(t, i);
        if (p != parts) rows_[cursor[p]++] = static_cast<uint32_t>(i);
      }
    });
  }

  // Partition p's rows, ascending.
  std::span<const uint32_t> Rows(size_t p) const {
    return Span(p * nranges_, (p + 1) * nranges_);
  }
  // Range t's rows of partition p, ascending.
  std::span<const uint32_t> Chunk(size_t p, size_t t) const {
    return Span(p * nranges_ + t, p * nranges_ + t + 1);
  }
  // Row count of the largest partition.
  size_t MaxRows() const {
    size_t most = 0;
    for (size_t a = 0; a + nranges_ < offsets_.size(); a += nranges_) {
      most = std::max(most, offsets_[a + nranges_] - offsets_[a]);
    }
    return most;
  }

 private:
  std::span<const uint32_t> Span(size_t first, size_t last) const {
    return {rows_.get() + offsets_[first], offsets_[last] - offsets_[first]};
  }

  size_t nranges_;
  std::vector<size_t> offsets_;  // chunk (p, t) starts at [p * nranges_ + t]
  std::unique_ptr<uint32_t[]> rows_;
};

// Fan-out of one partitioned phase, for the profile tree.
struct PartitionStats {
  size_t partitions = 1;
  size_t rows_max = 0;  // rows in the largest partition
};

// Output schema of a hash join: left columns keep their names; a right
// column whose name is already taken is qualified as "<table>.<name>"
// and, if even that collides (self-joins), suffixed "#2", "#3", ... —
// deterministic, so downstream name resolution is unambiguous.
void JoinOutputSchema(const rel::Schema& left,
                      const std::vector<std::string>& left_origins,
                      const rel::Schema& right,
                      const std::vector<std::string>& right_origins,
                      rel::Schema* out_schema,
                      std::vector<std::string>* out_origins) {
  std::vector<rel::ColumnDef> cols = left.columns();
  std::unordered_set<std::string> taken;
  taken.reserve(cols.size() + right.NumColumns());
  for (const rel::ColumnDef& c : cols) taken.insert(c.name);
  out_origins->clear();
  out_origins->reserve(cols.size() + right.NumColumns());
  for (size_t i = 0; i < left.NumColumns(); ++i) {
    out_origins->push_back(i < left_origins.size() ? left_origins[i] : "");
  }
  for (size_t i = 0; i < right.NumColumns(); ++i) {
    rel::ColumnDef def = right.column(i);
    const std::string origin =
        i < right_origins.size() ? right_origins[i] : "";
    if (taken.contains(def.name) && !origin.empty()) {
      def.name = origin + "." + def.name;
    }
    if (taken.contains(def.name)) {
      const std::string base = def.name;
      for (int k = 2;; ++k) {
        def.name = base + "#" + std::to_string(k);
        if (!taken.contains(def.name)) break;
      }
    }
    taken.insert(def.name);
    out_origins->push_back(origin);
    cols.push_back(std::move(def));
  }
  *out_schema = rel::Schema(std::move(cols));
}

// The metadata of `node`'s projection over `child` into *out: output
// schema (names, origins), sources and column bindings, with tuples left
// empty. Shared by the projection tail and the fused join→DISTINCT.
Status ProjectMetadata(const ProjectNode& node, const RowIdResult& child,
                       RowIdResult* out) {
  for (size_t c : node.columns()) {
    if (c >= child.schema.NumColumns()) {
      return Status::PlanError("projection column out of range");
    }
  }
  std::vector<rel::ColumnDef> cols;
  cols.reserve(node.columns().size());
  out->origins.clear();
  out->origins.reserve(node.columns().size());
  out->columns.reserve(node.columns().size());
  for (size_t i = 0; i < node.columns().size(); ++i) {
    const size_t src = node.columns()[i];
    rel::ColumnDef def = child.schema.column(src);
    if (i < node.output_names().size() && !node.output_names()[i].empty()) {
      def.name = node.output_names()[i];
    }
    cols.push_back(std::move(def));
    out->origins.push_back(src < child.origins.size() ? child.origins[src]
                                                      : "");
    out->columns.push_back(child.columns[src]);
  }
  out->schema = rel::Schema(std::move(cols));
  out->sources = child.sources;
  return Status::OK();
}

// ------------------------------------------------- typed scan evaluation

// A predicate compiled against the physical encoding of its column. The
// compile step hoists everything value-independent out of the row loop:
// the NULL verdict, comparisons that cannot read the cell (a string
// constant against an int64 column), for dictionary columns one verdict
// per distinct string instead of per row — and, for numeric columns, the
// reduction of the row loop to a single simd mask kernel. Ordering on an
// int64 column scalar-promotes through double (Value semantics); the
// compile step converts that bound to a pure int64 threshold once
// (int64→double conversion is monotone, see MaxInt64WithDoubleLess), so
// the kernel runs integer compares only.
struct CompiledPredicate {
  enum class Kind { kConst, kI64Mask, kF64Mask, kCodeTable, kGeneric };

  const ColumnVector* col = nullptr;
  const Predicate* pred = nullptr;
  Kind kind = Kind::kGeneric;
  bool null_match = false;
  bool const_match = false;           // kConst
  simd::I64MaskOp i64_op = simd::I64MaskOp::kEq;  // kI64Mask
  int64_t i64_bound = 0;
  int64_t i64_eq = 0;
  simd::F64MaskOp f64_op = simd::F64MaskOp::kEq;  // kF64Mask
  double f64_bound = 0.0;
  std::vector<uint32_t> code_match;   // kCodeTable, 0/1 verdict per code

  void Apply(size_t begin, size_t end, uint8_t* keep) const;
};

CompiledPredicate CompilePredicate(const ColumnVector& col,
                                   const Predicate& p) {
  CompiledPredicate cp;
  cp.col = &col;
  cp.pred = &p;
  cp.null_match = p.MatchesValue(rel::Value::Null());
  const rel::ValueType ct = p.constant.type();
  const bool const_numeric =
      ct == rel::ValueType::kInt64 || ct == rel::ValueType::kDouble;
  auto const_verdict = [&](bool match) {
    cp.kind = CompiledPredicate::Kind::kConst;
    cp.const_match = match;
  };
  auto i64_mask = [&](simd::I64MaskOp op, int64_t bound, int64_t eq) {
    cp.kind = CompiledPredicate::Kind::kI64Mask;
    cp.i64_op = op;
    cp.i64_bound = bound;
    cp.i64_eq = eq;
  };
  // `(double)x < cd` over an int64 column, as a pure int64 compare; when
  // no int64 satisfies it the whole predicate term is constant false.
  auto i64_less = [&](double cd) {
    const std::optional<int64_t> b = simd::MaxInt64WithDoubleLess(cd);
    if (b.has_value()) {
      i64_mask(simd::I64MaskOp::kLe, *b, 0);
    } else {
      const_verdict(false);
    }
  };
  auto i64_greater = [&](double cd) {
    const std::optional<int64_t> b = simd::MinInt64WithDoubleGreater(cd);
    if (b.has_value()) {
      i64_mask(simd::I64MaskOp::kGe, *b, 0);
    } else {
      const_verdict(false);
    }
  };
  switch (col.encoding()) {
    case Encoding::kEmpty:
      const_verdict(cp.null_match);  // every cell is NULL
      break;
    case Encoding::kInt64:
      if (ct == rel::ValueType::kInt64) {
        // Ordering promotes through double exactly like Value::operator<;
        // equality stays exact int64 like Value::operator==.
        const int64_t c = p.constant.AsInt64();
        const double cd = static_cast<double>(c);
        switch (p.op) {
          case CompareOp::kEq: i64_mask(simd::I64MaskOp::kEq, 0, c); break;
          case CompareOp::kNe: i64_mask(simd::I64MaskOp::kNe, 0, c); break;
          case CompareOp::kLt: i64_less(cd); break;
          case CompareOp::kLe: {
            // `(double)x < cd || x == c`: the eq term survives because c
            // itself converts to cd, not below it.
            const std::optional<int64_t> b = simd::MaxInt64WithDoubleLess(cd);
            if (b.has_value()) {
              i64_mask(simd::I64MaskOp::kLeOrEq, *b, c);
            } else {
              i64_mask(simd::I64MaskOp::kEq, 0, c);
            }
            break;
          }
          case CompareOp::kGt: i64_greater(cd); break;
          case CompareOp::kGe: {
            const std::optional<int64_t> b =
                simd::MinInt64WithDoubleGreater(cd);
            if (b.has_value()) {
              i64_mask(simd::I64MaskOp::kGeOrEq, *b, c);
            } else {
              i64_mask(simd::I64MaskOp::kEq, 0, c);
            }
            break;
          }
        }
      } else if (ct == rel::ValueType::kDouble) {
        // Equality never crosses int64/double (Value semantics), so only
        // the ordering terms can match.
        const double cd = p.constant.AsDouble();
        switch (p.op) {
          case CompareOp::kEq: const_verdict(false); break;
          case CompareOp::kNe: const_verdict(true); break;
          case CompareOp::kLt:
          case CompareOp::kLe: i64_less(cd); break;
          case CompareOp::kGt:
          case CompareOp::kGe: i64_greater(cd); break;
        }
      } else {
        // Ordering against strings/NULL depends only on the types.
        const_verdict(p.MatchesValue(rel::Value(int64_t{0})));
      }
      break;
    case Encoding::kDouble:
      if (const_numeric) {
        const double cd = p.constant.AsDouble();
        const bool same_type = ct == rel::ValueType::kDouble;
        cp.kind = CompiledPredicate::Kind::kF64Mask;
        cp.f64_bound = cd;
        switch (p.op) {
          case CompareOp::kEq:
            if (same_type) {
              cp.f64_op = simd::F64MaskOp::kEq;
            } else {
              const_verdict(false);
            }
            break;
          case CompareOp::kNe:
            if (same_type) {
              cp.f64_op = simd::F64MaskOp::kNe;
            } else {
              const_verdict(true);
            }
            break;
          case CompareOp::kLt:
            cp.f64_op = simd::F64MaskOp::kLt;
            break;
          case CompareOp::kLe:
            // `dv < cd || dv == cd` is IEEE `<=` (both false on NaN).
            cp.f64_op = same_type ? simd::F64MaskOp::kLe : simd::F64MaskOp::kLt;
            break;
          case CompareOp::kGt:
            cp.f64_op = simd::F64MaskOp::kGt;
            break;
          case CompareOp::kGe:
            cp.f64_op = same_type ? simd::F64MaskOp::kGe : simd::F64MaskOp::kGt;
            break;
        }
      } else {
        const_verdict(p.MatchesValue(rel::Value(0.0)));
      }
      break;
    case Encoding::kDictString: {
      cp.kind = CompiledPredicate::Kind::kCodeTable;
      const rel::StringDictionary& dict = col.dict();
      cp.code_match.resize(dict.size());
      for (uint32_t code = 0; code < dict.size(); ++code) {
        cp.code_match[code] =
            p.MatchesValue(rel::Value(dict.At(code))) ? 1 : 0;
      }
      break;
    }
    case Encoding::kMixed:
      cp.kind = CompiledPredicate::Kind::kGeneric;
      break;
  }
  return cp;
}

void CompiledPredicate::Apply(size_t begin, size_t end, uint8_t* keep) const {
  const uint8_t* nulls = col->NullMask();
  const uint8_t* nsub = nulls != nullptr ? nulls + begin : nullptr;
  const size_t n = end - begin;
  switch (kind) {
    case Kind::kI64Mask:
      simd::AndMaskI64(i64_op, col->Int64Data() + begin, i64_bound, i64_eq,
                       nsub, null_match, keep + begin, n);
      return;
    case Kind::kF64Mask:
      simd::AndMaskF64(f64_op, col->DoubleData() + begin, f64_bound, nsub,
                       null_match, keep + begin, n);
      return;
    case Kind::kCodeTable:
      simd::AndMaskCodes(col->CodeData() + begin, code_match.data(), nsub,
                         null_match, keep + begin, n);
      return;
    case Kind::kConst: {
      // AND-accumulates the constant verdict as straight byte arithmetic:
      // no branch on keep, no branch on NULL.
      const uint8_t cm = const_match ? 1 : 0;
      if (nulls == nullptr) {
        for (size_t i = begin; i < end; ++i) keep[i] &= cm;
        return;
      }
      const uint8_t nm = null_match ? 1 : 0;
      for (size_t i = begin; i < end; ++i) {
        const uint8_t nn = static_cast<uint8_t>(nulls[i] != 0);
        keep[i] &= static_cast<uint8_t>(
            (nn & nm) | (static_cast<uint8_t>(nn ^ 1) & cm));
      }
      return;
    }
    case Kind::kGeneric:
      // The generic kind materializes a Value per cell — far too
      // expensive to evaluate on rows other predicates already dropped,
      // so it alone keeps the per-row guard.
      for (size_t i = begin; i < end; ++i) {
        if (keep[i] == 0) continue;
        const bool m = (nulls != nullptr && nulls[i] != 0)
                           ? null_match
                           : pred->MatchesValue(col->ValueAt(i));
        if (!m) keep[i] = 0;
      }
      return;
  }
}

// A semi-join key filter compiled against its column's encoding. NULL is
// never a member of the node-key set.
struct CompiledSemiJoin {
  const ColumnVector* col = nullptr;
  const KeyFilter* keys = nullptr;
  std::vector<uint32_t> code_match;  // dict columns: per-code membership

  void Apply(size_t begin, size_t end, uint8_t* keep) const {
    const uint8_t* nulls = col->NullMask();
    // Hash-set membership probes are too costly to run on rows already
    // dropped, so those paths keep the per-row guard; the dictionary path
    // is a flat per-code table read and runs branch-light.
    auto run = [&](auto match) {
      for (size_t i = begin; i < end; ++i) {
        if (keep[i] == 0) continue;
        const bool m = (nulls != nullptr && nulls[i] != 0) ? false : match(i);
        if (!m) keep[i] = 0;
      }
    };
    switch (col->encoding()) {
      case Encoding::kEmpty:
        std::fill(keep + begin, keep + end, uint8_t{0});
        return;
      case Encoding::kInt64: {
        const int64_t* data = col->Int64Data();
        run([&](size_t i) { return keys->ints.contains(data[i]); });
        return;
      }
      case Encoding::kDictString: {
        // NULL placeholders store code 0, and NULL is never a member, so
        // the shared mask kernel runs with null_match = false.
        const uint8_t* nsub = nulls != nullptr ? nulls + begin : nullptr;
        simd::AndMaskCodes(col->CodeData() + begin, code_match.data(), nsub,
                           /*null_match=*/false, keep + begin, end - begin);
        return;
      }
      case Encoding::kDouble: {
        const double* data = col->DoubleData();
        run([&](size_t i) {
          return keys->others.contains(rel::Value(data[i]));
        });
        return;
      }
      case Encoding::kMixed:
        run([&](size_t i) { return keys->Contains(col->ValueAt(i)); });
        return;
    }
  }
};

CompiledSemiJoin CompileSemiJoin(const ColumnVector& col,
                                 const SemiJoin& sj) {
  CompiledSemiJoin cf;
  cf.col = &col;
  cf.keys = sj.keys.get();
  if (col.encoding() == Encoding::kDictString) {
    const rel::StringDictionary& dict = col.dict();
    cf.code_match.resize(dict.size());
    for (uint32_t code = 0; code < dict.size(); ++code) {
      cf.code_match[code] = sj.keys->strings.contains(dict.At(code)) ? 1 : 0;
    }
  }
  return cf;
}

// ---------------------------------------------------- typed join kernels

// Capacity policy for the join/DISTINCT slot tables: up to 7/8 load.
// TagProbe scans 16 tags per step, so long occupied runs stay cheap.
// Capacity only affects slot placement, never results or output order.
size_t TableCapacity(size_t n) {
  size_t cap = 16;
  while (7 * cap < 8 * n) cap <<= 1;
  return cap;
}

// The DISTINCT sets seed their slot tables at this many keys and double
// on load-factor trips instead of presizing for the offer count: on
// duplicate-heavy inputs the offer count overstates the key count by
// orders of magnitude, and a right-sized table keeps the random-probe
// working set cache-resident. 64K keys ≈ 512KB of slots — about one L2.
constexpr size_t kDistinctSeedSlots = 64 * 1024;

// How many offers ahead the batched DISTINCT insert loops prefetch their
// first probe slot. The loops hash a whole batch before probing, so the
// future slot address is one mask away; prefetching it lets the random
// first-probe misses overlap instead of serializing on a grown table
// that no longer fits in cache. Purely a cache hint — results are
// untouched (a table growth between hint and probe only wastes the hint).
constexpr size_t kProbePrefetchDist = 16;

// Grow when the next insert could push occupancy past the 7/8 load
// TableCapacity provisions for.
size_t GrowThreshold(size_t cap) { return cap - cap / 8; }

// The probe format of every executor hash table: a power-of-two slot
// space with one 7-bit tag per slot (simd::TagOfHash; kTagEmpty = free)
// and the first 15 tags mirrored past the end, so a 16-tag group load
// never wraps. A probe compares 16 tags per step (one SSE2
// compare+movemask on x86-64) and examines candidates in exactly the
// linear-probe order, stopping at the first empty slot. The tables keep
// their slot payloads in parallel arrays indexed by the slot this
// returns; the tag array alone decides which slots are occupied.
class TagProbe {
 public:
  // Empties the table and sizes it to `cap` slots (a power of two).
  void Reset(size_t cap) {
    mask_ = cap - 1;
    tags_.assign(cap + simd::kTagGroupWidth - 1, simd::kTagEmpty);
  }

  size_t capacity() const { return mask_ + 1; }
  // First slot of h's probe sequence.
  size_t Home(uint64_t h) const { return h & mask_; }

  // Walks h's probe sequence and calls eq(slot) on every tag-matching
  // slot in linear-probe order. Returns {slot, true} for the first slot
  // eq accepts, else {the sequence's first empty slot, false}.
  template <typename Eq>
  std::pair<size_t, bool> Find(uint64_t h, Eq eq) const {
    const uint8_t tag = simd::TagOfHash(h);
    size_t pos = Home(h);
    for (;;) {
      const uint8_t* group = tags_.data() + pos;
      const uint32_t empty = simd::TagEmpty16(group);
      uint32_t match = BitsBeforeFirst(simd::TagMatch16(group, tag), empty);
      while (match != 0) {
        const size_t cand = Lane(pos, match);
        if (eq(cand)) return {cand, true};
        match &= match - 1;
      }
      if (empty != 0) return {Lane(pos, empty), false};
      pos = (pos + simd::kTagGroupWidth) & mask_;
    }
  }

  // Marks `slot` (an empty slot Find returned for h) occupied.
  void Claim(size_t slot, uint64_t h) {
    const uint8_t tag = simd::TagOfHash(h);
    tags_[slot] = tag;
    if (slot < simd::kTagGroupWidth - 1) tags_[mask_ + 1 + slot] = tag;
  }

  // Claims and returns the first empty slot of h's probe sequence, for a
  // key known to be absent (growth re-insertion of distinct keys). That
  // is the slot Find would return for it.
  size_t ClaimFirstEmpty(uint64_t h) {
    const size_t slot = Find(h, [](size_t) { return false; }).first;
    Claim(slot, h);
    return slot;
  }

  // Cache hint for a future Find(h): pulls h's first tag group.
  void Prefetch(uint64_t h) const {
    __builtin_prefetch(tags_.data() + Home(h));
  }

  // Calls fn(slot) on the tag-matching candidates of h's first group —
  // the slots a Find(h) would verify first. Read-only.
  template <typename Fn>
  void ForEachFirstCandidate(uint64_t h, Fn fn) const {
    const size_t pos = Home(h);
    const uint8_t* group = tags_.data() + pos;
    uint32_t match = BitsBeforeFirst(
        simd::TagMatch16(group, simd::TagOfHash(h)), simd::TagEmpty16(group));
    for (; match != 0; match &= match - 1) fn(Lane(pos, match));
  }

 private:
  // The bits of `match` at positions strictly before the lowest set bit
  // of `stop` (all bits when stop == 0). Candidates at or past the first
  // empty slot can never hold the probed key — linear probing would have
  // claimed that empty slot first.
  static uint32_t BitsBeforeFirst(uint32_t match, uint32_t stop) {
    if (stop == 0) return match;
    return match & ((stop & (~stop + 1u)) - 1u);
  }

  // The slot of the lowest set bit of a group mask starting at `pos`.
  size_t Lane(size_t pos, uint32_t bits) const {
    return (pos + static_cast<size_t>(std::countr_zero(bits))) & mask_;
  }

  std::vector<uint8_t> tags_;  // per slot + 15 mirror bytes
  uint64_t mask_ = 0;
};

// Open-addressing hash table from Key to an ascending chain of build row
// ids. Slots are flat arrays (no per-node allocation) probed through
// TagProbe; chains thread through one `next` array indexed by build row —
// the array is shared across partitions (partitions own disjoint rows),
// so chain memory is paid once, not per partition. Rows must be inserted
// in ascending order so chains stay ascending.
template <typename Key>
struct FlatChainTable {
  std::vector<Key> keys;      // per slot
  std::vector<int64_t> hash;  // per slot, cached full hash
  std::vector<int32_t> head;  // per slot, first build row
  std::vector<int32_t> tail;  // per slot, last build row of the chain
  std::vector<uint32_t> count;  // per slot, chain length (match estimates)
  TagProbe probe;
  int32_t* next = nullptr;    // shared: per build row, next equal-key row

  void Init(size_t rows_in_partition, int32_t* shared_next) {
    const size_t cap = TableCapacity(rows_in_partition);
    probe.Reset(cap);
    keys.resize(cap);
    hash.resize(cap);
    head.resize(cap);
    tail.resize(cap);
    count.resize(cap);
    next = shared_next;
  }

  void Insert(const Key& k, uint64_t h, uint32_t row) {
    const auto [pos, found] = Lookup(k, h);
    next[row] = -1;
    if (found) {
      next[tail[pos]] = static_cast<int32_t>(row);
      tail[pos] = static_cast<int32_t>(row);
      ++count[pos];
      return;
    }
    probe.Claim(pos, h);
    keys[pos] = k;
    hash[pos] = static_cast<int64_t>(h);
    head[pos] = static_cast<int32_t>(row);
    tail[pos] = static_cast<int32_t>(row);
    count[pos] = 1;
  }

  // Cache hints for a future Insert(·, h), in the two stages of the
  // DISTINCT loops (see FlatDistinctSet): PrefetchSlot pulls the first
  // tag group and the home slot's cached hash; WarmProbe, run once that
  // group is cached, pulls the candidates' chain tails. Read-only.
  void PrefetchSlot(uint64_t h) const {
    probe.Prefetch(h);
    __builtin_prefetch(hash.data() + probe.Home(h));
  }
  void WarmProbe(uint64_t h) const {
    probe.ForEachFirstCandidate(h, [&](size_t slot) {
      __builtin_prefetch(tail.data() + slot);
    });
  }

  // First build row with key k, or -1.
  int32_t Find(const Key& k, uint64_t h) const {
    const auto [pos, found] = Lookup(k, h);
    return found ? head[pos] : -1;
  }

  // Number of build rows with key k (0 when absent).
  uint32_t CountFor(const Key& k, uint64_t h) const {
    const auto [pos, found] = Lookup(k, h);
    return found ? count[pos] : 0;
  }

 private:
  std::pair<size_t, bool> Lookup(const Key& k, uint64_t h) const {
    return probe.Find(h, [&](size_t s) {
      return hash[s] == static_cast<int64_t>(h) && keys[s] == k;
    });
  }
};

// ------------------------------------------------- typed DISTINCT kernel

// Flattened per-column readers for DISTINCT hashing/equality: everything
// is raw array reads (int64 data, dictionary codes, cached string
// hashes), no per-cell function calls or Value materialization.
struct DistinctCol {
  enum class Kind : uint8_t { kInt64, kDouble, kDict, kMixed, kAllNull };
  Kind kind = Kind::kAllNull;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const uint32_t* codes = nullptr;
  const rel::StringDictionary* dict = nullptr;
  const ColumnVector* col = nullptr;  // mixed fallback
  const uint8_t* nulls = nullptr;
  uint32_t slot = 0;

  static DistinctCol Make(const BoundColumn& b) {
    DistinctCol d;
    d.slot = b.slot;
    d.nulls = b.col->NullMask();
    d.col = b.col;
    switch (b.col->encoding()) {
      case Encoding::kInt64:
        d.kind = Kind::kInt64;
        d.ints = b.col->Int64Data();
        break;
      case Encoding::kDouble:
        d.kind = Kind::kDouble;
        d.doubles = b.col->DoubleData();
        break;
      case Encoding::kDictString:
        d.kind = Kind::kDict;
        d.codes = b.col->CodeData();
        d.dict = &b.col->dict();
        break;
      case Encoding::kMixed:
        d.kind = Kind::kMixed;
        break;
      case Encoding::kEmpty:
        d.kind = Kind::kAllNull;
        break;
    }
    return d;
  }

  bool IsNull(size_t id) const {
    return kind == Kind::kAllNull || (nulls != nullptr && nulls[id] != 0);
  }

  uint64_t Hash(size_t id) const {
    if (IsNull(id)) return 0x9e3779b9u;
    switch (kind) {
      case Kind::kInt64: return MixInt64(static_cast<uint64_t>(ints[id]));
      case Kind::kDouble: return std::hash<double>{}(doubles[id]);
      case Kind::kDict: return dict->HashOf(codes[id]);
      case Kind::kMixed: return col->MixedAt(id).Hash();
      case Kind::kAllNull: break;
    }
    return 0x9e3779b9u;
  }

  // Value-equality of two cells of this column (codes compare directly:
  // one column has one dictionary).
  bool Equal(size_t a, size_t b) const {
    const bool an = IsNull(a);
    const bool bn = IsNull(b);
    if (an || bn) return an == bn;
    switch (kind) {
      case Kind::kInt64: return ints[a] == ints[b];
      case Kind::kDouble: return doubles[a] == doubles[b];
      case Kind::kDict: return codes[a] == codes[b];
      case Kind::kMixed: return col->MixedAt(a) == col->MixedAt(b);
      case Kind::kAllNull: break;
    }
    return true;
  }
};

// Open-addressing first-occurrence set over row ids with precomputed
// hashes. Rows must be offered in ascending order; survivors come out in
// that same order. The table is sized for the keys seen so far and
// doubles on load-factor trips, so duplicate-heavy inputs probe a
// cache-resident table instead of one sized for the full input.
class FlatDistinctSet {
 public:
  FlatDistinctSet(size_t expected_rows, const std::vector<uint64_t>& hashes,
                  const RowIdResult& rows, const std::vector<DistinctCol>& cols)
      : hashes_(hashes), rows_(rows), cols_(cols) {
    Resize(TableCapacity(std::min(expected_rows, kDistinctSeedSlots)));
  }

  // Cache hint for a future Insert(i): pulls the first probe group of
  // row i's slot walk. See kProbePrefetchDist.
  void PrefetchSlot(uint32_t i) const {
    const uint64_t h = hashes_[i];
    __builtin_prefetch(slots_.data() + probe_.Home(h));
    probe_.Prefetch(h);
  }

  // Second pipeline stage (see FusedDistinctSet::WarmProbe): reads the
  // now-cached tag group and prefetches the candidates' tuple records,
  // so the real probe's dependent loads land warm. Read-only.
  void WarmProbe(uint32_t i) const {
    const size_t w = rows_.Width();
    probe_.ForEachFirstCandidate(hashes_[i], [&](size_t slot) {
      __builtin_prefetch(&rows_.tuples[static_cast<size_t>(slots_[slot]) * w]);
    });
  }

  // True if row i is the first occurrence of its key.
  bool Insert(uint32_t i) {
    if (size_ >= grow_at_) Grow();
    const uint64_t h = hashes_[i];
    // Tag-filtered candidates skip the stored-hash pre-check; see
    // FusedDistinctSet::Insert.
    const auto [slot, found] =
        probe_.Find(h, [&](size_t s) { return RowsEqual(slots_[s], i); });
    if (found) return false;
    probe_.Claim(slot, h);
    slots_[slot] = i;
    ++size_;
    return true;
  }

 private:
  static constexpr uint32_t kEmptySlot = 0xffffffffu;

  void Resize(size_t cap) {
    probe_.Reset(cap);
    grow_at_ = GrowThreshold(cap);
    slots_.assign(cap, kEmptySlot);
  }

  // Doubles the slot table and reinserts the retained rows (distinct
  // keys, so each lands in its probe sequence's first empty slot). See
  // FusedDistinctSet::Grow.
  void Grow() {
    std::vector<uint32_t> old;
    old.swap(slots_);
    Resize(2 * probe_.capacity());
    for (const uint32_t r : old) {
      if (r != kEmptySlot) slots_[probe_.ClaimFirstEmpty(hashes_[r])] = r;
    }
  }

  bool RowsEqual(uint32_t a, uint32_t b) const {
    const size_t w = rows_.Width();
    const uint32_t* ta = &rows_.tuples[static_cast<size_t>(a) * w];
    const uint32_t* tb = &rows_.tuples[static_cast<size_t>(b) * w];
    for (const DistinctCol& c : cols_) {
      if (!c.Equal(ta[c.slot], tb[c.slot])) return false;
    }
    return true;
  }

  const std::vector<uint64_t>& hashes_;
  const RowIdResult& rows_;
  const std::vector<DistinctCol>& cols_;
  TagProbe probe_;
  std::vector<uint32_t> slots_;  // per slot: the retained row id
  size_t grow_at_ = 0;
  size_t size_ = 0;
};

// ------------------------------------------- fused join→DISTINCT kernel

// Projected-key hash of one (concatenated) row-id tuple — the same
// FNV-combine + avalanche the unfused DISTINCT uses.
uint64_t DistinctHash(const std::vector<DistinctCol>& cols,
                      const uint32_t* tup) {
  uint64_t h = 1469598103934665603ull;
  for (const DistinctCol& c : cols) {
    h ^= c.Hash(tup[c.slot]);
    h *= 1099511628211ull;
  }
  return MixInt64(h);
}

// Open-addressing first-occurrence set that *stores* surviving tuples:
// the fused pipeline offers every probe match as a candidate concatenated
// row-id tuple, and only first occurrences are retained — the join's full
// output is never materialized anywhere. Hashing and equality run on the
// projected typed base columns exactly like the unfused DISTINCT kernel.
// The slot table is sized for the *survivors seen so far*, not the offer
// count, and doubles on a load-factor trip: on duplicate-heavy joins
// (the paper's dense co-purchase cliques offer 50x more candidates than
// keys) an offer-sized table would be a multi-megabyte, ~2%-occupied
// array probed at random — every lookup a cache miss. Growth relocates
// slots only; survivor order and results are untouched. ReserveBatch
// makes room for one morsel of potential survivors up front so the
// insert loop writes raw arrays instead of re-checking vector capacity
// per element.
class FusedDistinctSet {
 public:
  // `expected` is the number of candidates that will be offered (the
  // range's match count, from the join build's chain lengths); the slot
  // table starts at the smaller of that and one growth step past
  // kDistinctSeedSlots.
  FusedDistinctSet(size_t width, const std::vector<DistinctCol>& cols,
                   size_t expected)
      : width_(width), cols_(cols), expected_(expected) {
    Resize(TableCapacity(std::min(expected, kDistinctSeedSlots)));
  }

  // Guarantees room for `n` more survivors; call before a batch of at
  // most `n` Insert offers. Survivor storage is raw geometric buffers —
  // no value-initialization, no per-element capacity checks in Insert.
  // Growth stops at the expected offer count, so a set never holds more
  // survivor storage than FusedSetBytes(expected) charges for.
  void ReserveBatch(size_t n) {
    if (size_ + n > cap_) {
      const size_t cap = std::max(std::min(cap_ * 2, expected_), size_ + n);
      auto tuples = std::make_unique_for_overwrite<uint32_t[]>(cap * width_);
      auto hashes = std::make_unique_for_overwrite<uint64_t[]>(cap);
      std::copy(tuples_.get(), tuples_.get() + size_ * width_, tuples.get());
      std::copy(hashes_.get(), hashes_.get() + size_, hashes.get());
      tuples_ = std::move(tuples);
      hashes_ = std::move(hashes);
      cap_ = cap;
    }
  }

  // Cache hint for a future Insert(·, h): pulls the first probe group
  // of the hash's slot walk. See kProbePrefetchDist.
  void PrefetchSlot(uint64_t h) const {
    __builtin_prefetch(slots_.data() + probe_.Home(h));
    probe_.Prefetch(h);
  }

  // Second pipeline stage: by the time this runs the tag group is in
  // cache (PrefetchSlot ran a distance earlier), so the group can be
  // read — not just prefetched — and the *candidates'* survivor tuples
  // pulled in. Duplicate offers otherwise serialize on that dependent
  // tuple load, which is the dominant miss on low-duplication streams
  // once the survivor arrays outgrow the cache. Read-only: the real
  // Insert re-probes from scratch, so a stale view (intervening inserts
  // or growth) only weakens the hint.
  void WarmProbe(uint64_t h) const {
    probe_.ForEachFirstCandidate(h, [&](size_t slot) {
      __builtin_prefetch(tuples_.get() +
                         static_cast<size_t>(slots_[slot]) * width_);
    });
  }

  // Offers n candidate tuples with their hashes, in order, through the
  // two-stage prefetch pipeline: offer i+2d's slot group is prefetched,
  // offer i+d's candidates are warmed, offer i probes (d =
  // kProbePrefetchDist).
  void InsertBatch(const uint32_t* tuples, const uint64_t* hashes, size_t n) {
    ReserveBatch(n);
    for (size_t i = 0; i < n; ++i) {
      if (i + 2 * kProbePrefetchDist < n) {
        PrefetchSlot(hashes[i + 2 * kProbePrefetchDist]);
      }
      if (i + kProbePrefetchDist < n) {
        WarmProbe(hashes[i + kProbePrefetchDist]);
      }
      Insert(tuples + i * width_, hashes[i]);
    }
  }

  // True if the candidate's projected key is unseen; the tuple is then
  // retained (survivors keep their offer order). Requires ReserveBatch.
  bool Insert(const uint32_t* tup, uint64_t h) {
    if (size_ >= grow_at_) Grow();
    // No stored-hash pre-check: the 7-bit tag already filtered to ~1%
    // false candidates, Equal alone decides, and skipping hashes_[s]
    // saves a dependent cache line per duplicate offer.
    const auto [slot, found] = probe_.Find(h, [&](size_t s) {
      return Equal(tuples_.get() + static_cast<size_t>(slots_[s]) * width_,
                   tup);
    });
    if (found) return false;
    probe_.Claim(slot, h);
    slots_[slot] = static_cast<uint32_t>(size_);
    uint32_t* dst = tuples_.get() + size_ * width_;
    for (size_t j = 0; j < width_; ++j) dst[j] = tup[j];
    hashes_[size_] = h;
    ++size_;
    return true;
  }

  size_t size() const { return size_; }
  // Survivor tuples in offer order, size() rows of width() ids.
  const uint32_t* tuples() const { return tuples_.get(); }
  const uint64_t* hashes() const { return hashes_.get(); }

 private:
  void Resize(size_t cap) {
    probe_.Reset(cap);
    grow_at_ = GrowThreshold(cap);
    slots_.resize(cap);
  }

  // Doubles the slot table and reinserts the survivors. Survivors are
  // pairwise distinct, so each lands in the first empty slot of its
  // probe sequence. Final capacity never exceeds TableCapacity(offers) —
  // what a presized table would allocate.
  void Grow() {
    Resize(2 * probe_.capacity());
    for (size_t i = 0; i < size_; ++i) {
      slots_[probe_.ClaimFirstEmpty(hashes_[i])] = static_cast<uint32_t>(i);
    }
  }

  bool Equal(const uint32_t* a, const uint32_t* b) const {
    for (const DistinctCol& c : cols_) {
      if (!c.Equal(a[c.slot], b[c.slot])) return false;
    }
    return true;
  }

  size_t width_;
  const std::vector<DistinctCol>& cols_;
  size_t expected_;  // offers the owner will make; caps survivor storage
  TagProbe probe_;
  std::vector<uint32_t> slots_;  // per slot: the survivor's ordinal
  size_t grow_at_ = 0;
  size_t size_ = 0;
  size_t cap_ = 0;
  std::unique_ptr<uint32_t[]> tuples_;  // survivor tuples, width_ ids each
  std::unique_ptr<uint64_t[]> hashes_;  // survivor projected-key hashes
};

// The build and count phases of the partitioned hash join, shared by the
// materializing join and the fused join→DISTINCT pipeline: typed keys and
// hashes are precomputed in parallel, then P flat per-partition tables are
// built, each by one worker over its own rows. With P > 1 a HashPartitions
// scatter hands every worker its partition's non-NULL rows in ascending
// order (per-key chains stay ascending, which is what makes probe output
// order the serial order); probes pick the table with the same
// PartitionOf. The probe
// side is split into contiguous ranges, and a counting pass over them
// gives every range its exact match count — and therefore the join's
// exact output size — before a single tuple is emitted.
template <typename Key>
struct JoinBuild {
  std::vector<uint64_t> bhash;
  std::vector<uint8_t> bnull;
  std::vector<Key> bkeys;
  std::vector<int32_t> chain_next;
  std::vector<FlatChainTable<Key>> tables;
  size_t partitions = 1;
  std::vector<IndexRange> ranges;  // probe ranges, in probe order
  std::vector<size_t> counts;      // exact matches per probe range
  size_t matches = 0;
  size_t partition_rows_max = 0;   // build rows in the largest table
  /// Build-side scratch charged against the request's memory budget,
  /// refunded when the build dies at the end of the operator.
  ScopedCharge charge;

  // The table that holds (or would hold) keys of hash h.
  const FlatChainTable<Key>& TableFor(uint64_t h) const {
    return tables[PartitionOf(h, partitions)];
  }
};

// Total number of join matches a probe range will emit, from the build
// chains' cached lengths — O(range rows), no chain walking.
template <typename Key, typename HashFn, typename ProbeKeyFn>
size_t CountJoinRange(const JoinBuild<Key>& jb, IndexRange range, HashFn hash,
                      ProbeKeyFn pkey) {
  size_t expected = 0;
  for (size_t pr = range.begin; pr < range.end; ++pr) {
    Key k{};
    if (!pkey(pr, &k)) continue;
    const uint64_t h = hash(k);
    expected += jb.TableFor(h).CountFor(k, h);
  }
  return expected;
}

template <typename Key, typename HashFn, typename BuildKeyFn,
          typename ProbeKeyFn>
JoinBuild<Key> BuildAndCountJoin(size_t bn, size_t pn, size_t threads,
                                 HashFn hash, BuildKeyFn bkey, ProbeKeyFn pkey,
                                 const ExecContext& ctx, AbortSlot& slot) {
  JoinBuild<Key> jb;
  jb.partitions = (threads > 1 && bn >= kPartitionedBuildThreshold)
                      ? std::min(threads, kMaxPartitions)
                      : 1;
  // Key/hash/null/chain arrays (and, when partitioned, the scatter's row
  // order) are the first of the join's two big allocations; the
  // per-partition slot arrays are priced below once their row counts are
  // known.
  const size_t key_bytes =
      bn * (sizeof(uint64_t) + 1 + sizeof(Key) + sizeof(int32_t) +
            (jb.partitions > 1 ? sizeof(uint32_t) : 0));
  if (Status st = jb.charge.Acquire(ctx, key_bytes, "hash-join build keys");
      !st.ok()) {
    slot.Fail(std::move(st));
    return jb;
  }
  jb.bhash.resize(bn);
  jb.bnull.resize(bn);
  jb.bkeys.resize(bn);
  const bool poll = NeedsPoll(ctx);
  ParallelFor(
      bn,
      [&](size_t begin, size_t end) {
        StridedRun(ctx, slot, poll, begin, end, [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) {
            Key k{};
            if (bkey(i, &k)) {
              jb.bkeys[i] = std::move(k);
              jb.bhash[i] = hash(jb.bkeys[i]);
              jb.bnull[i] = 0;
            } else {
              jb.bnull[i] = 1;
            }
          }
        });
      },
      threads);
  if (slot.Failed()) return jb;

  // Partitioned builds scatter the non-NULL rows by partition first, so
  // each table's worker inserts only its own rows, in ascending order.
  std::optional<HashPartitions> parts;
  std::vector<size_t> partition_rows(jb.partitions, 0);
  if (jb.partitions == 1) {
    for (size_t i = 0; i < bn; ++i) {
      if (jb.bnull[i] == 0) ++partition_rows[0];
    }
  } else {
    parts.emplace(EqualRanges(bn, jb.partitions), jb.partitions,
                  [&](size_t, size_t i) {
                    return jb.bnull[i] != 0
                               ? jb.partitions
                               : PartitionOf(jb.bhash[i], jb.partitions);
                  });
    for (size_t p = 0; p < jb.partitions; ++p) {
      partition_rows[p] = parts->Rows(p).size();
    }
  }
  jb.partition_rows_max =
      *std::max_element(partition_rows.begin(), partition_rows.end());
  // Per-slot: key + cached hash + head + tail + count + probe tag.
  constexpr size_t kSlotBytes = sizeof(Key) + sizeof(int64_t) +
                                2 * sizeof(int32_t) + sizeof(uint32_t) +
                                sizeof(uint8_t);
  size_t table_bytes = 0;
  for (size_t rows : partition_rows) {
    table_bytes += TableCapacity(rows) * kSlotBytes;
  }
  if (Status st = ctx.Charge(table_bytes, "hash-join slot tables");
      !st.ok()) {
    slot.Fail(std::move(st));
    return jb;
  }
  jb.charge.Grow(table_bytes);
  jb.chain_next.resize(bn);
  jb.tables.resize(jb.partitions);
  ParallelInvoke(jb.partitions, [&](size_t p) {
    if (slot.Failed()) return;
    FlatChainTable<Key>& ht = jb.tables[p];
    ht.Init(partition_rows[p], jb.chain_next.data());
    if (!parts.has_value()) {
      StridedRun(ctx, slot, poll, 0, bn, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
          if (jb.bnull[i] != 0) continue;
          ht.Insert(jb.bkeys[i], jb.bhash[i], static_cast<uint32_t>(i));
        }
      });
      return;
    }
    const std::span<const uint32_t> mine = parts->Rows(p);
    StridedRun(ctx, slot, poll, 0, mine.size(), [&](size_t b, size_t e) {
      for (size_t j = b; j < e; ++j) {
        if (j + 2 * kProbePrefetchDist < mine.size()) {
          ht.PrefetchSlot(jb.bhash[mine[j + 2 * kProbePrefetchDist]]);
        }
        if (j + kProbePrefetchDist < mine.size()) {
          ht.WarmProbe(jb.bhash[mine[j + kProbePrefetchDist]]);
        }
        const uint32_t i = mine[j];
        ht.Insert(jb.bkeys[i], jb.bhash[i], i);
      }
    });
  });
  parts.reset();
  if (slot.Failed()) return jb;

  const size_t probe_ways =
      (threads > 1 && pn >= kParallelProbeThreshold) ? threads : 1;
  jb.ranges = EqualRanges(pn, probe_ways);
  jb.counts.assign(jb.ranges.size(), 0);
  ParallelInvoke(jb.ranges.size(), [&](size_t t) {
    StridedRun(ctx, slot, poll, jb.ranges[t].begin, jb.ranges[t].end,
               [&](size_t b, size_t e) {
                 jb.counts[t] += CountJoinRange(jb, {b, e}, hash, pkey);
               });
  });
  for (size_t c : jb.counts) jb.matches += c;
  return jb;
}

// Materializes one probe range's matches as concatenated (left, right)
// row-id tuples in serial probe order, writing through a raw cursor into
// storage the caller presized from the range's exact match count —
// no per-match vector bookkeeping. Returns the advanced cursor.
template <typename Key, typename HashFn, typename ProbeKeyFn>
uint32_t* EmitJoinRange(const JoinBuild<Key>& jb, IndexRange range, HashFn hash,
                        ProbeKeyFn pkey, const RowIdResult& build,
                        const RowIdResult& probe, bool build_left, size_t lw,
                        size_t rw, uint32_t* out) {
  const size_t bw = build_left ? lw : rw;
  const size_t pw = build_left ? rw : lw;
  for (size_t pr = range.begin; pr < range.end; ++pr) {
    Key k{};
    if (!pkey(pr, &k)) continue;
    const uint64_t h = hash(k);
    const FlatChainTable<Key>& ht = jb.TableFor(h);
    int32_t bi = ht.Find(k, h);
    if (bi < 0) continue;
    const uint32_t* ptup = &probe.tuples[pr * pw];
    for (; bi >= 0; bi = ht.next[bi]) {
      const uint32_t* btup = &build.tuples[static_cast<size_t>(bi) * bw];
      const uint32_t* ltup = build_left ? btup : ptup;
      const uint32_t* rtup = build_left ? ptup : btup;
      for (size_t j = 0; j < lw; ++j) out[j] = ltup[j];
      for (size_t j = 0; j < rw; ++j) out[lw + j] = rtup[j];
      out += lw + rw;
    }
  }
  return out;
}

// One probe range of the fused join→DISTINCT pipeline: walks the range's
// chains exactly like EmitJoinRange, buffers matches in a bounded morsel
// (flushed at probe-row boundaries so the chain walk carries no extra
// branch), and batch-hashes + batch-offers each morsel to the range-local
// first-occurrence set. A free function so `hash`/`pkey` land in
// registers, matching the materializing probe's code shape.
template <typename Key, typename HashFn, typename ProbeKeyFn>
void FuseJoinRange(const JoinBuild<Key>& jb, IndexRange range, HashFn hash,
                   ProbeKeyFn pkey, const RowIdResult& build,
                   const RowIdResult& probe, bool build_left, size_t lw,
                   size_t rw, const std::vector<DistinctCol>& cols,
                   FusedDistinctSet& local, const ExecContext& ctx,
                   AbortSlot& slot, bool poll) {
  const size_t w = lw + rw;
  const size_t bw = build_left ? lw : rw;
  const size_t pw = build_left ? rw : lw;
  std::vector<uint32_t> morsel;
  std::vector<uint64_t> mhashes(2 * kFusedMorselRows);
  // Hashes m buffered candidates and offers them to the range-local set.
  auto flush = [&](const uint32_t* tuples, size_t m) {
    if (mhashes.size() < m) mhashes.resize(m);
    for (size_t i = 0; i < m; ++i) {
      mhashes[i] = DistinctHash(cols, tuples + i * w);
    }
    local.InsertBatch(tuples, mhashes.data(), m);
  };

  if (lw == 1 && rw == 1) {
    // Dominant shape — scan⋈scan edge queries emit (left id, right id)
    // pairs. The chain walk writes raw indexed slots into a fixed
    // buffer instead of paying two vector inserts per match; the buffer
    // flushes when full, mid-chain included (survivor selection depends
    // only on offer order, which flush boundaries never change).
    morsel.resize(4 * kFusedMorselRows);
    uint32_t* buf = morsel.data();
    const size_t cap = morsel.size();
    const uint32_t* btups = build.tuples.data();
    const uint32_t* ptups = probe.tuples.data();
    size_t fill = 0;
    auto flush2 = [&] {
      flush(buf, fill / 2);
      fill = 0;
    };
    size_t tick = kCancelStrideRows;
    for (size_t pr = range.begin; pr < range.end; ++pr) {
      if (poll && --tick == 0) {
        tick = kCancelStrideRows;
        if (!slot.Continue(ctx)) return;
      }
      Key k{};
      if (!pkey(pr, &k)) continue;
      const uint64_t h = hash(k);
      const FlatChainTable<Key>& ht = jb.TableFor(h);
      int32_t bi = ht.Find(k, h);
      if (bi < 0) continue;
      const uint32_t p = ptups[pr];
      if (build_left) {
        for (; bi >= 0; bi = ht.next[bi]) {
          if (fill == cap) flush2();
          buf[fill] = btups[bi];
          buf[fill + 1] = p;
          fill += 2;
        }
      } else {
        for (; bi >= 0; bi = ht.next[bi]) {
          if (fill == cap) flush2();
          buf[fill] = p;
          buf[fill + 1] = btups[bi];
          fill += 2;
        }
      }
    }
    flush2();
    return;
  }

  morsel.reserve(2 * kFusedMorselRows * w);
  auto flush_morsel = [&] {
    flush(morsel.data(), morsel.size() / w);
    morsel.clear();
  };
  // Cooperative poll every kCancelStrideRows probe rows; the morsel
  // buffers keep their reservations across blocks, so an active deadline
  // costs one strided Continue() poll, not per-block reallocation.
  size_t tick = kCancelStrideRows;
  for (size_t pr = range.begin; pr < range.end; ++pr) {
    if (poll && --tick == 0) {
      tick = kCancelStrideRows;
      if (!slot.Continue(ctx)) return;
    }
    Key k{};
    if (!pkey(pr, &k)) continue;
    const uint64_t h = hash(k);
    const FlatChainTable<Key>& ht = jb.TableFor(h);
    int32_t bi = ht.Find(k, h);
    if (bi < 0) continue;
    const uint32_t* ptup = &probe.tuples[pr * pw];
    for (; bi >= 0; bi = ht.next[bi]) {
      const uint32_t* btup = &build.tuples[static_cast<size_t>(bi) * bw];
      const uint32_t* ltup = build_left ? btup : ptup;
      const uint32_t* rtup = build_left ? ptup : btup;
      morsel.insert(morsel.end(), ltup, ltup + lw);
      morsel.insert(morsel.end(), rtup, rtup + rw);
    }
    // A single row's chain may overshoot the morsel target; it is bounded
    // by the build side and the unfused join would have materialized it
    // whole anyway.
    if (morsel.size() >= kFusedMorselRows * w) flush_morsel();
  }
  flush_morsel();
}

// Hash-table shape facts for the profile tree, filled only when someone
// is recording (the occupancy sums cost a pass over the build input).
struct JoinProfInfo {
  PartitionStats build;   // the build tables' fan-out
  size_t build_keys = 0;  // non-NULL build rows inserted into the tables
  size_t capacity = 0;    // total slots across partition tables
};

template <typename Key>
void FillJoinProfInfo(const JoinBuild<Key>& jb, size_t bn,
                      JoinProfInfo* info) {
  if (info == nullptr) return;
  info->build = {jb.partitions, jb.partition_rows_max};
  size_t nulls = 0;
  for (size_t i = 0; i < bn; ++i) nulls += jb.bnull[i];
  info->build_keys = bn - nulls;
  for (const FlatChainTable<Key>& t : jb.tables) {
    info->capacity += t.probe.capacity();
  }
}

// A join's executed inputs, oriented for the build: the smaller input
// builds, ties build left, so the emitted row order is a pure function of
// the inputs. lw/rw are the left/right tuple widths.
struct JoinSides {
  const RowIdResult& build;
  const RowIdResult& probe;
  bool build_left;
  size_t lw;
  size_t rw;
};

// Materializes a counted join as concatenated (left, right) row-id tuples
// in serial probe order, for every thread count and key type: every
// partition inserts its build rows in ascending order (so per-key chains
// are ascending) and probe ranges concatenate in index order. The exact
// per-range counts place every range's matches directly into the final
// tuple vector — no per-range buffers, no concatenation copy over the full
// output, and the operator's memory peak is the output itself rather than
// twice it.
template <typename Key, typename HashFn, typename ProbeKeyFn>
std::vector<uint32_t> MaterializeJoin(const JoinBuild<Key>& jb, HashFn hash,
                                      ProbeKeyFn pkey, const JoinSides& s,
                                      const ExecContext& ctx, AbortSlot& slot) {
  const size_t w = s.lw + s.rw;
  if (Status st =
          ctx.Charge(jb.matches * w * sizeof(uint32_t), "join output tuples");
      !st.ok()) {
    slot.Fail(std::move(st));
    return {};
  }
  std::vector<uint32_t> tuples(jb.matches * w);
  std::vector<size_t> offsets(jb.ranges.size(), 0);
  for (size_t t = 0, off = 0; t < jb.ranges.size(); ++t) {
    offsets[t] = off;
    off += jb.counts[t] * w;
  }
  const bool poll = NeedsPoll(ctx);
  ParallelInvoke(jb.ranges.size(), [&](size_t t) {
    uint32_t* out = tuples.data() + offsets[t];
    StridedRun(ctx, slot, poll, jb.ranges[t].begin, jb.ranges[t].end,
               [&](size_t b, size_t e) {
                 out = EmitJoinRange(jb, {b, e}, hash, pkey, s.build,
                                     s.probe, s.build_left, s.lw, s.rw, out);
               });
  });
  if (slot.Failed()) return {};
  return tuples;
}

// Budget charge for one FusedDistinctSet offered `n` candidates of width
// `w`: the worst case, where every offer survives — slot table (+ probe
// tags) plus survivor tuple/hash storage.
size_t FusedSetBytes(size_t n, size_t w) {
  return TableCapacity(n) * (sizeof(uint32_t) + sizeof(uint8_t)) +
         n * (w * sizeof(uint32_t) + sizeof(uint64_t));
}

// The fused join→DISTINCT pipeline over a counted join. Each probe range
// streams its matches into a range-local first-occurrence set through a
// bounded morsel buffer (FuseJoinRange), so no thread ever holds more than
// one morsel of un-deduplicated join output. The exact per-range counts
// size each set's budget charge up front. Returns the surviving tuples in
// the serial join's emission order — bit-identical to materializing the
// join and running the classic DISTINCT over it — and records the fan-out
// of the final dedup phase in `stats`.
template <typename Key, typename HashFn, typename ProbeKeyFn>
std::vector<uint32_t> FuseJoinDistinct(const JoinBuild<Key>& jb, HashFn hash,
                                       ProbeKeyFn pkey, const JoinSides& s,
                                       const std::vector<DistinctCol>& cols,
                                       size_t threads, const ExecContext& ctx,
                                       AbortSlot& slot, PartitionStats* stats) {
  const size_t w = s.lw + s.rw;
  const bool poll = NeedsPoll(ctx);
  const size_t nranges = jb.ranges.size();
  std::vector<std::unique_ptr<FusedDistinctSet>> locals(nranges);
  ParallelInvoke(nranges, [&](size_t t) {
    if (Status st = ctx.Charge(FusedSetBytes(jb.counts[t], w),
                               "fused DISTINCT set");
        !st.ok()) {
      slot.Fail(std::move(st));
      return;
    }
    locals[t] = std::make_unique<FusedDistinctSet>(w, cols, jb.counts[t]);
    FuseJoinRange(jb, jb.ranges[t], hash, pkey, s.build, s.probe,
                  s.build_left, s.lw, s.rw, cols, *locals[t], ctx, slot, poll);
  });
  if (slot.Failed()) return {};

  if (nranges == 1) {
    *stats = {1, jb.matches};
    return std::vector<uint32_t>(locals[0]->tuples(),
                                 locals[0]->tuples() + locals[0]->size() * w);
  }
  // A range's survivors are its in-range-first occurrences in emission
  // order, so merging ranges in index order keeps exactly the
  // globally-first occurrence of every key, in the serial join's
  // emission order. Range r's i-th survivor has stream ordinal
  // stream[r].begin + i.
  std::vector<IndexRange> stream(nranges);
  for (size_t r = 0, base = 0; r < nranges; ++r) {
    stream[r] = {base, base + locals[r]->size()};
    base = stream[r].end;
  }
  const size_t offered = stream.back().end;
  const size_t merge_ways =
      (threads > 1 && offered >= kParallelDistinctThreshold &&
       offered <= std::numeric_limits<uint32_t>::max())
          ? std::min(threads, kMaxPartitions)
          : 1;
  // The merge's scratch sits on top of the per-range sets and is
  // refunded once the survivors are copied out.
  ScopedCharge merge_charge;
  if (merge_ways == 1) {
    *stats = {1, offered};
    if (Status st = merge_charge.Acquire(ctx, FusedSetBytes(offered, w),
                                         "fused DISTINCT merge sets");
        !st.ok()) {
      slot.Fail(std::move(st));
      return {};
    }
    FusedDistinctSet global(w, cols, offered);
    for (const auto& local : locals) {
      global.InsertBatch(local->tuples(), local->hashes(), local->size());
    }
    return std::vector<uint32_t>(global.tuples(),
                                 global.tuples() + global.size() * w);
  }
  // Low-duplication joins leave most offers alive in every range, so
  // the concatenated survivor stream can approach the original match
  // count and a serial re-insert walk becomes the pipeline's wall.
  // Keys land in exactly one hash partition, so the stream is scattered
  // by partition once and each partition worker replays only its own
  // offers, in stream order; a bitmap over stream ordinals records who
  // survived, and prefix popcount ranks place every survivor at its
  // serial output position — the same tuples in the same order as the
  // serial merge. Each partition's set is charged for its exact offer
  // count, however skewed the keys.
  const size_t words = (offered + 63) / 64;
  if (Status st = merge_charge.Acquire(
          ctx, offered * sizeof(uint32_t) + words * sizeof(uint64_t),
          "fused DISTINCT merge scatter");
      !st.ok()) {
    slot.Fail(std::move(st));
    return {};
  }
  const HashPartitions parts(stream, merge_ways, [&](size_t r, size_t o) {
    return PartitionOf(locals[r]->hashes()[o - stream[r].begin], merge_ways);
  });
  *stats = {merge_ways, parts.MaxRows()};
  size_t set_bytes = 0;
  for (size_t p = 0; p < merge_ways; ++p) {
    set_bytes += FusedSetBytes(parts.Rows(p).size(), w);
  }
  if (Status st = ctx.Charge(set_bytes, "fused DISTINCT merge sets");
      !st.ok()) {
    slot.Fail(std::move(st));
    return {};
  }
  merge_charge.Grow(set_bytes);
  std::vector<uint64_t> bits(words, 0);
  ParallelInvoke(merge_ways, [&](size_t p) {
    FusedDistinctSet part(w, cols, parts.Rows(p).size());
    part.ReserveBatch(parts.Rows(p).size());
    for (size_t r = 0; r < nranges; ++r) {
      const std::span<const uint32_t> mine = parts.Chunk(p, r);
      const uint32_t* lt = locals[r]->tuples();
      const uint64_t* lh = locals[r]->hashes();
      const size_t base = stream[r].begin;
      for (size_t j = 0; j < mine.size(); ++j) {
        if (j + 2 * kProbePrefetchDist < mine.size()) {
          part.PrefetchSlot(lh[mine[j + 2 * kProbePrefetchDist] - base]);
        }
        if (j + kProbePrefetchDist < mine.size()) {
          part.WarmProbe(lh[mine[j + kProbePrefetchDist] - base]);
        }
        const size_t o = mine[j];
        if (part.Insert(lt + (o - base) * w, lh[o - base])) {
          std::atomic_ref<uint64_t>(bits[o >> 6])
              .fetch_or(uint64_t{1} << (o & 63), std::memory_order_relaxed);
        }
      }
    }
  });
  std::vector<size_t> rank(words + 1, 0);
  for (size_t i = 0; i < words; ++i) {
    rank[i + 1] = rank[i] + static_cast<size_t>(std::popcount(bits[i]));
  }
  std::vector<uint32_t> out(rank.back() * w);
  ParallelInvoke(nranges, [&](size_t r) {
    const uint32_t* lt = locals[r]->tuples();
    for (size_t o = stream[r].begin; o < stream[r].end; ++o) {
      const uint64_t word = bits[o >> 6];
      if ((word & (uint64_t{1} << (o & 63))) == 0) continue;
      const size_t pos =
          rank[o >> 6] +
          static_cast<size_t>(
              std::popcount(word & ((uint64_t{1} << (o & 63)) - 1)));
      const uint32_t* src = lt + (o - stream[r].begin) * w;
      std::copy(src, src + w, out.data() + pos * w);
    }
  });
  return out;
}

// Encoding-specialized key extraction for a hash join, shared by the
// materializing join and the fused join→DISTINCT. Invokes
// run(KeyTag<Key>{}, hash, bkey, pkey) with lambdas specialized for the
// key column pair, or returns false (without invoking run) when the
// encodings make the join provably empty: Value equality never crosses
// int64/double/string, so differently typed (non-mixed) key columns
// cannot match, and an all-NULL column joins nothing.
template <typename T>
struct KeyTag {
  using type = T;
};

template <typename Run>
bool WithTypedJoinKeys(const RowIdResult& build, const RowIdResult& probe,
                       const BoundColumn& bcol, const BoundColumn& pcol,
                       const ExecContext& ctx, AbortSlot& slot, Run run) {
  const Encoding be = bcol.col->encoding();
  const Encoding pe = pcol.col->encoding();
  const bool impossible = be == Encoding::kEmpty || pe == Encoding::kEmpty ||
                          (be != pe && be != Encoding::kMixed &&
                           pe != Encoding::kMixed);
  if (impossible) return false;

  if (be == Encoding::kInt64 && pe == Encoding::kInt64) {
    // int64-specialized kernel: raw key arrays, no Value, no Value::Hash.
    const ColumnVector& bc = *bcol.col;
    const ColumnVector& pc = *pcol.col;
    run(KeyTag<int64_t>{},
        [](int64_t k) { return MixInt64(static_cast<uint64_t>(k)); },
        [&](size_t i, int64_t* k) {
          const size_t id = build.RowId(bcol, i);
          if (bc.IsNull(id)) return false;
          *k = bc.Int64At(id);
          return true;
        },
        [&](size_t i, int64_t* k) {
          const size_t id = probe.RowId(pcol, i);
          if (pc.IsNull(id)) return false;
          *k = pc.Int64At(id);
          return true;
        });
    return true;
  }

  if (be == Encoding::kDouble && pe == Encoding::kDouble) {
    const ColumnVector& bc = *bcol.col;
    const ColumnVector& pc = *pcol.col;
    run(KeyTag<double>{}, [](double k) { return std::hash<double>{}(k); },
        [&](size_t i, double* k) {
          const size_t id = build.RowId(bcol, i);
          if (bc.IsNull(id)) return false;
          *k = bc.DoubleAt(id);
          return true;
        },
        [&](size_t i, double* k) {
          const size_t id = probe.RowId(pcol, i);
          if (pc.IsNull(id)) return false;
          *k = pc.DoubleAt(id);
          return true;
        });
    return true;
  }

  if (be == Encoding::kDictString && pe == Encoding::kDictString) {
    // Dictionary kernel: join on build-side codes. Both dictionaries are
    // deduplicated, so "strings equal" <=> "codes equal after translating
    // probe codes into the build dictionary" — one string lookup per
    // distinct probe value, zero per row. The probe side is translated in
    // one batched pass up front (simd::TranslateCodes follows
    // tuple→row-id→code→build-code per row), so the count and emit passes
    // both read a flat int32 array instead of re-deriving keys per probe
    // row per pass.
    const ColumnVector& bc = *bcol.col;
    const ColumnVector& pc = *pcol.col;
    const rel::StringDictionary& bd = bc.dict();
    const rel::StringDictionary& pd = pc.dict();
    const bool same_dict = &bd == &pd;
    auto bkey = [&](size_t i, uint32_t* k) {
      const size_t id = build.RowId(bcol, i);
      if (bc.IsNull(id)) return false;
      *k = bc.CodeAt(id);
      return true;
    };
    constexpr size_t kMaxCode =
        static_cast<size_t>(std::numeric_limits<int32_t>::max());
    if (bd.size() > kMaxCode || pd.size() > kMaxCode) {
      // Codes beyond int32 cannot ride the batched path; keep the
      // per-row translation (practically unreachable).
      std::vector<int64_t> trans;
      if (!same_dict) {
        trans.resize(pd.size());
        for (uint32_t code = 0; code < pd.size(); ++code) {
          std::optional<uint32_t> t = bd.Find(pd.At(code));
          trans[code] = t.has_value() ? static_cast<int64_t>(*t) : -1;
        }
      }
      run(KeyTag<uint32_t>{}, [](uint32_t k) { return MixInt64(k); }, bkey,
          [&](size_t i, uint32_t* k) {
            const size_t id = probe.RowId(pcol, i);
            if (pc.IsNull(id)) return false;
            const uint32_t code = pc.CodeAt(id);
            if (same_dict) {
              *k = code;
              return true;
            }
            const int64_t t = trans[code];
            if (t < 0) return false;
            *k = static_cast<uint32_t>(t);
            return true;
          });
      return true;
    }
    const size_t pn = probe.NumRows();
    ScopedCharge trans_charge;
    if (Status st = trans_charge.Acquire(
            ctx, pd.size() * sizeof(int32_t) + pn * sizeof(int32_t),
            "join probe-code translation");
        !st.ok()) {
      slot.Fail(std::move(st));
      return true;
    }
    std::vector<int32_t> trans(pd.size());
    if (same_dict) {
      for (uint32_t code = 0; code < pd.size(); ++code) {
        trans[code] = static_cast<int32_t>(code);
      }
    } else {
      for (uint32_t code = 0; code < pd.size(); ++code) {
        std::optional<uint32_t> t = bd.Find(pd.At(code));
        trans[code] = t.has_value() ? static_cast<int32_t>(*t) : -1;
      }
    }
    // pkeys[i] = build-dictionary code of probe row i, or -1 (NULL or
    // absent from the build dictionary — joins nothing either way).
    std::vector<int32_t> pkeys(pn);
    const size_t stride = probe.Width();
    const uint32_t* tuples = probe.tuples.data();
    const uint32_t* codes = pc.CodeData();
    const uint8_t* nulls = pc.NullMask();
    const bool poll = NeedsPoll(ctx);
    StridedRun(ctx, slot, poll, 0, pn, [&](size_t b, size_t e) {
      simd::TranslateCodes(tuples + b * stride, stride, pcol.slot, codes,
                           trans.data(), nulls, pkeys.data() + b, e - b);
    });
    if (slot.Failed()) return true;
    const int32_t* pk = pkeys.data();
    run(KeyTag<uint32_t>{}, [](uint32_t k) { return MixInt64(k); }, bkey,
        [pk](size_t i, uint32_t* k) {
          const int32_t t = pk[i];
          if (t < 0) return false;
          *k = static_cast<uint32_t>(t);
          return true;
        });
    return true;
  }

  // Generic fallback (a mixed-encoding key column): owned Value keys with
  // Value hashing/equality, same partitioned structure. Value::Hash of an
  // int64 is the identity, so it is mixed before its tag and partition
  // bits are read.
  run(KeyTag<rel::Value>{},
      [](const rel::Value& k) { return MixInt64(k.Hash()); },
      [&](size_t i, rel::Value* k) {
        rel::Value v = bcol.col->ValueAt(build.RowId(bcol, i));
        if (v.is_null()) return false;
        *k = std::move(v);
        return true;
      },
      [&](size_t i, rel::Value* k) {
        rel::Value v = pcol.col->ValueAt(probe.RowId(pcol, i));
        if (v.is_null()) return false;
        *k = std::move(v);
        return true;
      });
  return true;
}

}  // namespace

Executor::Executor(const rel::Database* db, ExecOptions options)
    : db_(db), options_(options) {
  if (options_.threads == 0) options_.threads = DefaultThreadCount();
}

Result<ResultSet> Executor::Execute(const PlanNode& plan,
                                    obs::ProfileNode* parent) const {
  GRAPHGEN_ASSIGN_OR_RETURN(RowIdResult result, ExecuteColumnar(plan, parent));
  GRAPHGEN_FAULT_POINT("query.materialize");
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Charge(
      result.NumRows() * result.Width() * sizeof(rel::Value),
      "materialized result values"));
  obs::ProfileNode* prof = OpNode(parent, "materialize_values");
  obs::Span span(prof);
  Result<ResultSet> out = result.Materialize(options_.threads);
  if (prof != nullptr && out.ok()) {
    prof->rows = static_cast<int64_t>(out->NumRows());
  }
  return out;
}

Result<RowIdResult> Executor::ExecuteColumnar(const PlanNode& plan,
                                              obs::ProfileNode* parent) const {
  switch (plan.kind()) {
    case PlanNode::Kind::kScan:
      return ScanColumnar(static_cast<const ScanNode&>(plan), parent);
    case PlanNode::Kind::kHashJoin:
      return JoinColumnar(static_cast<const HashJoinNode&>(plan), parent);
    case PlanNode::Kind::kProject:
      return ProjectColumnar(static_cast<const ProjectNode&>(plan), parent);
  }
  return Status::Internal("unknown plan node type");
}

// ---------------------------------------------------------------- columnar

Result<RowIdResult> Executor::ScanColumnar(const ScanNode& node,
                                           obs::ProfileNode* parent) const {
  GRAPHGEN_FAULT_POINT("query.scan");
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
  obs::ProfileNode* prof = OpNode(parent, "scan", node.table());
  obs::Span span(prof);
  GRAPHGEN_ASSIGN_OR_RETURN(const rel::Table* table,
                            db_->GetTable(node.table()));
  for (const Predicate& p : node.predicates()) {
    if (p.column >= table->NumColumns()) {
      return Status::PlanError("predicate column out of range for table " +
                               node.table());
    }
  }
  for (const SemiJoin& sj : node.semi_joins()) {
    if (sj.column >= table->NumColumns()) {
      return Status::PlanError("semi-join column out of range for table " +
                               node.table());
    }
  }
  const size_t n = table->NumRows();
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::Unsupported("table " + node.table() +
                               " exceeds 2^32 rows");
  }
  // Delta scans range the row window to [row_begin, row_end) ∩ [0, n);
  // the full-table default leaves rb = 0, re = n.
  const size_t rb = std::min(node.row_begin(), n);
  const size_t re = std::max(rb, std::min(node.row_end(), n));
  const size_t rows_in = re - rb;
  RowIdResult out;
  out.schema = table->schema();
  out.origins.assign(table->NumColumns(), node.table());
  out.sources = {table};
  out.columns.resize(table->NumColumns());
  for (size_t c = 0; c < table->NumColumns(); ++c) {
    out.columns[c] = {0, static_cast<uint32_t>(c)};
  }
  Metrics().scan_rows_in->Add(rows_in);
  if (node.predicates().empty() && node.semi_joins().empty()) {
    GRAPHGEN_RETURN_NOT_OK(options_.ctx.Charge(rows_in * sizeof(uint32_t),
                                               "scan selection vector"));
    out.tuples.resize(rows_in);
    ParallelFor(
        rows_in,
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            out.tuples[i] = static_cast<uint32_t>(rb + i);
          }
        },
        options_.threads);
    Metrics().scan_rows_out->Add(rows_in);
    if (prof != nullptr) {
      prof->rows = static_cast<int64_t>(rows_in);
      prof->AddStat("rows_in", static_cast<double>(rows_in));
    }
    return out;
  }

  // Compile each predicate/filter against its column's physical encoding,
  // then evaluate column-at-a-time over morsel-sized sub-ranges into a
  // byte mask; the in-order collect makes the selection vector identical
  // to a serial scan's for every thread count.
  std::vector<CompiledPredicate> preds;
  preds.reserve(node.predicates().size());
  for (const Predicate& p : node.predicates()) {
    preds.push_back(CompilePredicate(table->column(p.column), p));
  }
  std::vector<CompiledSemiJoin> filters;
  filters.reserve(node.semi_joins().size());
  for (const SemiJoin& sj : node.semi_joins()) {
    filters.push_back(CompileSemiJoin(table->column(sj.column), sj));
  }

  // The keep mask stays table-sized because the compiled kernels index
  // absolute row ids; only [rb, re) is ever evaluated or collected, so a
  // narrow delta window does proportionally little work.
  ScopedCharge keep_charge;
  GRAPHGEN_RETURN_NOT_OK(
      keep_charge.Acquire(options_.ctx, n, "scan keep mask"));
  std::vector<uint8_t> keep(n, 1);
  const size_t ways =
      (options_.threads > 1 && rows_in >= kParallelScanThreshold)
          ? options_.threads
          : 1;
  const bool poll = NeedsPoll(options_.ctx);
  AbortSlot slot;
  ParallelForRanges(EqualRanges(rows_in, ways), [&](size_t begin, size_t end) {
    for (size_t mb = rb + begin; mb < rb + end; mb += kScanMorselRows) {
      if (poll && !slot.Continue(options_.ctx)) return;
      const size_t me = std::min(rb + end, mb + kScanMorselRows);
      for (const CompiledPredicate& cp : preds) {
        cp.Apply(mb, me, keep.data());
      }
      for (const CompiledSemiJoin& cf : filters) {
        cf.Apply(mb, me, keep.data());
      }
    }
  });
  GRAPHGEN_RETURN_NOT_OK(slot.Take());
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Charge(rows_in * sizeof(uint32_t),
                                             "scan selection vector"));
  out.tuples.reserve(rows_in);
  for (size_t i = rb; i < re; ++i) {
    if (keep[i] != 0) out.tuples.push_back(static_cast<uint32_t>(i));
  }
  Metrics().scan_rows_out->Add(out.tuples.size());
  if (prof != nullptr) {
    prof->rows = static_cast<int64_t>(out.tuples.size());
    prof->AddStat("rows_in", static_cast<double>(rows_in));
    prof->AddStat("predicates", static_cast<double>(node.predicates().size()));
    prof->AddStat("semi_joins", static_cast<double>(node.semi_joins().size()));
    prof->AddStat("morsels", static_cast<double>(
        (rows_in + kScanMorselRows - 1) / kScanMorselRows));
  }
  return out;
}

template <typename Emit>
Result<RowIdResult> Executor::RunHashJoin(const HashJoinNode& join,
                                          obs::ProfileNode* prof,
                                          Emit emit) const {
  GRAPHGEN_ASSIGN_OR_RETURN(RowIdResult left,
                            ExecuteColumnar(join.left(), prof));
  GRAPHGEN_ASSIGN_OR_RETURN(RowIdResult right,
                            ExecuteColumnar(join.right(), prof));
  if (join.left_col() >= left.schema.NumColumns() ||
      join.right_col() >= right.schema.NumColumns()) {
    return Status::PlanError("join column out of range");
  }
  const bool build_left = left.NumRows() <= right.NumRows();
  const JoinSides sides{build_left ? left : right, build_left ? right : left,
                        build_left, left.Width(), right.Width()};
  // FlatChainTable chains build rows through int32 indices.
  if (sides.build.NumRows() > std::numeric_limits<int32_t>::max()) {
    return Status::Unsupported("join build side exceeds 2^31 rows");
  }
  // The join's output metadata (concatenated sources/bindings, qualified
  // schema); `emit` fills its tuples or leaves them to a fused consumer.
  RowIdResult joined;
  joined.sources = left.sources;
  joined.sources.insert(joined.sources.end(), right.sources.begin(),
                        right.sources.end());
  joined.columns = left.columns;
  for (const ColumnBinding& b : right.columns) {
    joined.columns.push_back(
        {static_cast<uint32_t>(b.source + sides.lw), b.column});
  }
  JoinOutputSchema(left.schema, left.origins, right.schema, right.origins,
                   &joined.schema, &joined.origins);

  const BoundColumn bcol =
      sides.build.Bind(build_left ? join.left_col() : join.right_col());
  const BoundColumn pcol =
      sides.probe.Bind(build_left ? join.right_col() : join.left_col());
  size_t matches = 0;
  JoinProfInfo info;
  AbortSlot slot;
  // An impossible key-encoding pair (WithTypedJoinKeys returns false)
  // never reaches `emit`: correct schema/bindings, no rows.
  WithTypedJoinKeys(
      sides.build, sides.probe, bcol, pcol, options_.ctx, slot,
      [&](auto tag, auto hash, auto bkey, auto pkey) {
        using Key = typename decltype(tag)::type;
        JoinBuild<Key> jb = BuildAndCountJoin<Key>(
            sides.build.NumRows(), sides.probe.NumRows(), options_.threads,
            hash, bkey, pkey, options_.ctx, slot);
        if (slot.Failed()) return;
        FillJoinProfInfo(jb, sides.build.NumRows(),
                         prof != nullptr ? &info : nullptr);
        matches = jb.matches;
        emit(jb, hash, pkey, sides, joined, slot);
      });
  GRAPHGEN_RETURN_NOT_OK(slot.Take());
  Metrics().join_build_rows->Add(sides.build.NumRows());
  Metrics().join_probe_rows->Add(sides.probe.NumRows());
  Metrics().join_matches->Add(matches);
  if (prof != nullptr) {
    prof->rows = static_cast<int64_t>(matches);
    prof->AddStat("build_rows", static_cast<double>(sides.build.NumRows()));
    prof->AddStat("probe_rows", static_cast<double>(sides.probe.NumRows()));
    prof->AddStat("partitions", static_cast<double>(info.build.partitions));
    prof->AddStat("partition_rows_max",
                  static_cast<double>(info.build.rows_max));
    if (info.capacity > 0) {
      prof->AddStat("load_factor", static_cast<double>(info.build_keys) /
                                       static_cast<double>(info.capacity));
    }
    prof->AddNote("build_side", build_left ? "left" : "right");
  }
  return joined;
}

Result<RowIdResult> Executor::JoinColumnar(const HashJoinNode& join,
                                           obs::ProfileNode* parent) const {
  GRAPHGEN_FAULT_POINT("query.join.build.alloc");
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
  obs::ProfileNode* prof = OpNode(parent, "hash_join");
  obs::Span span(prof);
  return RunHashJoin(join, prof,
                     [&](const auto& jb, auto hash, auto pkey,
                         const JoinSides& s, RowIdResult& joined,
                         AbortSlot& slot) {
                       joined.tuples = MaterializeJoin(jb, hash, pkey, s,
                                                       options_.ctx, slot);
                     });
}

Result<RowIdResult> Executor::JoinDistinctColumnar(
    const ProjectNode& node, obs::ProfileNode* parent) const {
  GRAPHGEN_FAULT_POINT("query.join_distinct.alloc");
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
  obs::ProfileNode* prof = OpNode(parent, "join_distinct");
  obs::Span span(prof);
  size_t matches = 0;
  size_t morsels = 0;
  PartitionStats merge;
  std::optional<RowIdResult> fused;  // set iff the fused branch ran
  GRAPHGEN_ASSIGN_OR_RETURN(
      RowIdResult joined,
      RunHashJoin(
          static_cast<const HashJoinNode&>(node.child()), prof,
          [&](const auto& jb, auto hash, auto pkey, const JoinSides& s,
              RowIdResult& joined, AbortSlot& slot) {
            matches = jb.matches;
            if (matches * (s.lw + s.rw) * sizeof(uint32_t) <
                kFuseMinOutputBytes) {
              joined.tuples =
                  MaterializeJoin(jb, hash, pkey, s, options_.ctx, slot);
              return;
            }
            // Stream the matches straight into the first-occurrence sets;
            // the join's tuple vector is never built.
            RowIdResult out;
            if (Status st = ProjectMetadata(node, joined, &out); !st.ok()) {
              slot.Fail(std::move(st));
              return;
            }
            std::vector<DistinctCol> cols;
            cols.reserve(node.columns().size());
            for (size_t c : node.columns()) {
              cols.push_back(DistinctCol::Make(joined.Bind(c)));
            }
            for (size_t c : jb.counts) {
              morsels += (c + kFusedMorselRows - 1) / kFusedMorselRows;
            }
            out.tuples = FuseJoinDistinct(jb, hash, pkey, s, cols,
                                          options_.threads, options_.ctx,
                                          slot, &merge);
            fused = std::move(out);
          }));
  (fused.has_value() ? Metrics().fused_pipelines : Metrics().unfused_pipelines)
      ->Add(1);
  if (prof != nullptr) {
    prof->AddStat("join_matches", static_cast<double>(matches));
    prof->AddStat("est_join_bytes", static_cast<double>(
                                        matches * joined.Width() *
                                        sizeof(uint32_t)));
    prof->AddNote("fused", fused.has_value() ? "yes" : "no");
  }
  if (!fused.has_value()) {
    // Below the fusion threshold (or an impossible key pairing): the
    // materialized join runs through the ordinary projection tail.
    return ProjectFromChild(node, std::move(joined), prof);
  }
  Metrics().distinct_rows_in->Add(matches);
  Metrics().distinct_rows_out->Add(fused->NumRows());
  if (prof != nullptr) {
    prof->rows = static_cast<int64_t>(fused->NumRows());
    prof->AddStat("morsels", static_cast<double>(morsels));
    prof->AddStat("distinct_partitions", static_cast<double>(merge.partitions));
    prof->AddStat("distinct_partition_rows_max",
                  static_cast<double>(merge.rows_max));
  }
  return std::move(*fused);
}

Result<RowIdResult> Executor::ProjectColumnar(const ProjectNode& node,
                                              obs::ProfileNode* parent) const {
  if (node.distinct() && node.child().kind() == PlanNode::Kind::kHashJoin) {
    return JoinDistinctColumnar(node, parent);
  }
  obs::ProfileNode* prof =
      OpNode(parent, node.distinct() ? "project_distinct" : "project");
  obs::Span span(prof);
  GRAPHGEN_ASSIGN_OR_RETURN(RowIdResult child,
                            ExecuteColumnar(node.child(), prof));
  return ProjectFromChild(node, std::move(child), prof);
}

Result<RowIdResult> Executor::ProjectFromChild(const ProjectNode& node,
                                               RowIdResult child,
                                               obs::ProfileNode* prof) const {
  GRAPHGEN_FAULT_POINT("query.distinct.alloc");
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
  RowIdResult out;
  GRAPHGEN_RETURN_NOT_OK(ProjectMetadata(node, child, &out));
  if (!node.distinct()) {
    out.tuples = std::move(child.tuples);
    if (prof != nullptr) prof->rows = static_cast<int64_t>(out.NumRows());
    return out;
  }

  // DISTINCT: keep the first occurrence of every projected key, in input
  // order. Hashing and equality run on the typed base columns (raw int64
  // arrays, dictionary codes) — a row never materializes a Value. Parallel
  // mode scatters the rows by key hash once (HashPartitions); each
  // partition worker visits its own rows in ascending index order, so its
  // first occurrences are exactly the globally-first occurrences of its
  // keys. Both modes mark first occurrences in a per-row keep byte, and
  // one in-order pass over the keep bytes compacts the input, so parallel
  // output is the serial output bit for bit.
  const size_t n = child.NumRows();
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::Unsupported("DISTINCT input exceeds 2^32 rows");
  }
  std::vector<DistinctCol> cols;
  cols.reserve(node.columns().size());
  for (size_t c : node.columns()) {
    cols.push_back(DistinctCol::Make(child.Bind(c)));
  }

  const size_t w = child.Width();
  // Hash array, first-occurrence slot tables and per-row keep bytes are
  // DISTINCT scratch, refunded when the operator returns; the poll stride
  // keeps an armed deadline responsive even on a single huge partition.
  ScopedCharge scratch;
  GRAPHGEN_RETURN_NOT_OK(scratch.Acquire(
      options_.ctx,
      n * (sizeof(uint64_t) + sizeof(uint8_t)) +
          TableCapacity(n) * (sizeof(uint32_t) + sizeof(uint8_t)),
      "DISTINCT hash scratch"));
  const bool poll = NeedsPoll(options_.ctx);
  AbortSlot slot;
  std::vector<uint64_t> hashes(n);
  ParallelFor(
      n,
      [&](size_t begin, size_t end) {
        StridedRun(options_.ctx, slot, poll, begin, end,
                   [&](size_t b, size_t e) {
                     for (size_t i = b; i < e; ++i) {
                       // FNV combine + final avalanche (the flat set masks
                       // low bits).
                       hashes[i] = DistinctHash(cols, &child.tuples[i * w]);
                     }
                   });
      },
      options_.threads);
  GRAPHGEN_RETURN_NOT_OK(slot.Take());

  PartitionStats stats{
      (options_.threads > 1 && n >= kParallelDistinctThreshold)
          ? std::min(options_.threads, kMaxPartitions)
          : 1,
      n};
  // Every row's keep byte is written exactly once, by the one worker
  // that owns the row.
  auto keep = std::make_unique_for_overwrite<uint8_t[]>(n);
  if (stats.partitions == 1) {
    FlatDistinctSet seen(n, hashes, child, cols);
    StridedRun(options_.ctx, slot, poll, 0, n, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        if (i + 2 * kProbePrefetchDist < n) {
          seen.PrefetchSlot(static_cast<uint32_t>(i + 2 * kProbePrefetchDist));
        }
        if (i + kProbePrefetchDist < n) {
          seen.WarmProbe(static_cast<uint32_t>(i + kProbePrefetchDist));
        }
        keep[i] = seen.Insert(static_cast<uint32_t>(i)) ? 1 : 0;
      }
    });
  } else {
    const size_t ways = stats.partitions;
    // The scatter's row order: 4 bytes a row.
    GRAPHGEN_RETURN_NOT_OK(options_.ctx.Charge(n * sizeof(uint32_t),
                                               "DISTINCT partition scratch"));
    scratch.Grow(n * sizeof(uint32_t));
    const HashPartitions parts(
        EqualRanges(n, ways), ways,
        [&](size_t, size_t i) { return PartitionOf(hashes[i], ways); });
    stats.rows_max = parts.MaxRows();
    ParallelInvoke(ways, [&](size_t p) {
      const std::span<const uint32_t> mine = parts.Rows(p);
      FlatDistinctSet seen(mine.size(), hashes, child, cols);
      StridedRun(options_.ctx, slot, poll, 0, mine.size(),
                 [&](size_t b, size_t e) {
                   for (size_t j = b; j < e; ++j) {
                     if (j + 2 * kProbePrefetchDist < mine.size()) {
                       seen.PrefetchSlot(mine[j + 2 * kProbePrefetchDist]);
                     }
                     if (j + kProbePrefetchDist < mine.size()) {
                       seen.WarmProbe(mine[j + kProbePrefetchDist]);
                     }
                     keep[mine[j]] = seen.Insert(mine[j]) ? 1 : 0;
                   }
                 });
    });
  }
  GRAPHGEN_RETURN_NOT_OK(slot.Take());
  // Compact the input's tuples in place: survivors keep input order,
  // and no output buffer is allocated. Row i moves to slot kept <= i,
  // so no tuple is overwritten before it is read.
  size_t kept = 0;
  out.tuples = std::move(child.tuples);
  uint32_t* tuples = out.tuples.data();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < w; ++j) tuples[kept * w + j] = tuples[i * w + j];
    kept += keep[i];
  }
  out.tuples.resize(kept * w);

  Metrics().distinct_rows_in->Add(n);
  Metrics().distinct_rows_out->Add(kept);
  if (prof != nullptr) {
    prof->rows = static_cast<int64_t>(kept);
    prof->AddStat("distinct_in", static_cast<double>(n));
    prof->AddStat("distinct_partitions", static_cast<double>(stats.partitions));
    prof->AddStat("distinct_partition_rows_max",
                  static_cast<double>(stats.rows_max));
  }
  return out;
}

}  // namespace graphgen::query
