#ifndef GRAPHGEN_PLANNER_EXTRACTOR_INTERNAL_H_
#define GRAPHGEN_PLANNER_EXTRACTOR_INTERNAL_H_

// Shared plumbing between the cold extraction pipeline (extractor.cc) and
// the incremental delta-patch path (incremental.cc): typed endpoint
// readers, key→id resolvers, the concurrent plan runner, and the
// canonical virtual-node renumbering that makes the two paths produce
// bitwise-identical graphs. Not part of the public planner API.

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "graph/storage.h"
#include "planner/extractor.h"
#include "planner/incremental.h"
#include "planner/typed_maps.h"
#include "query/executor.h"

namespace graphgen::planner {

// Serial assembly loops only pay the strided deadline/cancel poll when
// the context can actually fire.
inline bool NeedsCtxPoll(const ExecContext& ctx) {
  return ctx.cancel.cancellable() || ctx.has_deadline;
}

// Output of one executed extraction query.
struct ExecOutput {
  Status status = Status::OK();
  query::RowIdResult rows;

  size_t NumRows() const { return rows.NumRows(); }
};

// One endpoint column of an executed query result, read without Value
// construction whenever the storage is typed: raw int64 keys or raw
// dictionary codes, per-row Values only for mixed columns.
class EndpointColumn {
 public:
  enum class Kind { kInt64, kDict, kValue };

  EndpointColumn(const ExecOutput& out, size_t col)
      : rows_(&out.rows), b_(out.rows.Bind(col)) {
    switch (b_.col->encoding()) {
      case rel::ColumnVector::Encoding::kInt64:
        kind_ = Kind::kInt64;
        break;
      case rel::ColumnVector::Encoding::kDictString:
        kind_ = Kind::kDict;
        break;
      default:
        kind_ = Kind::kValue;
        break;
    }
  }

  Kind kind() const { return kind_; }

  bool IsNull(size_t row) const {
    return b_.col->encoding() == rel::ColumnVector::Encoding::kEmpty ||
           b_.col->IsNull(rows_->RowId(b_, row));
  }
  int64_t Int64(size_t row) const {
    return b_.col->Int64At(rows_->RowId(b_, row));
  }
  uint32_t Code(size_t row) const {
    return b_.col->CodeAt(rows_->RowId(b_, row));
  }
  const rel::StringDictionary& dict() const { return b_.col->dict(); }
  rel::Value ValueAt(size_t row) const {
    return b_.col->ValueAt(rows_->RowId(b_, row));
  }

 private:
  const query::RowIdResult* rows_;
  query::BoundColumn b_;
  Kind kind_ = Kind::kValue;
};

// Resolves endpoint keys of one result column against a const TypedIdMap
// (the real-node table). Dictionary columns memoize the answer per code —
// one string probe per *distinct* value, raw array reads per row; int64
// columns probe the flat table directly. Rows must be non-NULL.
class RealNodeResolver {
 public:
  RealNodeResolver(const EndpointColumn& col, const TypedIdMap& ids)
      : col_(col), ids_(ids) {
    if (col_.kind() == EndpointColumn::Kind::kDict) {
      code_cache_.assign(col_.dict().size(), kUnresolved);
    }
  }

  // True with *id set when the key binds a real node; false when dangling.
  bool Resolve(size_t row, NodeId* id) {
    switch (col_.kind()) {
      case EndpointColumn::Kind::kInt64: {
        const uint32_t f = ids_.ints.Find(col_.Int64(row));
        if (f == FlatInt64Map::kNotFound) return false;
        *id = f;
        return true;
      }
      case EndpointColumn::Kind::kDict: {
        int64_t& c = code_cache_[col_.Code(row)];
        if (c == kUnresolved) {
          std::optional<uint32_t> f =
              ids_.FindString(col_.dict().At(col_.Code(row)));
          c = f.has_value() ? static_cast<int64_t>(*f) : kDangling;
        }
        if (c < 0) return false;
        *id = static_cast<NodeId>(c);
        return true;
      }
      case EndpointColumn::Kind::kValue: {
        std::optional<uint32_t> f = ids_.FindValue(col_.ValueAt(row));
        if (!f.has_value()) return false;
        *id = *f;
        return true;
      }
    }
    return false;
  }

 private:
  static constexpr int64_t kUnresolved = -2;
  static constexpr int64_t kDangling = -1;

  EndpointColumn col_;
  const TypedIdMap& ids_;
  std::vector<int64_t> code_cache_;  // dict code → node id / kDangling
};

// Resolves boundary keys of one result column to virtual-node ids,
// allocating the next id of `num_virtual` on first sight (the caller
// grows its storage to match). Allocation order is irrelevant to the final
// graph: after assembly the extractor renumbers every virtual node into
// canonical key-sorted order (CanonicalVirtualOrder), which is what
// makes a delta-patched graph bitwise identical to a fresh extraction.
// Rows must be non-NULL.
class VirtualNodeResolver {
 public:
  VirtualNodeResolver(const EndpointColumn& col, TypedIdMap& keys,
                      uint32_t& num_virtual)
      : col_(col), keys_(keys), num_virtual_(num_virtual) {
    if (col_.kind() == EndpointColumn::Kind::kDict) {
      code_cache_.assign(col_.dict().size(), kUnresolved);
    }
  }

  NodeRef Resolve(size_t row) {
    switch (col_.kind()) {
      case EndpointColumn::Kind::kInt64:
        return NodeRef::Virtual(keys_.ints.GetOrInsert(
            col_.Int64(row), [this] { return num_virtual_++; }));
      case EndpointColumn::Kind::kDict: {
        int64_t& c = code_cache_[col_.Code(row)];
        if (c < 0) {
          const std::string& s = col_.dict().At(col_.Code(row));
          auto it = keys_.strings.find(std::string_view(s));
          if (it == keys_.strings.end()) {
            it = keys_.strings.emplace(s, num_virtual_++).first;
          }
          c = it->second;
        }
        return NodeRef::Virtual(static_cast<uint32_t>(c));
      }
      case EndpointColumn::Kind::kValue:
      default:
        return NodeRef::Virtual(keys_.GetOrInsertValue(
            col_.ValueAt(row), [this] { return num_virtual_++; }));
    }
  }

 private:
  static constexpr int64_t kUnresolved = -1;

  EndpointColumn col_;
  TypedIdMap& keys_;
  uint32_t& num_virtual_;
  std::vector<int64_t> code_cache_;  // dict code → virtual id
};

// Packed (from, to) condensed edge, the key of the per-(rule, segment)
// emitted-pair sets that deduplicate delta emissions against the basis.
inline uint64_t PackPair(NodeRef from, NodeRef to) {
  return (static_cast<uint64_t>(from.raw()) << 32) | to.raw();
}

// Applies a virtual-node permutation to one packed NodeRef raw value.
inline uint32_t RemapRaw(uint32_t raw, const std::vector<uint32_t>& perm) {
  if ((raw & NodeRef::kVirtualBit) == 0) return raw;
  return perm[raw & ~NodeRef::kVirtualBit] | NodeRef::kVirtualBit;
}

// Renumbers a (rule, segment) pair set's virtual endpoints through the
// canonical permutation and restores its stored form: sorted,
// duplicate-free and exact-size.
inline void RemapPairSet(std::vector<uint64_t>& pairs,
                         const std::vector<uint32_t>& perm) {
  for (uint64_t& pair : pairs) {
    pair = (static_cast<uint64_t>(
                RemapRaw(static_cast<uint32_t>(pair >> 32), perm))
            << 32) |
           RemapRaw(static_cast<uint32_t>(pair), perm);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  pairs.shrink_to_fit();
}

// Injective, type-tagged encoding of one projected Nodes-rule tuple,
// written into `out` (cleared first so callers reuse one buffer). `row`
// is a row of the rule's table: Nodes plans are single-atom, so every
// column of `rows` binds that one table, and any of its rows can be
// encoded through the same bindings — a delta row, or a stored
// first-occurrence row being rechecked. Same DISTINCT semantics as the
// fresh path: Value equality never crosses int64/double/string; doubles
// encode their bit pattern so no two distinct values collide.
inline void EncodeNodeTuple(const query::RowIdResult& rows, size_t row,
                            size_t ncols, std::string& out) {
  auto append64 = [&out](uint64_t bits) {
    for (int b = 0; b < 8; ++b) {
      out.push_back(static_cast<char>((bits >> (b * 8)) & 0xff));
    }
  };
  out.clear();
  for (size_t c = 0; c < ncols; ++c) {
    const query::BoundColumn b = rows.Bind(c);
    if (b.col->encoding() == rel::ColumnVector::Encoding::kEmpty ||
        b.col->IsNull(row)) {
      out.push_back('\0');
      continue;
    }
    const rel::Value v = b.col->ValueAt(row);
    switch (v.type()) {
      case rel::ValueType::kInt64:
        out.push_back('i');
        append64(static_cast<uint64_t>(v.AsInt64()));
        break;
      case rel::ValueType::kDouble: {
        out.push_back('d');
        uint64_t bits = 0;
        const double d = v.AsDouble();
        std::memcpy(&bits, &d, sizeof(bits));
        append64(bits);
        break;
      }
      case rel::ValueType::kString: {
        const std::string& str = v.AsString();
        out.push_back('s');
        append64(str.size());
        out.append(str);
        break;
      }
      default:
        out.push_back('\0');
        break;
    }
  }
}

// Table row of result row `ri` of a single-atom (Nodes) plan.
inline uint32_t NodeTupleRow(const query::RowIdResult& rows, size_t ri) {
  return static_cast<uint32_t>(rows.RowId(rows.Bind(0), ri));
}

// The NodeTupleSet fingerprint of one EncodeNodeTuple encoding. It never
// leaves the process, so the standard library hash serves; collisions
// only cost a recheck.
inline uint64_t NodeTupleFingerprint(std::string_view bytes) {
  return std::hash<std::string_view>{}(bytes);
}

// Merges (fingerprint, row) entries into `set`, keeping it sorted and
// exact-size. `added` is sorted in place; its entries must be tuples the
// set does not hold (each DISTINCT tuple is added once).
void SpliceNodeTuples(NodeTupleSet& set,
                      std::vector<std::pair<uint64_t, uint32_t>>& added);

// Executes every plan, independent queries concurrently (see extractor.cc
// for the threading contract). Results land at the plan's index so callers
// consume them in deterministic order.
std::vector<ExecOutput> RunPlans(
    const rel::Database& db, const std::vector<const query::PlanNode*>& plans,
    const ExtractOptions& options,
    const std::vector<obs::ProfileNode*>* profs = nullptr);

// Translates one Nodes rule into its DISTINCT projection plan, optionally
// with the key scan ranged to [row_begin, row_end) (the delta-scan mode).
Result<std::unique_ptr<query::PlanNode>> BuildNodesPlan(const dsl::Rule& rule,
                                                        size_t row_begin = 0,
                                                        size_t row_end =
                                                            SIZE_MAX);

// One boundary's key→virtual-id map, tagged with its canonical position:
// key = (edge rule index << 32) | boundary atom index.
struct BoundaryMapRef {
  uint64_t key = 0;
  TypedIdMap* map = nullptr;
};

// The canonical order of `nv` virtual nodes — maps sorted by
// (rule, boundary), keys within a map sorted ints-numeric, then strings
// lexicographic, then other Values by operator< — as a permutation (old
// id → new id). Rewrites the maps' ids in place. The fresh pipeline
// applies it to its storage (PermuteVirtualNodes, then SortAdjacency);
// both pipelines remap their packed-pair bookkeeping through it. It is
// the reason emission and allocation order never show in the final graph.
std::vector<uint32_t> CanonicalVirtualOrder(size_t nv,
                                            std::vector<BoundaryMapRef> maps);

}  // namespace graphgen::planner

#endif  // GRAPHGEN_PLANNER_EXTRACTOR_INTERNAL_H_
