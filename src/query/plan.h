#ifndef GRAPHGEN_QUERY_PLAN_H_
#define GRAPHGEN_QUERY_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "relational/schema.h"
#include "relational/table.h"

namespace graphgen::query {

/// A fully materialized query result (Executor::Execute's output).
struct ResultSet {
  rel::Schema schema;
  std::vector<rel::Row> rows;

  size_t NumRows() const { return rows.size(); }
};

/// Comparison operators for selection predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view CompareOpToString(CompareOp op);

/// column <op> constant.
struct Predicate {
  size_t column = 0;
  CompareOp op = CompareOp::kEq;
  rel::Value constant;

  /// Evaluates the predicate against a single cell (Value semantics:
  /// equality never crosses int64/double, ordering is numeric).
  bool MatchesValue(const rel::Value& v) const;
};

/// A membership set for semi-join pushdown: the extractor collects every
/// node key once and scans of edge-rule base tables drop rows whose
/// endpoint key cannot possibly bind a real node. Keys are bucketed by
/// type so typed scan paths probe flat int64/string sets instead of
/// hashing Values.
struct KeyFilter {
  std::unordered_set<int64_t> ints;
  std::unordered_set<std::string> strings;
  /// Doubles and other oddballs; NULL is never a member.
  std::unordered_set<rel::Value, rel::ValueHash> others;

  bool Contains(const rel::Value& v) const;
  size_t size() const { return ints.size() + strings.size() + others.size(); }
};

/// One semi-join filter attached to a scan: keep only rows whose `column`
/// value is a member of `keys`.
struct SemiJoin {
  size_t column = 0;
  std::shared_ptr<const KeyFilter> keys;
};

/// Base class of the (tiny) logical/physical plan tree. Plans are built by
/// the GraphGen translation layer (§3.3) and executed by Executor. ToSql()
/// renders the equivalent SQL text, mirroring the queries GraphGen would
/// send to PostgreSQL (paper Fig. 16).
class PlanNode {
 public:
  /// Closed set of physical operators. The executor dispatches on this tag
  /// (one predictable switch) instead of a dynamic_cast chain.
  enum class Kind { kScan, kHashJoin, kProject };

  virtual ~PlanNode() = default;
  Kind kind() const { return kind_; }
  virtual std::string ToSql() const = 0;

 protected:
  explicit PlanNode(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
};

/// Sequential scan of a base table with optional predicates and optional
/// semi-join key filters (Nodes-filter pushdown).
///
/// A scan can additionally be *ranged* to a half-open row-id window
/// [row_begin, row_end): the delta-scan mode of incremental extraction,
/// which reads only the rows a table gained past a watermark. The window
/// clamps to the table's current row count at execution time; the default
/// window covers the whole table and costs nothing on the hot paths.
class ScanNode : public PlanNode {
 public:
  ScanNode(std::string table, std::vector<Predicate> predicates = {})
      : PlanNode(Kind::kScan),
        table_(std::move(table)),
        predicates_(std::move(predicates)) {}

  const std::string& table() const { return table_; }
  const std::vector<Predicate>& predicates() const { return predicates_; }
  const std::vector<SemiJoin>& semi_joins() const { return semi_joins_; }
  void AddSemiJoin(size_t column, std::shared_ptr<const KeyFilter> keys) {
    semi_joins_.push_back({column, std::move(keys)});
  }
  void SetRowRange(size_t begin, size_t end) {
    row_begin_ = begin;
    row_end_ = end;
  }
  size_t row_begin() const { return row_begin_; }
  size_t row_end() const { return row_end_; }
  bool IsRanged() const { return row_begin_ != 0 || row_end_ != SIZE_MAX; }
  std::string ToSql() const override;

 private:
  std::string table_;
  std::vector<Predicate> predicates_;
  std::vector<SemiJoin> semi_joins_;
  size_t row_begin_ = 0;
  size_t row_end_ = SIZE_MAX;
};

/// Hash equi-join on one column from each side. Output schema is the
/// concatenation of left and right schemas.
class HashJoinNode : public PlanNode {
 public:
  HashJoinNode(std::unique_ptr<PlanNode> left, std::unique_ptr<PlanNode> right,
               size_t left_col, size_t right_col)
      : PlanNode(Kind::kHashJoin),
        left_(std::move(left)),
        right_(std::move(right)),
        left_col_(left_col),
        right_col_(right_col) {}

  const PlanNode& left() const { return *left_; }
  const PlanNode& right() const { return *right_; }
  size_t left_col() const { return left_col_; }
  size_t right_col() const { return right_col_; }
  std::string ToSql() const override;

 private:
  std::unique_ptr<PlanNode> left_;
  std::unique_ptr<PlanNode> right_;
  size_t left_col_;
  size_t right_col_;
};

/// Projection with optional DISTINCT and column renaming.
class ProjectNode : public PlanNode {
 public:
  ProjectNode(std::unique_ptr<PlanNode> child, std::vector<size_t> columns,
              std::vector<std::string> output_names, bool distinct)
      : PlanNode(Kind::kProject),
        child_(std::move(child)),
        columns_(std::move(columns)),
        output_names_(std::move(output_names)),
        distinct_(distinct) {}

  const PlanNode& child() const { return *child_; }
  const std::vector<size_t>& columns() const { return columns_; }
  const std::vector<std::string>& output_names() const { return output_names_; }
  bool distinct() const { return distinct_; }
  std::string ToSql() const override;

 private:
  std::unique_ptr<PlanNode> child_;
  std::vector<size_t> columns_;
  std::vector<std::string> output_names_;
  bool distinct_;
};

}  // namespace graphgen::query

#endif  // GRAPHGEN_QUERY_PLAN_H_
