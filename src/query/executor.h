#ifndef GRAPHGEN_QUERY_EXECUTOR_H_
#define GRAPHGEN_QUERY_EXECUTOR_H_

#include "common/cancel.h"
#include "common/status.h"
#include "obs/profile.h"
#include "query/columnar.h"
#include "query/plan.h"
#include "relational/database.h"

namespace graphgen::query {

struct ExecOptions {
  /// Worker threads for intra-operator parallelism (0 = hardware default,
  /// 1 = fully serial). Results are identical for every value.
  size_t threads = 0;
  /// Fuse DISTINCT projections directly into the hash join beneath them:
  /// probe matches feed the first-occurrence set per morsel instead of
  /// materializing the intermediate row-id tuple vector. Output is
  /// bitwise-identical either way (the parity suite proves it); the switch
  /// exists so benches and tests can exercise both operator chains.
  bool fuse_join_distinct = true;
  /// Fusion pays when the join output is too big to stay cache-resident
  /// (the morsel pipeline trades a second pass over materialized tuples
  /// for streaming dedup); below this estimated output size the operator
  /// materializes and runs the classic DISTINCT, which is faster in
  /// cache. The join build's chain lengths give the exact output size
  /// *before* any tuple is emitted, so the choice is free. 0 forces the
  /// fused pipeline for any size (tests).
  size_t fuse_min_output_bytes = size_t{32} << 20;
  /// Request lifecycle context: cooperative cancel flag, deadline, and
  /// transient-memory budget. Every operator polls it at morsel/stride
  /// boundaries and charges its big allocations, so a cancelled, expired,
  /// or over-budget request unwinds with Cancelled / DeadlineExceeded /
  /// ResourceExhausted in bounded time. The default context is inert and
  /// costs two predictable branches per poll.
  ExecContext ctx;
};

/// Executes plan trees against a Database on the parallel columnar
/// pipeline: scans emit selection vectors over the base tables, joins are
/// partitioned hash joins, projection is a lazy column remap.
/// Intermediates stay row-id tuples over the base tables (RowIdResult);
/// values are only materialized at the final boundary. Output is
/// deterministic and identical in row order for every thread count.
/// Executor is stateless and safe to share across threads.
class Executor {
 public:
  explicit Executor(const rel::Database* db, ExecOptions options = {});

  /// Runs the plan and returns its materialized result set. When `parent`
  /// is non-null (and observability is enabled) the engine appends an
  /// EXPLAIN ANALYZE operator subtree under it: per-operator inclusive
  /// timings, input/output cardinalities, join build/probe breakdowns,
  /// hash-table load factors, and the fusion decision taken.
  Result<ResultSet> Execute(const PlanNode& plan,
                            obs::ProfileNode* parent = nullptr) const;

  /// Runs the plan without materializing values.
  Result<RowIdResult> ExecuteColumnar(const PlanNode& plan,
                                      obs::ProfileNode* parent = nullptr) const;

  const ExecOptions& options() const { return options_; }

 private:
  Result<RowIdResult> ScanColumnar(const ScanNode& node,
                                   obs::ProfileNode* parent) const;
  Result<RowIdResult> JoinColumnar(const HashJoinNode& node,
                                   obs::ProfileNode* parent) const;
  Result<RowIdResult> ProjectColumnar(const ProjectNode& node,
                                      obs::ProfileNode* parent) const;
  /// The fused morsel pipeline for DISTINCT directly above a hash join:
  /// executes the join's children, builds the partitioned hash tables,
  /// sizes the output from the build chains, and — when the output is
  /// large enough that fusion pays — streams probe matches straight into
  /// the first-occurrence set without materializing the join's tuple
  /// vector. Smaller joins materialize and take ProjectFromChild.
  Result<RowIdResult> JoinDistinctColumnar(const ProjectNode& node,
                                           const HashJoinNode& join,
                                           obs::ProfileNode* parent) const;
  /// Projection/DISTINCT over an already-executed child (the tail of
  /// ProjectColumnar, shared with the fused path's materializing branch).
  /// `prof` is the caller's already-created operator node, filled in
  /// place (null = no recording).
  Result<RowIdResult> ProjectFromChild(const ProjectNode& node,
                                       RowIdResult child,
                                       obs::ProfileNode* prof) const;

  const rel::Database* db_;
  ExecOptions options_;
};

}  // namespace graphgen::query

#endif  // GRAPHGEN_QUERY_EXECUTOR_H_
