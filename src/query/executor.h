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
  /// Materializes the hash join.
  Result<RowIdResult> JoinColumnar(const HashJoinNode& join,
                                   obs::ProfileNode* parent) const;
  /// A DISTINCT projection directly over a hash join. An exact join output
  /// large enough that fusion pays streams the probe matches straight
  /// into the first-occurrence sets without materializing the join's
  /// tuple vector; a smaller one materializes and takes ProjectFromChild.
  Result<RowIdResult> JoinDistinctColumnar(const ProjectNode& node,
                                           obs::ProfileNode* parent) const;
  /// The shared body of the two join operators: executes the join's
  /// children, validates the join, builds its output metadata, builds the
  /// partitioned hash tables and counts the exact output, then hands the
  /// counted build to `emit`, which fills the output's tuples (or leaves
  /// them to a fused consumer). Records the join's metrics and profile.
  template <typename Emit>
  Result<RowIdResult> RunHashJoin(const HashJoinNode& join,
                                  obs::ProfileNode* prof, Emit emit) const;
  Result<RowIdResult> ProjectColumnar(const ProjectNode& node,
                                      obs::ProfileNode* parent) const;
  /// Projection/DISTINCT over an already-executed child (the tail of
  /// ProjectColumnar, shared with the join's materializing branch).
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
