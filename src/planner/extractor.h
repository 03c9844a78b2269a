#ifndef GRAPHGEN_PLANNER_EXTRACTOR_H_
#define GRAPHGEN_PLANNER_EXTRACTOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "graph/storage.h"
#include "obs/profile.h"
#include "query/executor.h"
#include "relational/database.h"

namespace graphgen {
class ThreadPool;
}

namespace graphgen::planner {

/// Extraction tuning knobs.
struct ExtractOptions {
  /// The constant in the large-output test (2.0 in the paper, §4.2).
  /// <= 0 forces every join boundary large (always condense).
  double large_output_factor = 2.0;
  /// Run the §4.2 Step 6 preprocessing pass (expand tiny virtual nodes).
  bool preprocess = true;
  /// Worker threads for the pipeline — intra-query parallelism (scans,
  /// partitioned joins, DISTINCT) and preprocessing. 0 = hardware
  /// default, 1 = fully serial. Extraction output is identical for every
  /// value.
  size_t threads = 0;
  /// Optional shared worker pool for inter-rule parallelism (independent
  /// Nodes/Edges rules execute their queries concurrently). Not owned;
  /// typically the graph service's pool. When null and threads != 1, the
  /// extractor fans rules out on scoped threads instead.
  ThreadPool* pool = nullptr;
  /// Request lifecycle context threaded into every executed query and
  /// checked at rule/assembly stage boundaries: cooperative cancel flag,
  /// absolute deadline, and per-request transient-memory budget. A
  /// cancelled, expired, or over-budget extraction unwinds with
  /// Cancelled / DeadlineExceeded / ResourceExhausted in bounded time.
  /// The default context is inert and costs nothing measurable.
  ExecContext ctx;
};

/// What Extract produces: the condensed (possibly duplicated) graph plus
/// bookkeeping that the benchmark harness reports (Table 1 columns).
struct ExtractionResult {
  CondensedStorage storage;
  /// SQL issued to the database, one entry per executed query (Fig. 16).
  std::vector<std::string> sql;
  uint64_t rows_scanned = 0;
  uint64_t condensed_edges = 0;
  size_t virtual_nodes = 0;
  size_t real_nodes = 0;
  /// Per-stage flight record (EXPLAIN ANALYZE tree): the nodes/edges
  /// query subtrees the executor fills, planning, assembly, and
  /// virtual-node expansion. Empty when observability is disabled.
  obs::QueryProfile profile;
};

/// Runs the full §4.2 pipeline for a validated program: executes the
/// Nodes queries, analyzes each Edges rule, executes the per-segment SQL
/// (independent rules concurrently, each query on the parallel columnar
/// executor), materializes virtual nodes for the postponed large-output
/// joins, and optionally preprocesses. Graph assembly applies query
/// results serially in rule order, so the result is deterministic —
/// bitwise-identical for every thread count.
Result<ExtractionResult> Extract(const rel::Database& db,
                                 const dsl::Program& program,
                                 const ExtractOptions& options = {});

/// Convenience: parse + validate + extract. When `capture` is non-null
/// the run also records the incremental-extraction state (see
/// incremental.h) so later table appends can be delta-patched in.
struct IncrementalState;
Result<ExtractionResult> ExtractFromQuery(const rel::Database& db,
                                          std::string_view datalog,
                                          const ExtractOptions& options = {},
                                          IncrementalState* capture = nullptr);

/// Exact structural comparison of two extraction results (adjacency in
/// stored order, virtual nodes, properties, external keys). Returns ""
/// when identical, else a description of the first difference. The
/// parity suite and bench gate use this to prove the parallel pipeline
/// reproduces the serial output bit for bit. `compare_scan_counts`
/// disables the rows_scanned check for delta patches, which scan only the
/// appended rows yet must produce the identical graph.
std::string DiffExtraction(const ExtractionResult& a,
                           const ExtractionResult& b,
                           bool compare_scan_counts = true);

}  // namespace graphgen::planner

#endif  // GRAPHGEN_PLANNER_EXTRACTOR_H_
