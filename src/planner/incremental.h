#ifndef GRAPHGEN_PLANNER_INCREMENTAL_H_
#define GRAPHGEN_PLANNER_INCREMENTAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "graph/storage.h"
#include "planner/extractor.h"
#include "planner/typed_maps.h"

namespace graphgen::planner {

/// One table's version state at the time a graph was extracted — the
/// entry of the version vector a cached extraction records as its basis.
/// The table is patchable from this basis iff its current rebase_version
/// is still <= version (only appends happened since) and its row count
/// did not shrink; `rows` is the delta-scan watermark.
struct TableBasis {
  uint64_t version = 0;
  uint64_t rebase_version = 0;
  size_t rows = 0;
};

/// Per-Edges-rule dedup state: which (src, dst) condensed pairs each
/// segment has already emitted (so delta tuples re-deriving an existing
/// pair emit nothing), the segment shape the basis was planned with (a
/// drift in the large-output segmentation after appends voids the state),
/// and the boundary-value → virtual-node-id maps.
///
/// The pair sets are per (rule, segment), not a lookup in the condensed
/// graph: two Edges rules may emit the same real pair, and a fresh
/// extraction stores it once per rule.
struct EdgeRuleState {
  /// False for COUNT-constraint rules: their GROUP BY recount cannot be
  /// patched from deltas, so any change to their tables (or to the node
  /// set) falls back to a full re-extraction.
  bool patchable = true;
  /// (first_atom, last_atom) per segment, for the drift check.
  std::vector<std::pair<size_t, size_t>> segment_shape;
  /// Per segment: PackPair(from, to) of every emitted condensed edge,
  /// sorted, duplicate-free and exact-size (8 B per pair).
  std::vector<std::vector<uint64_t>> seen_pairs;
  /// Boundary atom index → key map. Ids are storage virtual ids, kept
  /// canonical by the renumbering pass after every (re-)extraction.
  std::map<size_t, TypedIdMap> boundaries;
};

/// Everything needed to advance a cached extraction by table deltas
/// instead of re-running it: the program, the version-vector basis, the
/// first-occurrence sets (node keys, node tuples, per-segment emitted
/// pairs, boundary maps), and the canonical pre-preprocess condensed
/// graph. Produced by ExtractWithCapture, advanced by PatchExtraction.
/// Immutable once published (the service shares it under shared_ptr);
/// PatchExtraction copies it and returns the successor state.
struct IncrementalState {
  dsl::Program program;
  /// Version vector over every table the program references.
  std::map<std::string, TableBasis> basis;

  /// Real-node key → NodeId (append-only; real ids never renumber).
  TypedIdMap node_ids;
  /// Injectively encoded DISTINCT node tuples the basis applied, used to
  /// skip already-seen delta tuples and to replay property writes with
  /// the same last-writer-wins outcome as a fresh run. Only populated for
  /// single-Nodes-rule programs; with several Nodes rules a node-table
  /// delta could interleave id assignment across rules, so those fall
  /// back to a cold run instead.
  std::unordered_set<std::string> node_tuples;

  /// One entry per Edges rule, in program order.
  std::vector<EdgeRuleState> edge_rules;

  /// The canonical condensed graph *before* §4.2 Step 6 preprocessing
  /// (patches splice edges into this, then re-run preprocessing on a
  /// copy), adjacency sorted, virtual ids in canonical key order. Its
  /// property columns are shared with the graph served from it.
  CondensedStorage graph;

  /// rows_scanned of the basis extraction; patched results report this
  /// plus the delta rows actually scanned.
  uint64_t rows_scanned = 0;

  /// Bytes this state keeps beside the served graph. `graph`'s property
  /// columns are not counted: they are shared with the served graph,
  /// whose footprint counts them.
  size_t MemoryBytes() const;
};

/// Runs a full extraction and fills `capture` so later table appends can
/// be patched in. The extraction result is identical to plain Extract().
Result<ExtractionResult> ExtractWithCapture(const rel::Database& db,
                                            const dsl::Program& program,
                                            const ExtractOptions& options,
                                            IncrementalState& capture);

/// Outcome of a patch attempt. `patched == false` is the *soft* fallback:
/// the delta could not be applied safely (table rebased, segmentation
/// drifted, count-constraint rule touched, multi-Nodes-rule node delta)
/// and the caller should run a cold extraction instead;
/// `fallback_reason` says why. Hard failures (cancellation, deadline,
/// execution errors) surface as the Result's error status.
struct PatchAttempt {
  bool patched = false;
  std::string fallback_reason;
  /// Valid when patched: bitwise identical to a fresh Extract() against
  /// the current database (DiffExtraction with compare_scan_counts=false
  /// returns "" — patching legitimately scans only the delta rows).
  ExtractionResult result;
  /// Valid when patched: the successor state whose basis is the current
  /// version vector.
  std::shared_ptr<IncrementalState> state;
  /// Valid when patched: the condensed edges this patch spliced in, in
  /// the final canonical numbering of `state->graph` (pre-preprocess).
  /// Representation-level incremental materialization (the EXP overlay
  /// fast path) derives its dirty set from these.
  std::vector<std::pair<NodeRef, NodeRef>> new_edges;
};

/// Attempts to advance `basis` to the database's current state by running
/// the program's queries only over appended rows (plus targeted passes
/// for rows whose endpoints became real nodes), splicing the genuinely
/// new nodes/edges into the basis graph, and re-canonicalizing.
Result<PatchAttempt> PatchExtraction(const rel::Database& db,
                                     const IncrementalState& basis,
                                     const ExtractOptions& options = {});

}  // namespace graphgen::planner

#endif  // GRAPHGEN_PLANNER_INCREMENTAL_H_
