#ifndef GRAPHGEN_PLANNER_INCREMENTAL_H_
#define GRAPHGEN_PLANNER_INCREMENTAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "graph/node_ref.h"
#include "graph/properties.h"
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
  /// set) falls back to a full re-extraction. A patch that leaves them
  /// untouched keeps their one pair set (real pairs, no segments).
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

/// The DISTINCT node tuples a basis applied, as a flat, sorted, exact
/// set: per tuple, a 64-bit fingerprint of its EncodeNodeTuple bytes and
/// the row of its first occurrence in the Nodes rule's table (12 B, no
/// per-tuple heap object). Equal fingerprints are settled by re-encoding
/// the stored row from the table and comparing the bytes. That is exact
/// because Nodes rules are single-atom and the table is append-only for
/// as long as the basis is valid (a rebase or a shrink falls back).
struct NodeTupleSet {
  /// Sorted by (fingerprint, row); rows[i] belongs to fingerprints[i].
  std::vector<uint64_t> fingerprints;
  std::vector<uint32_t> rows;

  size_t size() const { return fingerprints.size(); }
  size_t MemoryBytes() const;
};

/// Everything needed to advance a cached extraction by table deltas
/// instead of re-running it: the program, the version-vector basis, the
/// first-occurrence sets (node keys, node tuples, per-segment emitted
/// pairs, boundary maps), the node counts and the property columns.
/// Produced by ExtractWithCapture, advanced by PatchExtraction.
/// Immutable once published (the service shares it under shared_ptr);
/// PatchExtraction copies it and returns the successor state.
///
/// The state holds no condensed graph. The per-(rule, segment) pair sets
/// hold every condensed edge of the canonical pre-preprocess graph (COUNT
/// rules record their emitted pairs too), so a patch rebuilds that graph
/// once from them.
struct IncrementalState {
  dsl::Program program;
  /// Version vector over every table the program references.
  std::map<std::string, TableBasis> basis;

  /// Real-node key → NodeId (append-only; real ids never renumber).
  TypedIdMap node_ids;
  /// The DISTINCT node tuples the basis applied, used to skip
  /// already-seen delta tuples and to replay property writes with the
  /// same last-writer-wins outcome as a fresh run. Only populated for
  /// single-Nodes-rule programs; with several Nodes rules a node-table
  /// delta could interleave id assignment across rules, so those fall
  /// back to a cold run instead.
  NodeTupleSet node_tuples;

  /// One entry per Edges rule, in program order.
  std::vector<EdgeRuleState> edge_rules;

  /// Node counts of the canonical pre-preprocess graph. Virtual nodes
  /// can be isolated (a boundary key whose row had a dangling endpoint),
  /// so the count is not derivable from the pair sets.
  uint32_t num_real_nodes = 0;
  uint32_t num_virtual_nodes = 0;
  /// The graph's property columns: a copy-on-write share with the graph
  /// served from this state.
  PropertyTable properties;

  /// rows_scanned of the basis extraction; patched results report this
  /// plus the delta rows actually scanned.
  uint64_t rows_scanned = 0;

  /// Bytes this state keeps beside the served graph. `properties` is not
  /// counted: it is shared with the served graph, whose footprint counts
  /// it.
  size_t MemoryBytes() const;
};

/// Runs a full extraction and fills `capture` so later table appends can
/// be patched in. The extraction result is identical to plain Extract().
Result<ExtractionResult> ExtractWithCapture(const rel::Database& db,
                                            const dsl::Program& program,
                                            const ExtractOptions& options,
                                            IncrementalState& capture);

/// Why a patch attempt fell back to a cold extraction.
enum class PatchFallback {
  kNone,                 // patched
  kNoCapturedState,      // the cached graph carries no incremental state
  kMalformedState,       // the state does not fit its own program
  kTableDropped,         // a basis table no longer exists
  kTableRebased,         // a basis table was replaced or rewritten
  kTableShrank,          // a basis table lost rows
  kMultiNodesRuleDelta,  // node-table delta with several Nodes rules
  kCountRuleTouched,     // a delta reaches a COUNT-constraint rule
  kSegmentationDrift,    // appends changed the large-output segmentation
};
/// Number of fallback reasons (every value but kNone).
inline constexpr size_t kNumPatchFallbacks =
    static_cast<size_t>(PatchFallback::kSegmentationDrift);

/// Stable snake_case name ("table_rebased"), also the suffix of the
/// service's per-reason fallback counter.
std::string_view PatchFallbackName(PatchFallback reason);

/// Outcome of a patch attempt. `patched == false` is the *soft* fallback:
/// the delta could not be applied safely and the caller should run a
/// cold extraction instead; `fallback` says why. Hard failures
/// (cancellation, deadline, execution errors) surface as the Result's
/// error status.
struct PatchAttempt {
  bool patched = false;
  PatchFallback fallback = PatchFallback::kNone;
  /// Valid when patched: bitwise identical to a fresh Extract() against
  /// the current database (DiffExtraction with compare_scan_counts=false
  /// returns "" — patching legitimately scans only the delta rows).
  ExtractionResult result;
  /// Valid when patched: the successor state whose basis is the current
  /// version vector.
  std::shared_ptr<IncrementalState> state;
  /// Valid when patched: the condensed edges this patch spliced in, in
  /// the final canonical numbering of the pre-preprocess graph — which is
  /// `result.storage` when the patch ran with `preprocess` off.
  /// Representation-level incremental materialization (the EXP merge)
  /// derives its expanded delta from these.
  std::vector<std::pair<NodeRef, NodeRef>> new_edges;
};

/// Attempts to advance `basis` to the database's current state by running
/// the program's queries only over appended rows (plus targeted passes
/// for rows whose endpoints became real nodes), splicing the genuinely
/// new nodes and pairs into a copy of the state, re-canonicalizing, and
/// rebuilding the condensed graph once from the pair sets.
Result<PatchAttempt> PatchExtraction(const rel::Database& db,
                                     const IncrementalState& basis,
                                     const ExtractOptions& options = {});

}  // namespace graphgen::planner

#endif  // GRAPHGEN_PLANNER_INCREMENTAL_H_
