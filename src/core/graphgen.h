#ifndef GRAPHGEN_CORE_GRAPHGEN_H_
#define GRAPHGEN_CORE_GRAPHGEN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dedup/ordering.h"
#include "graph/graph.h"
#include "planner/extractor.h"
#include "planner/incremental.h"
#include "relational/database.h"

namespace graphgen {

/// The in-memory representations of §4.3.
enum class Representation {
  kAuto,     // §6.5 policy: expand when cheap, else BITMAP-2
  kCDup,     // condensed, duplicated; on-the-fly dedup
  kExp,      // fully expanded
  kDedup1,   // condensed, deduplicated
  kDedup2,   // single-layer symmetric optimization
  kBitmap1,  // bitmaps via the naive pass
  kBitmap2,  // bitmaps via greedy set cover
};

std::string_view RepresentationToString(Representation r);

/// Which DEDUP-1 algorithm to run (§5.2.1).
enum class Dedup1Algorithm {
  kNaiveVirtualFirst,
  kNaiveRealFirst,
  kGreedyRealFirst,
  kGreedyVirtualFirst,
};

std::string_view Dedup1AlgorithmToString(Dedup1Algorithm a);

/// End-to-end extraction options.
struct GraphGenOptions {
  planner::ExtractOptions extract;
  Representation representation = Representation::kAuto;
  Dedup1Algorithm dedup1_algorithm = Dedup1Algorithm::kGreedyVirtualFirst;
  DedupOptions dedup;
  /// kAuto expands when the expanded graph is at most (1 + threshold)
  /// times the condensed size (§6.5 suggests 20%).
  double expand_threshold = 0.2;
  /// Captures the incremental-extraction state (first-occurrence sets,
  /// canonical pre-preprocess graph, version-vector basis) during Extract
  /// so later table appends can be advanced by PatchExtracted instead of
  /// a cold run. Costs memory — FootprintBytes() includes it.
  bool capture_incremental = false;
};

/// The product of an extraction: a ready-to-analyze Graph in the chosen
/// representation plus the extraction statistics (Table 1 columns).
struct ExtractedGraph {
  std::unique_ptr<Graph> graph;
  Representation representation = Representation::kCDup;
  planner::ExtractionResult stats;
  double dedup_seconds = 0.0;
  /// Present when the extraction was run with capture_incremental: the
  /// state PatchExtracted advances on table appends. Immutable and shared
  /// (successor states share only its copy-on-write property columns,
  /// which `graph` shares too).
  std::shared_ptr<const planner::IncrementalState> incremental;
  /// Database-global tick when the extraction started. Caches that cannot
  /// do a per-table version check (no incremental state) compare this to
  /// Database::CurrentTick(): unequal means *some* table changed and the
  /// entry may be stale. Conservative by design.
  uint64_t db_tick = 0;

  /// Bytes this graph costs to keep resident: the representation-aware
  /// footprint the batch extractor and the service cache charge against
  /// their memory budgets, plus the incremental state riding along.
  size_t FootprintBytes() const {
    size_t total = graph == nullptr ? 0 : graph->MemoryFootprint().Total();
    if (incremental != nullptr) total += incremental->MemoryBytes();
    return total;
  }
};

/// Outcome of a core-level patch attempt. `patched == false` is the soft
/// fallback (reason in `fallback_reason`): run a cold Extract instead.
struct PatchOutcome {
  bool patched = false;
  std::string fallback_reason;
  /// Valid when patched: equivalent to a cold Extract against the current
  /// database, with the successor incremental state attached.
  ExtractedGraph graph;
};

/// The system facade (§3.1): parses a Datalog extraction program,
/// translates it to queries against the embedded database, assembles the
/// condensed graph, and hands back an in-memory Graph object.
class GraphGen {
 public:
  explicit GraphGen(const rel::Database* db) : db_(db) {}

  /// Runs the full pipeline on a Datalog program.
  Result<ExtractedGraph> Extract(std::string_view datalog,
                                 const GraphGenOptions& options = {}) const;

  /// Builds the requested representation from an existing condensed
  /// graph (used by benchmarks and after deserialization).
  static Result<ExtractedGraph> Materialize(CondensedStorage storage,
                                            const GraphGenOptions& options);

  /// Advances a cached extraction (made with capture_incremental) to the
  /// database's current state by patching only the appended rows in.
  /// EXP graphs merge the expanded delta into fresh flat arrays; other
  /// representations rebuild from the patched condensed graph. Soft fallbacks (rebased table,
  /// count-constraint rule, segmentation drift, no captured state) return
  /// patched == false; the caller runs a cold extraction instead.
  Result<PatchOutcome> PatchExtracted(const ExtractedGraph& cached,
                                      const GraphGenOptions& options) const;

  /// Extracts a collection of graphs in one batch (§3.1: GraphGen builds
  /// batches whose total condensed size fits in memory). Queries run in
  /// sequence; if `memory_budget_bytes` > 0 and the accumulated footprint
  /// of the extracted graphs would exceed it, extraction stops with
  /// kOutOfRange and the graphs extracted so far are returned through
  /// `completed`.
  Result<std::vector<ExtractedGraph>> ExtractMany(
      const std::vector<std::string>& queries, const GraphGenOptions& options,
      size_t memory_budget_bytes = 0, size_t* completed = nullptr) const;

 private:
  const rel::Database* db_;
};

}  // namespace graphgen

#endif  // GRAPHGEN_CORE_GRAPHGEN_H_
