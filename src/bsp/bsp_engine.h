#ifndef GRAPHGEN_BSP_BSP_ENGINE_H_
#define GRAPHGEN_BSP_BSP_ENGINE_H_

#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "graph/node_ref.h"
#include "repr/condensed_graph.h"
#include "repr/expanded_graph.h"

namespace graphgen::bsp {

/// Accounting for one BSP run (the Table 4 columns).
struct BspRunStats {
  size_t supersteps = 0;
  uint64_t messages = 0;
  double seconds = 0.0;
  size_t memory_bytes = 0;
};

/// The graph a BSP run executes against: EXP, or a condensed graph
/// (C-DUP, DEDUP-1, BITMAP) whose virtual nodes are BSP vertices (§6.4).
class BspGraph {
 public:
  explicit BspGraph(const ExpandedGraph* expanded)
      : graph_(expanded), expanded_(expanded) {}
  explicit BspGraph(const CondensedGraph* condensed)
      : graph_(condensed), condensed_(condensed) {}

  const Graph& graph() const { return *graph_; }
  /// Exactly one of these is set.
  const ExpandedGraph* expanded() const { return expanded_; }
  const CondensedGraph* condensed() const { return condensed_; }

 private:
  const Graph* graph_;
  const ExpandedGraph* expanded_ = nullptr;
  const CondensedGraph* condensed_ = nullptr;
};

/// Table 4's Giraph-style runs (§6.4). The programs are algos/' degree,
/// PageRank and connected components, whose bulk neighbor reduction
/// already aggregates at the virtual nodes the way the paper's Giraph
/// port does (Graph::PrepareReduction); the engine adds Table 4's
/// superstep and message accounting, counted from the out-lists. One
/// logical step is one superstep on EXP, where every live vertex sends
/// one message per stored out-edge. On a condensed graph it is two
/// supersteps (real -> virtual, virtual -> real) sending one message per
/// out-entry of every live real node plus one per entry of every virtual
/// node that forwards: any with entries, and for connected components
/// only one with a live source. EXP degree sends nothing.
///
/// Only single-layer condensed graphs are supported (all Giraph-experiment
/// datasets in the paper are single-layer). stats.memory_bytes is the
/// graph's footprint; the reduction's per-run arrays are not counted.
class BspEngine {
 public:
  explicit BspEngine(BspGraph graph, size_t threads = 0)
      : graph_(graph), threads_(threads) {}

  /// Degree of every real vertex.
  Result<BspRunStats> RunDegree(std::vector<uint64_t>* degrees);

  /// PageRank with precomputed degrees stored as a vertex property
  /// (required on condensed representations, §6.4).
  Result<BspRunStats> RunPageRank(size_t iterations, double damping,
                                  std::vector<double>* ranks);

  /// Min-label connected components; duplicate-insensitive, so it runs
  /// on C-DUP directly (the C-DUP fast path of §6.4).
  Result<BspRunStats> RunConnectedComponents(std::vector<NodeId>* labels);

 private:
  Status CheckSingleLayer() const;
  /// Messages of one logical step; `live_sources_only` counts only the
  /// virtual nodes a live real node points to.
  uint64_t StepMessages(bool live_sources_only) const;
  /// The stats of `steps` logical steps of `step_messages` each.
  BspRunStats Stats(size_t steps, uint64_t step_messages,
                    const WallTimer& timer) const;

  BspGraph graph_;
  size_t threads_;
};

}  // namespace graphgen::bsp

#endif  // GRAPHGEN_BSP_BSP_ENGINE_H_
