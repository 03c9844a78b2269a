#ifndef GRAPHGEN_BSP_BSP_ENGINE_H_
#define GRAPHGEN_BSP_BSP_ENGINE_H_

#include <vector>

#include "bsp/bsp_graph.h"
#include "common/status.h"
#include "graph/flat_adjacency.h"
#include "graph/node_ref.h"

namespace graphgen::bsp {

/// Accounting for one BSP run (the Table 4 columns).
struct BspRunStats {
  size_t supersteps = 0;
  uint64_t messages = 0;
  double seconds = 0.0;
  size_t memory_bytes = 0;
};

/// A multi-threaded Pregel-style engine specialized for GraphGen's
/// condensed representations (§6.4). Virtual nodes are BSP vertices that
/// aggregate incoming messages and forward per-out-edge combined values,
/// which caps traffic at 2 * #condensed-edges per logical iteration —
/// the optimization the paper's Giraph port implements. Correct execution
/// over DEDUP-1 and BITMAP requires two supersteps per logical iteration
/// (real -> virtual, virtual -> real); EXP needs one.
///
/// Only single-layer condensed graphs are supported (all Giraph-experiment
/// datasets in the paper are single-layer).
///
/// A served condensed graph stores out-lists only, so each condensed run
/// first builds the virtual nodes' real in-lists once, as a transient
/// transpose; stats.memory_bytes counts it with the graph.
class BspEngine {
 public:
  explicit BspEngine(BspGraph graph, size_t threads = 0)
      : graph_(std::move(graph)), threads_(threads) {}

  /// Degree of every real vertex.
  Result<BspRunStats> RunDegree(std::vector<uint64_t>* degrees);

  /// PageRank with precomputed degrees stored as a vertex property
  /// (required on condensed representations, §6.4).
  Result<BspRunStats> RunPageRank(size_t iterations, double damping,
                                  std::vector<double>* ranks);

  /// Min-label connected components. Duplicate-insensitive: runs on the
  /// condensed structure ignoring bitmaps (the C-DUP fast path of §6.4).
  Result<BspRunStats> RunConnectedComponents(std::vector<NodeId>* labels);

 private:
  Status CheckSingleLayer() const;
  /// Per virtual node, the live real nodes with an edge into it, ascending
  /// and with multiplicity. Empty (no vertices) in EXP mode.
  FlatAdjacency VirtualSources() const;
  /// The graph's footprint plus the run's transpose.
  size_t RunMemoryBytes(const FlatAdjacency& sources) const;
  /// RunDegree's supersteps over a prebuilt transpose (untimed).
  BspRunStats Degree(const FlatAdjacency& sources,
                     std::vector<uint64_t>* degrees);

  BspGraph graph_;
  size_t threads_;
};

}  // namespace graphgen::bsp

#endif  // GRAPHGEN_BSP_BSP_ENGINE_H_
