#ifndef GRAPHGEN_VERTEXCENTRIC_VERTEX_CENTRIC_H_
#define GRAPHGEN_VERTEXCENTRIC_VERTEX_CENTRIC_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace graphgen {

class VertexCentric;

/// Per-vertex view handed to Executor::Compute. Follows the GAS-flavoured
/// model of §3.4: vertices communicate by directly reading their
/// neighbors' data (owned by the executor), not via message queues.
class VertexContext {
 public:
  NodeId id() const { return id_; }
  size_t superstep() const { return superstep_; }
  const Graph& graph() const { return *graph_; }

  /// Calls fn(v) for each of the vertex's distinct out-neighbors, over
  /// the span or callback path the coordinator resolved for this run
  /// (graphgen::VisitNeighbors).
  template <typename Fn>
  void VisitNeighbors(Fn&& fn) const {
    graphgen::VisitNeighbors(*graph_, flat_, id_, fn);
  }

  /// Marks this vertex inactive; the run terminates when every vertex has
  /// voted to halt in the same superstep.
  void VoteToHalt() { halted_ = true; }

 private:
  friend class VertexCentric;
  NodeId id_ = 0;
  size_t superstep_ = 0;
  const Graph* graph_ = nullptr;
  bool flat_ = false;
  bool halted_ = false;
};

/// User programs implement Compute(), mirroring the paper's Executor
/// interface (§3.4).
class Executor {
 public:
  virtual ~Executor() = default;
  /// Called once per active vertex per superstep.
  virtual void Compute(VertexContext& ctx) = 0;
  /// Called after each superstep on the coordinator thread; may flip
  /// double buffers. Return false to terminate early.
  virtual bool AfterSuperstep(size_t superstep) {
    (void)superstep;
    return true;
  }
};

/// The multi-threaded vertex-centric coordinator (§3.4): splits the
/// graph's vertices into chunks, runs Compute on every active vertex each
/// superstep, tracks the superstep counter, and triggers termination when
/// all vertices have voted to halt.
///
/// Run() resolves HasFlatAdjacency() once. When it holds, the coordinator
/// (a) marks every VertexContext flat so VisitNeighbors runs the
/// devirtualized span loop, and (b) splits vertices into edge-balanced
/// ranges — equal chunk *degree sums*, not equal chunk sizes — so skewed
/// degree distributions don't stall the superstep barrier on one thread.
/// Otherwise VisitNeighbors takes the virtual callback path over
/// equal-size vertex chunks.
class VertexCentric {
 public:
  struct Stats {
    size_t supersteps = 0;
    uint64_t compute_calls = 0;
  };

  explicit VertexCentric(const Graph* graph, size_t threads = 0)
      : graph_(graph), threads_(threads) {}

  /// Runs to halt or `max_supersteps` (0 = unlimited).
  Stats Run(Executor* executor, size_t max_supersteps = 0);

 private:
  const Graph* graph_;
  size_t threads_;
};

}  // namespace graphgen

#endif  // GRAPHGEN_VERTEXCENTRIC_VERTEX_CENTRIC_H_
