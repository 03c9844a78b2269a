#include "vertexcentric/vertex_centric.h"

#include "common/parallel.h"

namespace graphgen {

VertexCentric::Stats VertexCentric::Run(Executor* executor,
                                        size_t max_supersteps) {
  Stats stats;
  const size_t n = graph_->NumVertices();
  const bool flat = graph_->HasFlatAdjacency();
  // halted[v] != 0 means v voted to halt in the previous superstep and is
  // skipped until the run ends (no messages exist to wake vertices in the
  // GAS-style model).
  std::vector<uint8_t> halted(n, 0);

  // Edge-balanced ranges, computed once: executors must not mutate the
  // topology during a run, so degrees are stable across supersteps.
  std::vector<IndexRange> ranges;
  if (flat) {
    ranges = BalancedRanges(
        n,
        [this](size_t v) {
          return uint64_t{1} +
                 graph_->NeighborSpan(static_cast<NodeId>(v)).size();
        },
        threads_);
  }

  for (size_t step = 0; max_supersteps == 0 || step < max_supersteps; ++step) {
    std::atomic<uint64_t> active{0};
    const auto body = [&](size_t begin, size_t end) {
      uint64_t local_active = 0;
      VertexContext ctx;
      ctx.graph_ = graph_;
      ctx.superstep_ = step;
      ctx.flat_ = flat;
      for (size_t v = begin; v < end; ++v) {
        if (halted[v] || !graph_->VertexExists(static_cast<NodeId>(v))) {
          continue;
        }
        ctx.id_ = static_cast<NodeId>(v);
        ctx.halted_ = false;
        executor->Compute(ctx);
        if (ctx.halted_) {
          halted[v] = 1;
        } else {
          ++local_active;
        }
      }
      active.fetch_add(local_active, std::memory_order_relaxed);
    };
    if (flat) {
      ParallelForRanges(ranges, body);
    } else {
      ParallelFor(n, body, threads_);
    }
    stats.supersteps = step + 1;
    stats.compute_calls += active.load();
    bool keep_going = executor->AfterSuperstep(step);
    if (active.load() == 0 || !keep_going) break;
  }
  return stats;
}

}  // namespace graphgen
