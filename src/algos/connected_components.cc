#include "algos/connected_components.h"

#include <atomic>
#include <unordered_set>

#include "vertexcentric/vertex_centric.h"

namespace graphgen {

namespace {

/// Double-buffered min-label propagation: each superstep every vertex
/// takes the minimum of its own and its neighbors' labels. Buffers avoid
/// cross-thread read/write races on the same array.
class MinLabelExecutor : public Executor {
 public:
  MinLabelExecutor(std::vector<NodeId>* current, std::vector<NodeId>* next,
                   std::atomic<bool>* changed)
      : current_(current), next_(next), changed_(changed) {}

  void Compute(VertexContext& ctx) override {
    NodeId best = (*current_)[ctx.id()];
    ctx.VisitNeighbors([&](NodeId v) {
      if ((*current_)[v] < best) best = (*current_)[v];
    });
    (*next_)[ctx.id()] = best;
    if (best < (*current_)[ctx.id()]) {
      changed_->store(true, std::memory_order_relaxed);
    }
  }

  bool AfterSuperstep(size_t) override {
    std::swap(*current_, *next_);
    return changed_->exchange(false);
  }

 private:
  std::vector<NodeId>* current_;
  std::vector<NodeId>* next_;
  std::atomic<bool>* changed_;
};

}  // namespace

std::vector<NodeId> ConnectedComponents(const Graph& graph, size_t threads) {
  const size_t n = graph.NumVertices();
  std::vector<NodeId> current(n);
  for (size_t v = 0; v < n; ++v) {
    current[v] = graph.VertexExists(static_cast<NodeId>(v))
                     ? static_cast<NodeId>(v)
                     : kInvalidNode;
  }
  std::vector<NodeId> next = current;
  std::atomic<bool> changed{false};
  MinLabelExecutor executor(&current, &next, &changed);
  VertexCentric vc(&graph, threads);
  vc.Run(&executor);
  return current;
}

size_t CountComponents(const std::vector<NodeId>& labels) {
  std::unordered_set<NodeId> distinct;
  for (NodeId l : labels) {
    if (l != kInvalidNode) distinct.insert(l);
  }
  return distinct.size();
}

}  // namespace graphgen
