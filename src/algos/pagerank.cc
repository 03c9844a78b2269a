#include "algos/pagerank.h"

#include "algos/degree.h"
#include "vertexcentric/vertex_centric.h"

namespace graphgen {

namespace {

class PageRankExecutor : public Executor {
 public:
  PageRankExecutor(const Graph* graph, const std::vector<uint64_t>* degrees,
                   std::vector<double>* current, std::vector<double>* next,
                   double damping, size_t n_active, size_t iterations)
      : degrees_(degrees),
        current_(current),
        next_(next),
        damping_(damping),
        n_active_(n_active),
        iterations_(iterations),
        contrib_(current->size(), 0.0) {
    // The degree-0 vertex set is fixed for the whole run (the topology
    // must not change mid-run), so collect it once here instead of
    // walking every vertex through virtual ForEachVertex each superstep.
    graph->ForEachVertex([&](NodeId v) {
      if ((*degrees_)[v] == 0) dangling_vertices_.push_back(v);
    });
    RecomputePerStepTerms();
  }

  void Compute(VertexContext& ctx) override {
    double sum = 0.0;
    ctx.VisitNeighbors([&](NodeId v) { sum += contrib_[v]; });
    (*next_)[ctx.id()] = (1.0 - damping_) / static_cast<double>(n_active_) +
                         damping_ * (sum + dangling_term_);
    if (ctx.superstep() + 1 >= iterations_) ctx.VoteToHalt();
  }

  bool AfterSuperstep(size_t) override {
    std::swap(*current_, *next_);
    RecomputePerStepTerms();
    return true;
  }

 private:
  // Per-superstep derived state: the per-neighbor pull contribution
  // rank/degree, divided once per vertex here instead of once per *edge*
  // in Compute (degree-0 vertices contribute exactly 0.0, preserving the
  // old skip-if-dangling sums bit for bit), and the dangling term — rank
  // mass stuck at degree-0 vertices, spread over all live vertices so the
  // distribution keeps summing to 1.
  void RecomputePerStepTerms() {
    const size_t n = current_->size();
    for (size_t v = 0; v < n; ++v) {
      const uint64_t d = (*degrees_)[v];
      contrib_[v] = d > 0 ? (*current_)[v] / static_cast<double>(d) : 0.0;
    }
    double dangling = 0.0;
    for (NodeId v : dangling_vertices_) dangling += (*current_)[v];
    dangling_term_ = dangling / static_cast<double>(n_active_);
  }

  const std::vector<uint64_t>* degrees_;
  std::vector<double>* current_;
  std::vector<double>* next_;
  double damping_;
  size_t n_active_;
  size_t iterations_;
  std::vector<NodeId> dangling_vertices_;
  std::vector<double> contrib_;
  double dangling_term_ = 0.0;
};

}  // namespace

std::vector<double> PageRank(const Graph& graph,
                             const PageRankOptions& options) {
  const size_t n = graph.NumVertices();
  const size_t n_active = graph.NumActiveVertices();
  if (n_active == 0) return {};
  std::vector<uint64_t> degrees = ComputeDegrees(graph, options.threads);
  std::vector<double> current(n, 0.0);
  graph.ForEachVertex([&](NodeId v) {
    current[v] = 1.0 / static_cast<double>(n_active);
  });
  std::vector<double> next(n, 0.0);
  PageRankExecutor executor(&graph, &degrees, &current, &next, options.damping,
                            n_active, options.iterations);
  VertexCentric vc(&graph, options.threads);
  vc.Run(&executor, options.iterations);
  return current;
}

}  // namespace graphgen
