#include "algos/degree.h"

#include "vertexcentric/vertex_centric.h"

namespace graphgen {

namespace {

class DegreeExecutor : public Executor {
 public:
  explicit DegreeExecutor(std::vector<uint64_t>* out) : out_(out) {}

  void Compute(VertexContext& ctx) override {
    (*out_)[ctx.id()] = ctx.graph().OutDegree(ctx.id());
    ctx.VoteToHalt();
  }

 private:
  std::vector<uint64_t>* out_;
};

}  // namespace

std::vector<uint64_t> ComputeDegrees(const Graph& graph, size_t threads) {
  std::vector<uint64_t> degrees(graph.NumVertices(), 0);
  DegreeExecutor executor(&degrees);
  VertexCentric vc(&graph, threads);
  vc.Run(&executor);
  return degrees;
}

}  // namespace graphgen
