#include "bsp/bsp_engine.h"

#include "algos/connected_components.h"
#include "algos/degree.h"
#include "algos/pagerank.h"

namespace graphgen::bsp {

Status BspEngine::CheckSingleLayer() const {
  if (graph_.condensed() != nullptr && !graph_.condensed()->IsSingleLayer()) {
    return Status::Unsupported(
        "the BSP engine supports single-layer condensed graphs only");
  }
  return Status::OK();
}

uint64_t BspEngine::StepMessages(bool live_sources_only) const {
  uint64_t messages = 0;
  if (const ExpandedGraph* g = graph_.expanded()) {
    for (NodeId u = 0; u < g->NumVertices(); ++u) {
      if (g->VertexExists(u)) messages += g->RawNeighbors(u).size();
    }
    return messages;
  }
  const CondensedGraph& g = *graph_.condensed();
  std::vector<uint8_t> forwards(g.NumVirtualNodes(), live_sources_only ? 0 : 1);
  for (NodeId u = 0; u < g.NumVertices(); ++u) {
    if (g.IsDeleted(u)) continue;
    for (NodeRef r : g.OutEdges(NodeRef::Real(u))) {
      ++messages;
      if (r.is_virtual()) forwards[r.index()] = 1;
    }
  }
  for (uint32_t w = 0; w < forwards.size(); ++w) {
    if (forwards[w]) messages += g.OutEdges(NodeRef::Virtual(w)).size();
  }
  return messages;
}

BspRunStats BspEngine::Stats(size_t steps, uint64_t step_messages,
                             const WallTimer& timer) const {
  BspRunStats stats;
  stats.supersteps = steps * (graph_.condensed() != nullptr ? 2 : 1);
  stats.messages = steps * step_messages;
  stats.seconds = timer.Seconds();
  stats.memory_bytes = graph_.graph().MemoryBytes();
  return stats;
}

Result<BspRunStats> BspEngine::RunDegree(std::vector<uint64_t>* degrees) {
  GRAPHGEN_RETURN_NOT_OK(CheckSingleLayer());
  WallTimer timer;
  *degrees = ComputeDegrees(graph_.graph(), threads_);
  const bool sends = graph_.condensed() != nullptr;
  return Stats(1, sends ? StepMessages(false) : 0, timer);
}

Result<BspRunStats> BspEngine::RunPageRank(size_t iterations, double damping,
                                           std::vector<double>* ranks) {
  GRAPHGEN_RETURN_NOT_OK(CheckSingleLayer());
  WallTimer timer;
  *ranks = PageRank(graph_.graph(), {.iterations = iterations,
                                     .damping = damping,
                                     .threads = threads_});
  return Stats(ranks->empty() ? 0 : iterations, StepMessages(false), timer);
}

Result<BspRunStats> BspEngine::RunConnectedComponents(
    std::vector<NodeId>* labels) {
  GRAPHGEN_RETURN_NOT_OK(CheckSingleLayer());
  WallTimer timer;
  size_t rounds = 0;
  *labels = ConnectedComponents(graph_.graph(), threads_, &rounds);
  return Stats(rounds, StepMessages(true), timer);
}

}  // namespace graphgen::bsp
