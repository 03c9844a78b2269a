#include "algos/kcore.h"

#include <algorithm>

#include "algos/degree.h"

namespace graphgen {

std::vector<uint32_t> KCoreDecomposition(const Graph& graph) {
  const size_t n = graph.NumVertices();
  const bool flat = graph.HasFlatAdjacency();
  std::vector<uint64_t> degrees = ComputeDegrees(graph);
  std::vector<uint32_t> core(n, 0);

  // Bucket-based peeling (Batagelj–Zaversnik). Degrees are bounded by n.
  uint64_t max_degree = 0;
  for (uint64_t d : degrees) max_degree = std::max(max_degree, d);
  std::vector<std::vector<NodeId>> buckets(max_degree + 1);
  std::vector<uint64_t> current(n, 0);
  std::vector<uint8_t> removed(n, 1);  // non-existent vertices stay removed
  graph.ForEachVertex([&](NodeId u) {
    current[u] = degrees[u];
    buckets[degrees[u]].push_back(u);
    removed[u] = 0;
  });

  const auto relax = [&](NodeId v, uint64_t d) {
    if (removed[v] || current[v] <= d) return;
    --current[v];
    buckets[current[v]].push_back(v);
  };

  uint32_t k = 0;
  for (uint64_t d = 0; d <= max_degree; ++d) {
    // Peeling can push vertices into lower buckets; revisit from d.
    for (size_t i = 0; i < buckets[d].size(); ++i) {
      NodeId u = buckets[d][i];
      if (removed[u] || current[u] != d) continue;  // stale entry
      k = std::max(k, static_cast<uint32_t>(d));
      core[u] = k;
      removed[u] = 1;
      VisitNeighbors(graph, flat, u, [&](NodeId v) { relax(v, d); });
    }
    // Entries appended to buckets[d] during the loop above are picked up
    // because the loop re-reads buckets[d].size(); decrements never push
    // a vertex below the current level d.
  }
  return core;
}

uint32_t Degeneracy(const std::vector<uint32_t>& core_numbers) {
  uint32_t best = 0;
  for (uint32_t c : core_numbers) best = std::max(best, c);
  return best;
}

}  // namespace graphgen
