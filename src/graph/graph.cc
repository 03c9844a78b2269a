#include "graph/graph.h"

#include <algorithm>

#include "common/parallel.h"

namespace graphgen {

namespace {

// Graph::PrepareReduction's default: every live vertex pulls over its own
// neighbors, through VisitNeighbors, in their order.
class PullReduction : public NeighborReduction {
 public:
  PullReduction(const Graph& g, size_t threads)
      : g_(g), flat_(g.HasFlatAdjacency()), threads_(threads) {
    if (flat_) {
      ranges_ = BalancedRanges(
          g.NumVertices(),
          [&g](size_t v) {
            return uint64_t{1} + g.NeighborSpan(static_cast<NodeId>(v)).size();
          },
          threads);
    }
  }

  void Sum(std::span<const double> x, std::span<double> out) const override {
    Pull([&](NodeId u) {
      double sum = 0.0;
      VisitNeighbors(g_, flat_, u, [&](NodeId v) { sum += x[v]; });
      out[u] = sum;
    });
  }

  void Min(std::span<const NodeId> x, std::span<NodeId> out) const override {
    Pull([&](NodeId u) {
      NodeId best = x[u];
      VisitNeighbors(g_, flat_, u,
                     [&](NodeId v) { best = std::min(best, x[v]); });
      out[u] = best;
    });
  }

 private:
  // Calls fn(u) for every live u: over edge-balanced ranges on the span
  // path, over equal vertex chunks on the callback path.
  template <typename Fn>
  void Pull(Fn fn) const {
    const auto body = [&](size_t begin, size_t end) {
      for (size_t v = begin; v < end; ++v) {
        if (g_.VertexExists(static_cast<NodeId>(v))) fn(static_cast<NodeId>(v));
      }
    };
    if (flat_) {
      ParallelForRanges(ranges_, body);
    } else {
      ParallelFor(g_.NumVertices(), body, threads_);
    }
  }

  const Graph& g_;
  bool flat_;
  size_t threads_;
  std::vector<IndexRange> ranges_;
};

}  // namespace

std::vector<NodeId> NeighborIterator::ToList() {
  std::vector<NodeId> out;
  while (HasNext()) out.push_back(Next());
  return out;
}

void Graph::ForEachVertex(const std::function<void(NodeId)>& fn) const {
  const size_t n = NumVertices();
  for (size_t v = 0; v < n; ++v) {
    if (VertexExists(static_cast<NodeId>(v))) fn(static_cast<NodeId>(v));
  }
}

std::unique_ptr<NeighborIterator> Graph::Neighbors(NodeId u) const {
  return std::make_unique<VectorNeighborIterator>(NeighborList(u));
}

std::span<const NodeId> Graph::NeighborSpan(NodeId) const { return {}; }

std::unique_ptr<NeighborReduction> Graph::PrepareReduction(
    size_t threads) const {
  return std::make_unique<PullReduction>(*this, threads);
}

std::vector<NodeId> Graph::NeighborList(NodeId u) const {
  std::vector<NodeId> out;
  ForEachNeighbor(u, [&](NodeId v) { out.push_back(v); });
  return out;
}

size_t Graph::OutDegree(NodeId u) const {
  size_t n = 0;
  ForEachNeighbor(u, [&](NodeId) { ++n; });
  return n;
}

uint64_t Graph::CountExpandedEdges() const {
  uint64_t total = 0;
  ForEachVertex([&](NodeId u) { total += OutDegree(u); });
  return total;
}

std::vector<std::pair<NodeId, NodeId>> Graph::ExpandedEdgeSet() const {
  std::vector<std::pair<NodeId, NodeId>> edges;
  ForEachVertex([&](NodeId u) {
    ForEachNeighbor(u, [&](NodeId v) { edges.emplace_back(u, v); });
  });
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

}  // namespace graphgen
