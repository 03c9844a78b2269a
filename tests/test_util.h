#ifndef GRAPHGEN_TESTS_TEST_UTIL_H_
#define GRAPHGEN_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "gen/condensed_generator.h"
#include "graph/graph.h"
#include "graph/storage.h"
#include "repr/bitmap_graph.h"

namespace graphgen::testing {

/// Adds real node u as a symmetric member of virtual node v.
inline void AddMember(CondensedStorage& g, NodeId u, uint32_t v) {
  g.AddEdge(NodeRef::Real(u), NodeRef::Virtual(v));
  g.AddEdge(NodeRef::Virtual(v), NodeRef::Real(u));
}

/// Builds the Figure 1 toy DBLP graph: 5 authors, 3 pubs,
/// memberships p1 = {a1, a2, a3, a4}, p2 = {a1, a3, a4}, p3 = {a4, a5}.
/// (The a1--a4 pair is duplicated through p1 and p2.)
inline CondensedStorage MakeFigure1Graph() {
  CondensedStorage g;
  g.AddRealNodes(5);  // a1 .. a5 are ids 0 .. 4
  uint32_t p1 = g.AddVirtualNode();
  uint32_t p2 = g.AddVirtualNode();
  uint32_t p3 = g.AddVirtualNode();
  for (NodeId a : {0, 1, 2, 3}) AddMember(g, a, p1);
  for (NodeId a : {0, 2, 3}) AddMember(g, a, p2);
  for (NodeId a : {3, 4}) AddMember(g, a, p3);
  return g;
}

/// A symmetric single-layer condensed graph from the Appendix C.1
/// generator, seeded for determinism.
inline CondensedStorage MakeRandomSymmetric(size_t reals, size_t virtuals,
                                            double mean, uint64_t seed) {
  gen::CondensedGenOptions o;
  o.num_real = reals;
  o.num_virtual = virtuals;
  o.mean_size = mean;
  o.sd_size = mean / 3;
  o.seed = seed;
  return gen::GenerateCondensed(o);
}

/// Sorted, unique expanded edge set of any Graph implementation.
inline std::vector<std::pair<NodeId, NodeId>> EdgeSetOf(const Graph& g) {
  return g.ExpandedEdgeSet();
}

/// Asserts helper: true iff iterating neighbors of every vertex yields no
/// duplicates and no self loops (the DEDUP-1 / BITMAP invariant).
inline bool IsDuplicateFree(const Graph& g) {
  bool clean = true;
  g.ForEachVertex([&](NodeId u) {
    std::set<NodeId> seen;
    g.ForEachNeighbor(u, [&](NodeId v) {
      if (v == u || !seen.insert(v).second) clean = false;
    });
  });
  return clean;
}

/// u's neighbors on a BITMAP graph, by the plain stack DFS the library's
/// word-wise walk replaced: start from u_s's out-list, pop the last entry;
/// a virtual node pushes the out-edges its bitmap for u permits (every
/// one without a bitmap), in order; a live real node other than u is the
/// next neighbor. BitmapGraph::ForEachNeighbor must yield exactly this
/// sequence.
inline std::vector<NodeId> ReferenceBitmapNeighbors(const BitmapGraph& g,
                                                    NodeId u) {
  std::vector<NodeId> seq;
  if (!g.VertexExists(u)) return seq;
  const auto root = g.OutEdges(NodeRef::Real(u));
  std::vector<NodeRef> stack(root.begin(), root.end());
  while (!stack.empty()) {
    const NodeRef r = stack.back();
    stack.pop_back();
    if (r.is_real()) {
      if (r.index() != u && !g.IsDeleted(r.index())) seq.push_back(r.index());
      continue;
    }
    const auto out = g.OutEdges(r);
    const uint64_t* bm = g.FindBitmap(r.index(), u);
    for (size_t i = 0; i < out.size(); ++i) {
      if (bm == nullptr || TestBit(bm, i)) stack.push_back(out[i]);
    }
  }
  return seq;
}

/// Brute-force triangle count: every live u and every pair of its
/// neighbors u < v < w closed by ExistsEdge(v, w). Built only on the
/// Graph API (NeighborList / ExistsEdge), sharing no code with the
/// kernels in src/algos/, so it is their reference.
inline uint64_t BruteForceTriangleCount(const Graph& g) {
  uint64_t count = 0;
  g.ForEachVertex([&](NodeId u) {
    const std::vector<NodeId> nu = g.NeighborList(u);
    for (NodeId v : nu) {
      if (v <= u) continue;
      for (NodeId w : nu) {
        if (w > v && g.ExistsEdge(v, w)) ++count;
      }
    }
  });
  return count;
}

/// Brute-force local clustering coefficient per vertex id: the share of
/// ordered pairs of distinct neighbors (v, w) with ExistsEdge(v, w), out
/// of d * (d - 1); 0 below degree 2 and for deleted vertices. Built only
/// on NeighborList / ExistsEdge, like BruteForceTriangleCount.
inline std::vector<double> BruteForceClustering(const Graph& g) {
  std::vector<double> out(g.NumVertices(), 0.0);
  g.ForEachVertex([&](NodeId u) {
    const std::vector<NodeId> nu = g.NeighborList(u);
    if (nu.size() < 2) return;
    uint64_t closed = 0;
    for (NodeId v : nu) {
      for (NodeId w : nu) {
        if (v != w && g.ExistsEdge(v, w)) ++closed;
      }
    }
    const double d = static_cast<double>(nu.size());
    out[u] = static_cast<double>(closed) / (d * (d - 1));
  });
  return out;
}

}  // namespace graphgen::testing

#endif  // GRAPHGEN_TESTS_TEST_UTIL_H_
