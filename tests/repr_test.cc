#include <gtest/gtest.h>

#include "dedup/bitmap_algorithms.h"
#include "dedup/dedup1_algorithms.h"
#include "dedup/dedup2_builder.h"
#include "graph/flat_adjacency.h"
#include "repr/cdup_graph.h"
#include "repr/dedup1_graph.h"
#include "repr/dedup2_graph.h"
#include "repr/expander.h"
#include "test_util.h"

namespace graphgen {
namespace {

using testing::AddMember;
using testing::EdgeSetOf;
using testing::IsDuplicateFree;
using testing::MakeFigure1Graph;
using testing::MakeRandomSymmetric;

// ---------- C-DUP ----------

TEST(CDupTest, NeighborsDeduplicatedOnTheFly) {
  CDupGraph g(MakeFigure1Graph());
  std::vector<NodeId> n = g.NeighborList(0);
  std::sort(n.begin(), n.end());
  EXPECT_EQ(n, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_TRUE(IsDuplicateFree(g));
}

TEST(CDupTest, LazyIteratorMatchesForEach) {
  CDupGraph g(MakeFigure1Graph());
  for (NodeId u = 0; u < g.NumVertices(); ++u) {
    std::vector<NodeId> a = g.Neighbors(u)->ToList();
    std::vector<NodeId> b = g.NeighborList(u);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "vertex " << u;
  }
}

TEST(CDupTest, ExistsEdge) {
  CDupGraph g(MakeFigure1Graph());
  EXPECT_TRUE(g.ExistsEdge(0, 3));
  EXPECT_TRUE(g.ExistsEdge(3, 4));
  EXPECT_FALSE(g.ExistsEdge(0, 4));
  EXPECT_FALSE(g.ExistsEdge(0, 0));
  EXPECT_FALSE(g.ExistsEdge(0, 99));
}

TEST(CDupTest, AddEdgeIsIdempotent) {
  CDupGraph g(MakeFigure1Graph());
  uint64_t before = g.CountStoredEdges();
  EXPECT_TRUE(g.AddEdge(0, 3).ok());  // already exists via p1/p2
  EXPECT_EQ(g.CountStoredEdges(), before);
  EXPECT_TRUE(g.AddEdge(0, 4).ok());  // new direct edge
  EXPECT_EQ(g.CountStoredEdges(), before + 1);
  EXPECT_TRUE(g.ExistsEdge(0, 4));
}

TEST(CDupTest, DeleteEdgeRemovesAllPaths) {
  CDupGraph g(MakeFigure1Graph());
  ASSERT_TRUE(g.ExistsEdge(0, 3));
  EXPECT_TRUE(g.DeleteEdge(0, 3).ok());
  EXPECT_FALSE(g.ExistsEdge(0, 3));
  // Other neighbors survive.
  EXPECT_TRUE(g.ExistsEdge(0, 1));
  EXPECT_TRUE(g.ExistsEdge(0, 2));
  // Reverse direction untouched (directed deletion).
  EXPECT_TRUE(g.ExistsEdge(3, 0));
  EXPECT_EQ(g.DeleteEdge(0, 3).code(), StatusCode::kNotFound);
}

TEST(CDupTest, DeleteVertexIsLazy) {
  CDupGraph g(MakeFigure1Graph());
  EXPECT_TRUE(g.DeleteVertex(3).ok());
  EXPECT_FALSE(g.VertexExists(3));
  EXPECT_EQ(g.NumActiveVertices(), 4u);
  EXPECT_FALSE(g.ExistsEdge(0, 3));
  std::vector<NodeId> n = g.NeighborList(4);
  EXPECT_TRUE(n.empty());  // a5 only knew a4
  EXPECT_EQ(g.DeleteVertex(3).code(), StatusCode::kNotFound);
}

TEST(CDupTest, AddVertexExtendsIdSpace) {
  CDupGraph g(MakeFigure1Graph());
  NodeId v = g.AddVertex();
  EXPECT_EQ(v, 5u);
  EXPECT_TRUE(g.VertexExists(v));
  EXPECT_TRUE(g.AddEdge(v, 0).ok());
  EXPECT_TRUE(g.ExistsEdge(v, 0));
}

// ---------- EXP ----------

TEST(ExpandedTest, ExpandCondensedMatchesOracle) {
  CondensedStorage s = MakeFigure1Graph();
  ExpandedGraph g = ExpandCondensed(s);
  EXPECT_EQ(EdgeSetOf(g), s.ExpandedEdgeSet());
  EXPECT_EQ(g.CountStoredEdges(), 14u);
  EXPECT_EQ(g.NumVirtualNodes(), 0u);
}

TEST(ExpandedTest, MutationsAndExistence) {
  ExpandedGraph g(4);
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(0, 1).ok());  // idempotent
  EXPECT_EQ(g.CountStoredEdges(), 1u);
  EXPECT_TRUE(g.ExistsEdge(0, 1));
  EXPECT_FALSE(g.ExistsEdge(1, 0));
  EXPECT_TRUE(g.DeleteEdge(0, 1).ok());
  EXPECT_EQ(g.DeleteEdge(0, 1).code(), StatusCode::kNotFound);
  EXPECT_FALSE(g.AddEdge(0, 9).ok());
}

TEST(ExpandedTest, DeleteVertexHidesEdges) {
  ExpandedGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.DeleteVertex(1).ok());
  EXPECT_FALSE(g.ExistsEdge(0, 1));
  EXPECT_EQ(g.OutDegree(0), 0u);
  EXPECT_EQ(g.CountStoredEdges(), 0u);
  EXPECT_EQ(g.NumActiveVertices(), 2u);
}

TEST(ExpandedTest, CompactFoldsPatchOverlay) {
  CondensedStorage s = MakeFigure1Graph();
  ExpandedGraph g = ExpandCondensed(s);
  ASSERT_TRUE(g.HasFlatAdjacency());
  EXPECT_EQ(g.PatchedVertices(), 0u);
  EXPECT_EQ(g.Compact(), 0u);  // nothing to fold

  NodeId fresh = g.AddVertex();
  ASSERT_TRUE(g.AddEdge(fresh, 0).ok());
  ASSERT_TRUE(g.AddEdge(0, fresh).ok());
  EXPECT_GT(g.PatchedVertices(), 0u);
  EXPECT_GT(g.PatchOverlayBytes(), 0u);
  const size_t overlay_footprint = g.MemoryFootprint().Total();

  auto before = EdgeSetOf(g);
  EXPECT_GT(g.Compact(), 0u);
  EXPECT_EQ(g.PatchedVertices(), 0u);
  EXPECT_EQ(g.PatchOverlayBytes(), 0u);
  EXPECT_TRUE(g.HasFlatAdjacency());
  EXPECT_EQ(EdgeSetOf(g), before);
  // The overlay's hash-map overhead is gone from the footprint.
  EXPECT_LT(g.MemoryFootprint().Total(), overlay_footprint);
}

TEST(ExpandedTest, CompactScrubsStaleDeletions) {
  CondensedStorage s = MakeFigure1Graph();
  ExpandedGraph g = ExpandCondensed(s);
  ASSERT_TRUE(g.DeleteVertex(1).ok());
  EXPECT_FALSE(g.HasFlatAdjacency());  // stale targets linger in the lists
  auto before = EdgeSetOf(g);
  g.Compact();
  EXPECT_TRUE(g.HasFlatAdjacency());
  EXPECT_EQ(EdgeSetOf(g), before);
}

TEST(ExpandedTest, ExpanderPropagatesDeletions) {
  CondensedStorage s = MakeFigure1Graph();
  s.DeleteRealNode(4);
  ExpandedGraph g = ExpandCondensed(s);
  EXPECT_FALSE(g.VertexExists(4));
  EXPECT_EQ(g.NeighborList(3), g.NeighborList(3));
  EXPECT_FALSE(g.ExistsEdge(3, 4));
}

// ---------- Flat adjacency ----------

// An adjacency given as per-vertex lists.
FlatAdjacency FlatOf(const std::vector<std::vector<NodeId>>& lists) {
  std::vector<uint64_t> degrees;
  for (const auto& list : lists) degrees.push_back(list.size());
  FlatAdjacency a = FlatAdjacency::FromDegrees(degrees);
  for (size_t u = 0; u < lists.size(); ++u) {
    std::copy(lists[u].begin(), lists[u].end(),
              a.neighbors.begin() + static_cast<ptrdiff_t>(a.offsets[u]));
  }
  return a;
}

std::vector<NodeId> ListOf(const FlatAdjacency& a, NodeId u) {
  std::span<const NodeId> s = a.Slice(u);
  return {s.begin(), s.end()};
}

// Packs (u, v) pairs into the sorted delta Merge takes.
std::vector<uint64_t> PackedDelta(
    std::vector<std::pair<NodeId, NodeId>> pairs) {
  std::vector<uint64_t> keys;
  for (const auto& [u, v] : pairs) {
    keys.push_back(static_cast<uint64_t>(u) << 32 | v);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

FlatAdjacency MergeInto(const FlatAdjacency& basis, size_t n,
                        const std::vector<uint64_t>& delta) {
  return FlatAdjacency::Merge(
      n, basis.NumVertices(), [&](NodeId u) { return basis.Slice(u); },
      delta);
}

TEST(FlatAdjacencyTest, EmptyAdjacency) {
  const FlatAdjacency empty;
  EXPECT_EQ(empty.NumVertices(), 0u);
  EXPECT_EQ(empty.offsets, std::vector<uint64_t>{0});
  EXPECT_TRUE(empty.neighbors.empty());
  EXPECT_EQ(empty.MemoryBytes(),
            VectorBytes(empty.offsets) + VectorBytes(empty.neighbors));

  const FlatAdjacency from_degrees = FlatAdjacency::FromDegrees({});
  EXPECT_EQ(from_degrees.offsets, empty.offsets);
  EXPECT_TRUE(from_degrees.neighbors.empty());
  const FlatAdjacency transposed = empty.Transpose();
  EXPECT_EQ(transposed.offsets, empty.offsets);
  EXPECT_TRUE(transposed.neighbors.empty());
  const FlatAdjacency merged = MergeInto(empty, 0, {});
  EXPECT_EQ(merged.offsets, empty.offsets);
  EXPECT_TRUE(merged.neighbors.empty());
}

TEST(FlatAdjacencyTest, FromDegreesIsAPrefixSum) {
  const FlatAdjacency a =
      FlatAdjacency::FromDegrees(std::vector<uint64_t>{2, 0, 3});
  EXPECT_EQ(a.offsets, (std::vector<uint64_t>{0, 2, 2, 5}));
  EXPECT_EQ(a.neighbors.size(), 5u);
  EXPECT_EQ(a.Slice(1).size(), 0u);
  EXPECT_EQ(a.Slice(2).size(), 3u);
}

TEST(FlatAdjacencyTest, TransposeMatchesExpanderInLists) {
  for (const CondensedStorage& s :
       {MakeFigure1Graph(), MakeRandomSymmetric(80, 12, 6, 31)}) {
    const ExpandedGraph g = ExpandCondensed(s);
    const size_t n = g.NumVertices();
    std::vector<std::vector<NodeId>> out(n);
    for (NodeId u = 0; u < n; ++u) {
      std::span<const NodeId> r = g.RawNeighbors(u);
      out[u].assign(r.begin(), r.end());
    }
    const FlatAdjacency in = FlatOf(out).Transpose();
    ASSERT_EQ(in.NumVertices(), n);
    for (NodeId u = 0; u < n; ++u) {
      std::span<const NodeId> expected = g.RawInNeighbors(u);
      EXPECT_EQ(ListOf(in, u),
                std::vector<NodeId>(expected.begin(), expected.end()))
          << "vertex " << u;
    }
  }
}

TEST(FlatAdjacencyTest, MergeWithEmptyDeltaCopiesBasis) {
  const FlatAdjacency basis = FlatOf({{1, 2}, {}, {0, 1}, {2}});
  const FlatAdjacency merged = MergeInto(basis, basis.NumVertices(), {});
  EXPECT_EQ(merged.offsets, basis.offsets);
  EXPECT_EQ(merged.neighbors, basis.neighbors);
}

TEST(FlatAdjacencyTest, MergeSkipsPresentAndRepeatedCandidates) {
  const FlatAdjacency basis = FlatOf({{1, 3}, {0}, {}, {0}});
  // (0,1) and (3,0) are in the basis; (0,2) and (2,3) repeat.
  const std::vector<uint64_t> delta = PackedDelta(
      {{0, 1}, {0, 2}, {0, 2}, {2, 3}, {2, 3}, {2, 1}, {3, 0}, {0, 4}});
  const FlatAdjacency merged = MergeInto(basis, 5, delta);
  ASSERT_EQ(merged.NumVertices(), 5u);
  EXPECT_EQ(ListOf(merged, 0), (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(ListOf(merged, 1), (std::vector<NodeId>{0}));
  EXPECT_EQ(ListOf(merged, 2), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(ListOf(merged, 3), (std::vector<NodeId>{0}));
  EXPECT_EQ(ListOf(merged, 4), (std::vector<NodeId>{}));
  EXPECT_EQ(merged.offsets.back(), merged.neighbors.size());
}

TEST(FlatAdjacencyTest, MergeGrowsPastTheBasis) {
  const FlatAdjacency basis = FlatOf({{1}, {0}});
  // Vertex 2 gets no row; vertices 3 and 4 are new and get edges.
  const std::vector<uint64_t> delta =
      PackedDelta({{0, 3}, {3, 0}, {3, 4}, {4, 1}});
  const FlatAdjacency merged = MergeInto(basis, 5, delta);
  ASSERT_EQ(merged.NumVertices(), 5u);
  EXPECT_EQ(ListOf(merged, 0), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(ListOf(merged, 1), (std::vector<NodeId>{0}));
  EXPECT_EQ(ListOf(merged, 2), (std::vector<NodeId>{}));
  EXPECT_EQ(ListOf(merged, 3), (std::vector<NodeId>{0, 4}));
  EXPECT_EQ(ListOf(merged, 4), (std::vector<NodeId>{1}));
}

// ---------- DEDUP-1 semantics (via a hand-built duplicate-free graph) ----

Dedup1Graph MakeHandDedup1() {
  // p1 = {a1,a2,a3,a4}; p3 = {a4,a5}: no duplication.
  CondensedStorage g;
  g.AddRealNodes(5);
  uint32_t p1 = g.AddVirtualNode();
  uint32_t p3 = g.AddVirtualNode();
  for (NodeId a : {0, 1, 2, 3}) AddMember(g, a, p1);
  for (NodeId a : {3, 4}) AddMember(g, a, p3);
  return Dedup1Graph(std::move(g));
}

TEST(Dedup1Test, PlainTraversalNoHashSet) {
  Dedup1Graph g = MakeHandDedup1();
  EXPECT_TRUE(IsDuplicateFree(g));
  std::vector<NodeId> n = g.Neighbors(3)->ToList();
  std::sort(n.begin(), n.end());
  EXPECT_EQ(n, (std::vector<NodeId>{0, 1, 2, 4}));
}

TEST(Dedup1Test, AddEdgePreservesInvariant) {
  Dedup1Graph g = MakeHandDedup1();
  EXPECT_TRUE(g.AddEdge(0, 3).ok());  // exists via p1: must not duplicate
  EXPECT_TRUE(IsDuplicateFree(g));
  EXPECT_TRUE(g.AddEdge(0, 4).ok());
  EXPECT_TRUE(g.ExistsEdge(0, 4));
  EXPECT_TRUE(IsDuplicateFree(g));
}

TEST(Dedup1Test, DeleteEdgeKeepsOthersAndInvariant) {
  Dedup1Graph g = MakeHandDedup1();
  EXPECT_TRUE(g.DeleteEdge(3, 0).ok());
  EXPECT_FALSE(g.ExistsEdge(3, 0));
  EXPECT_TRUE(g.ExistsEdge(3, 1));
  EXPECT_TRUE(g.ExistsEdge(3, 4));
  EXPECT_TRUE(IsDuplicateFree(g));
}

// ---------- BITMAP representation mechanics ----------

TEST(BitmapGraphTest, BitmapsSuppressDuplicates) {
  CondensedStorage s = MakeFigure1Graph();
  auto bg = BuildBitmap1(s);
  ASSERT_TRUE(bg.ok());
  EXPECT_TRUE(IsDuplicateFree(*bg));
  EXPECT_EQ(EdgeSetOf(*bg), s.ExpandedEdgeSet());
  EXPECT_GT(bg->NumBitmaps(), 0u);
  EXPECT_GT(bg->BitmapMemoryBytes(), 0u);
}

TEST(BitmapGraphTest, DeleteEdgeClearsBit) {
  CondensedStorage s = MakeFigure1Graph();
  auto bg = BuildBitmap1(s);
  ASSERT_TRUE(bg.ok());
  uint64_t stored = bg->CountStoredEdges();
  EXPECT_TRUE(bg->DeleteEdge(0, 3).ok());
  EXPECT_FALSE(bg->ExistsEdge(0, 3));
  EXPECT_TRUE(bg->ExistsEdge(0, 1));
  EXPECT_TRUE(bg->ExistsEdge(3, 0));
  // Structural edges unchanged: the deletion lives in the bitmap.
  EXPECT_EQ(bg->CountStoredEdges(), stored);
  EXPECT_TRUE(IsDuplicateFree(*bg));
}

TEST(BitmapGraphTest, AddEdgeDirect) {
  CondensedStorage s = MakeFigure1Graph();
  auto bg = BuildBitmap1(s);
  ASSERT_TRUE(bg.ok());
  EXPECT_TRUE(bg->AddEdge(0, 4).ok());
  EXPECT_TRUE(bg->ExistsEdge(0, 4));
  EXPECT_TRUE(IsDuplicateFree(*bg));
}

TEST(BitmapGraphTest, DeleteVertexLazy) {
  CondensedStorage s = MakeFigure1Graph();
  auto bg = BuildBitmap2(s);
  ASSERT_TRUE(bg.ok());
  EXPECT_TRUE(bg->DeleteVertex(3).ok());
  EXPECT_FALSE(bg->ExistsEdge(0, 3));
  EXPECT_TRUE(IsDuplicateFree(*bg));
}

// ---------- DEDUP-2 representation mechanics ----------

TEST(Dedup2GraphTest, OneHopSemantics) {
  Dedup2Graph g(6);
  uint32_t w1 = g.AddVirtualNode({0, 1});
  uint32_t w2 = g.AddVirtualNode({2, 3});
  g.AddVirtualNode({4, 5});  // w3, disconnected from w1/w2
  g.AddVirtualEdge(w1, w2);
  // 0 is connected to 1 (same node) and to 2, 3 (1 hop), not to 4, 5.
  std::vector<NodeId> n = g.NeighborList(0);
  std::sort(n.begin(), n.end());
  EXPECT_EQ(n, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_TRUE(g.ExistsEdge(0, 2));
  EXPECT_FALSE(g.ExistsEdge(0, 4));
  EXPECT_TRUE(IsDuplicateFree(g));
  // Undirected edge count: 6 membership + 1 virtual-virtual.
  EXPECT_EQ(g.CountStoredEdges(), 7u);
}

TEST(Dedup2GraphTest, AddEdgeCreatesPairNode) {
  Dedup2Graph g(4);
  g.AddVirtualNode({0, 1});
  size_t before = g.NumVirtualNodes();
  EXPECT_TRUE(g.AddEdge(0, 1).ok());  // exists: no-op
  EXPECT_EQ(g.NumVirtualNodes(), before);
  EXPECT_TRUE(g.AddEdge(2, 3).ok());
  EXPECT_EQ(g.NumVirtualNodes(), before + 1);
  EXPECT_TRUE(g.ExistsEdge(2, 3));
  EXPECT_TRUE(g.ExistsEdge(3, 2));  // undirected
}

TEST(Dedup2GraphTest, DeleteEdgeCompensates) {
  Dedup2Graph g(4);
  g.AddVirtualNode({0, 1, 2, 3});
  EXPECT_TRUE(g.DeleteEdge(0, 1).ok());
  EXPECT_FALSE(g.ExistsEdge(0, 1));
  EXPECT_FALSE(g.ExistsEdge(1, 0));
  // 0 keeps its other neighbors.
  EXPECT_TRUE(g.ExistsEdge(0, 2));
  EXPECT_TRUE(g.ExistsEdge(0, 3));
  EXPECT_TRUE(g.ExistsEdge(2, 0));
  EXPECT_TRUE(IsDuplicateFree(g));
}

TEST(Dedup2GraphTest, DeleteEdgeAcrossVirtualEdge) {
  Dedup2Graph g(4);
  uint32_t w1 = g.AddVirtualNode({0, 1});
  uint32_t w2 = g.AddVirtualNode({2, 3});
  g.AddVirtualEdge(w1, w2);
  EXPECT_TRUE(g.DeleteEdge(0, 2).ok());
  EXPECT_FALSE(g.ExistsEdge(0, 2));
  EXPECT_TRUE(g.ExistsEdge(0, 1));
  EXPECT_TRUE(g.ExistsEdge(0, 3));
  EXPECT_TRUE(g.ExistsEdge(1, 2));
  EXPECT_TRUE(IsDuplicateFree(g));
}

TEST(Dedup2GraphTest, DeleteVertexConstantTime) {
  Dedup2Graph g(3);
  g.AddVirtualNode({0, 1, 2});
  EXPECT_TRUE(g.DeleteVertex(1).ok());
  EXPECT_FALSE(g.VertexExists(1));
  std::vector<NodeId> n = g.NeighborList(0);
  EXPECT_EQ(n, (std::vector<NodeId>{2}));
}

// ---------- Cross-representation equivalence (property sweep) ----------

struct EquivParam {
  size_t reals;
  size_t virtuals;
  double mean;
  uint64_t seed;
};

class EquivalenceTest : public ::testing::TestWithParam<EquivParam> {};

TEST_P(EquivalenceTest, AllRepresentationsAgree) {
  const EquivParam p = GetParam();
  CondensedStorage s =
      MakeRandomSymmetric(p.reals, p.virtuals, p.mean, p.seed);
  auto oracle = s.ExpandedEdgeSet();

  CDupGraph cdup(s);
  EXPECT_EQ(EdgeSetOf(cdup), oracle) << "C-DUP";

  ExpandedGraph exp = ExpandCondensed(s);
  EXPECT_EQ(EdgeSetOf(exp), oracle) << "EXP";

  auto bm1 = BuildBitmap1(s);
  ASSERT_TRUE(bm1.ok());
  EXPECT_EQ(EdgeSetOf(*bm1), oracle) << "BITMAP-1";
  EXPECT_TRUE(IsDuplicateFree(*bm1)) << "BITMAP-1";

  auto bm2 = BuildBitmap2(s);
  ASSERT_TRUE(bm2.ok());
  EXPECT_EQ(EdgeSetOf(*bm2), oracle) << "BITMAP-2";
  EXPECT_TRUE(IsDuplicateFree(*bm2)) << "BITMAP-2";

  auto d1 = GreedyVirtualNodesFirst(s);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(EdgeSetOf(*d1), oracle) << "DEDUP-1";
  EXPECT_TRUE(IsDuplicateFree(*d1)) << "DEDUP-1";

  auto d2 = BuildDedup2(s);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(EdgeSetOf(*d2), oracle) << "DEDUP-2";
  EXPECT_TRUE(IsDuplicateFree(*d2)) << "DEDUP-2";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EquivalenceTest,
    ::testing::Values(EquivParam{30, 12, 4, 1}, EquivParam{50, 30, 3, 2},
                      EquivParam{80, 10, 12, 3}, EquivParam{100, 60, 5, 4},
                      EquivParam{40, 4, 20, 5}, EquivParam{200, 80, 6, 6}),
    [](const ::testing::TestParamInfo<EquivParam>& info) {
      const EquivParam& p = info.param;
      return "r" + std::to_string(p.reals) + "_v" +
             std::to_string(p.virtuals) + "_s" + std::to_string(p.seed);
    });

}  // namespace
}  // namespace graphgen
