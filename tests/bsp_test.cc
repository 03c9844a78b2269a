#include <gtest/gtest.h>

#include "algos/connected_components.h"
#include "algos/degree.h"
#include "algos/pagerank.h"
#include "bsp/bsp_programs.h"
#include "dedup/bitmap_algorithms.h"
#include "dedup/dedup1_algorithms.h"
#include "repr/cdup_graph.h"
#include "repr/expander.h"
#include "test_util.h"

namespace graphgen::bsp {
namespace {

using graphgen::testing::MakeRandomSymmetric;

struct ReprSet {
  ExpandedGraph exp;
  Dedup1Graph dedup1;
  BitmapGraph bitmap;
};

ReprSet MakeSetup(uint64_t seed) {
  CondensedStorage s = MakeRandomSymmetric(60, 20, 6, seed);
  auto d1 = GreedyVirtualNodesFirst(s);
  EXPECT_TRUE(d1.ok());
  auto bm = BuildBitmap2(s);
  EXPECT_TRUE(bm.ok());
  return ReprSet{ExpandCondensed(s), std::move(*d1), std::move(*bm)};
}

TEST(BspEngineTest, DegreeAgreesAcrossRepresentations) {
  ReprSet su = MakeSetup(1);
  std::vector<uint64_t> exp_deg;
  std::vector<uint64_t> d1_deg;
  std::vector<uint64_t> bm_deg;
  ASSERT_TRUE(MakeExpandedEngine(su.exp).RunDegree(&exp_deg).ok());
  ASSERT_TRUE(MakeDedup1Engine(su.dedup1).RunDegree(&d1_deg).ok());
  ASSERT_TRUE(MakeBitmapEngine(su.bitmap).RunDegree(&bm_deg).ok());
  EXPECT_EQ(exp_deg, d1_deg);
  EXPECT_EQ(exp_deg, bm_deg);
  // Cross-check against the vertex-centric implementation.
  EXPECT_EQ(exp_deg, ComputeDegrees(su.exp));
}

// A deleted vertex sends nothing, not even through a virtual node it
// still has an out-edge to.
TEST(BspEngineTest, DeletedVerticesSendNothing) {
  ReprSet su = MakeSetup(9);
  for (NodeId x : {0u, 7u, 31u}) {
    ASSERT_TRUE(su.dedup1.DeleteVertex(x).ok());
    ASSERT_TRUE(su.bitmap.DeleteVertex(x).ok());
  }
  const std::vector<uint64_t> expected =
      ComputeDegrees(ExpandGraph(su.dedup1));
  std::vector<uint64_t> d1_deg;
  std::vector<uint64_t> bm_deg;
  ASSERT_TRUE(MakeDedup1Engine(su.dedup1).RunDegree(&d1_deg).ok());
  ASSERT_TRUE(MakeBitmapEngine(su.bitmap).RunDegree(&bm_deg).ok());
  for (NodeId u = 0; u < expected.size(); ++u) {
    if (!su.dedup1.VertexExists(u)) continue;
    EXPECT_EQ(d1_deg[u], expected[u]) << u;
    EXPECT_EQ(bm_deg[u], expected[u]) << u;
  }
}

TEST(BspEngineTest, CondensedUsesTwiceTheSupersteps) {
  ReprSet su = MakeSetup(2);
  std::vector<uint64_t> tmp;
  auto exp_stats = MakeExpandedEngine(su.exp).RunDegree(&tmp);
  auto d1_stats = MakeDedup1Engine(su.dedup1).RunDegree(&tmp);
  ASSERT_TRUE(exp_stats.ok());
  ASSERT_TRUE(d1_stats.ok());
  EXPECT_EQ(exp_stats->supersteps, 1u);
  EXPECT_EQ(d1_stats->supersteps, 2u);
}

TEST(BspEngineTest, MessageCountBoundedByTwiceEdges) {
  ReprSet su = MakeSetup(3);
  std::vector<uint64_t> tmp;
  auto d1_stats = MakeDedup1Engine(su.dedup1).RunDegree(&tmp);
  ASSERT_TRUE(d1_stats.ok());
  EXPECT_LE(d1_stats->messages, su.dedup1.CountStoredEdges());
  auto bm_stats = MakeBitmapEngine(su.bitmap).RunDegree(&tmp);
  ASSERT_TRUE(bm_stats.ok());
  EXPECT_LE(bm_stats->messages, su.bitmap.CountStoredEdges());
}

TEST(BspEngineTest, PageRankAgreesAcrossRepresentations) {
  ReprSet su = MakeSetup(4);
  std::vector<double> exp_pr;
  std::vector<double> d1_pr;
  std::vector<double> bm_pr;
  ASSERT_TRUE(MakeExpandedEngine(su.exp).RunPageRank(8, 0.85, &exp_pr).ok());
  ASSERT_TRUE(MakeDedup1Engine(su.dedup1).RunPageRank(8, 0.85, &d1_pr).ok());
  ASSERT_TRUE(MakeBitmapEngine(su.bitmap).RunPageRank(8, 0.85, &bm_pr).ok());
  ASSERT_EQ(exp_pr.size(), d1_pr.size());
  for (size_t u = 0; u < exp_pr.size(); ++u) {
    EXPECT_NEAR(exp_pr[u], d1_pr[u], 1e-9) << u;
    EXPECT_NEAR(exp_pr[u], bm_pr[u], 1e-9) << u;
  }
  // And against the vertex-centric PageRank.
  std::vector<double> vc_pr = PageRank(su.exp, {.iterations = 8});
  for (size_t u = 0; u < exp_pr.size(); ++u) {
    EXPECT_NEAR(exp_pr[u], vc_pr[u], 1e-9) << u;
  }
}

TEST(BspEngineTest, PageRankSumsToOne) {
  ReprSet su = MakeSetup(5);
  std::vector<double> pr;
  ASSERT_TRUE(MakeDedup1Engine(su.dedup1).RunPageRank(10, 0.85, &pr).ok());
  double sum = 0;
  for (double r : pr) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(BspEngineTest, ConnectedComponentsAgree) {
  ReprSet su = MakeSetup(6);
  std::vector<NodeId> exp_cc;
  std::vector<NodeId> d1_cc;
  std::vector<NodeId> bm_cc;
  ASSERT_TRUE(MakeExpandedEngine(su.exp).RunConnectedComponents(&exp_cc).ok());
  ASSERT_TRUE(
      MakeDedup1Engine(su.dedup1).RunConnectedComponents(&d1_cc).ok());
  ASSERT_TRUE(MakeBitmapEngine(su.bitmap).RunConnectedComponents(&bm_cc).ok());
  EXPECT_EQ(exp_cc, d1_cc);
  EXPECT_EQ(exp_cc, bm_cc);
  EXPECT_EQ(exp_cc, ConnectedComponents(su.exp));
}

TEST(BspEngineTest, ConnectedComponentsRunsOnCDupDirectly) {
  // Duplicate-insensitive: no dedup needed (the §6.4 C-DUP fast path).
  CondensedStorage s = MakeRandomSymmetric(50, 15, 5, 7);
  ExpandedGraph exp = ExpandCondensed(s);
  const CDupGraph cdup(s);
  std::vector<NodeId> cdup_cc;
  std::vector<NodeId> exp_cc;
  ASSERT_TRUE(
      BspEngine(BspGraph(&cdup)).RunConnectedComponents(&cdup_cc).ok());
  ASSERT_TRUE(MakeExpandedEngine(exp).RunConnectedComponents(&exp_cc).ok());
  EXPECT_EQ(cdup_cc, exp_cc);
}

TEST(BspEngineTest, RejectsMultiLayer) {
  gen::LayeredGenOptions o;
  o.num_real = 20;
  o.layer_sizes = {4, 2};
  const CDupGraph g(gen::GenerateLayeredCondensed(o));
  std::vector<uint64_t> tmp;
  EXPECT_EQ(BspEngine(BspGraph(&g)).RunDegree(&tmp).status().code(),
            StatusCode::kUnsupported);
}

TEST(BspEngineTest, BitmapMemoryIncludesBitmaps) {
  ReprSet su = MakeSetup(8);
  std::vector<uint64_t> tmp;
  auto bm_stats = MakeBitmapEngine(su.bitmap).RunDegree(&tmp);
  ASSERT_TRUE(bm_stats.ok());
  // The graph's footprint, bitmaps included, plus the run's transpose.
  EXPECT_GT(bm_stats->memory_bytes, su.bitmap.MemoryBytes());
}

}  // namespace
}  // namespace graphgen::bsp
