#include <gtest/gtest.h>

#include "compress/vminer.h"
#include "repr/cdup_graph.h"
#include "repr/expander.h"
#include "test_util.h"

namespace graphgen {
namespace {

using testing::MakeRandomSymmetric;

TEST(VMinerTest, LosslessOnRandomGraph) {
  CondensedStorage s = MakeRandomSymmetric(60, 15, 8, 3);
  ExpandedGraph exp = ExpandCondensed(s);
  VMinerResult result = VMinerCompress(exp);
  EXPECT_EQ(result.storage.ExpandedEdgeSet(), exp.ExpandedEdgeSet());
}

TEST(VMinerTest, CompressesPlantedBicliques) {
  // Plant two large bicliques: A = {0..9} -> B = {10..19} and
  // C = {20..29} -> D = {30..39}.
  ExpandedGraph g(40);
  for (NodeId a = 0; a < 10; ++a) {
    for (NodeId b = 10; b < 20; ++b) ASSERT_TRUE(g.AddEdge(a, b).ok());
  }
  for (NodeId c = 20; c < 30; ++c) {
    for (NodeId d = 30; d < 40; ++d) ASSERT_TRUE(g.AddEdge(c, d).ok());
  }
  VMinerResult result = VMinerCompress(g);
  EXPECT_EQ(result.storage.ExpandedEdgeSet(), g.ExpandedEdgeSet());
  EXPECT_GE(result.bicliques_found, 2u);
  EXPECT_LT(result.edges_after, result.edges_before);
  // 200 direct edges should shrink to roughly 2 * (10 + 10).
  EXPECT_LT(result.edges_after, 80u);
}

TEST(VMinerTest, ResultIsDuplicateFree) {
  CondensedStorage s = MakeRandomSymmetric(50, 10, 10, 5);
  ExpandedGraph exp = ExpandCondensed(s);
  VMinerResult result = VMinerCompress(exp);
  CDupGraph as_graph(std::move(result.storage));
  EXPECT_TRUE(testing::IsDuplicateFree(as_graph));
  // Stronger: zero duplicate paths in the storage itself.
  EXPECT_EQ(as_graph.CountDuplicatePairs(), 0u);
}

TEST(VMinerTest, NoCompressionOnSparseGraph) {
  // A long path has no bicliques worth replacing.
  ExpandedGraph g(20);
  for (NodeId u = 0; u + 1 < 20; ++u) ASSERT_TRUE(g.AddEdge(u, u + 1).ok());
  VMinerResult result = VMinerCompress(g);
  EXPECT_EQ(result.bicliques_found, 0u);
  EXPECT_EQ(result.edges_after, result.edges_before);
}

TEST(VMinerTest, WorseThanExtractionTimeCondensation) {
  // The paper's Fig. 10 claim: mining bicliques from the expanded graph
  // recovers less structure than never expanding at all. C-DUP stores the
  // generator's cliques directly; VMiner must rediscover them.
  CondensedStorage s = MakeRandomSymmetric(80, 8, 25, 7);
  ExpandedGraph exp = ExpandCondensed(s);
  VMinerResult result = VMinerCompress(exp);
  EXPECT_EQ(result.storage.ExpandedEdgeSet(), exp.ExpandedEdgeSet());
  EXPECT_GE(result.edges_after, s.CountCondensedEdges() / 2);
}

TEST(VMinerTest, RespectsDeletedVertices) {
  CondensedStorage s = MakeRandomSymmetric(40, 8, 8, 9);
  s.DeleteRealNode(0);
  ExpandedGraph exp = ExpandCondensed(s);
  VMinerResult result = VMinerCompress(exp);
  CDupGraph as_graph(std::move(result.storage));
  EXPECT_FALSE(as_graph.VertexExists(0));
  EXPECT_EQ(as_graph.ExpandedEdgeSet(), exp.ExpandedEdgeSet());
}

}  // namespace
}  // namespace graphgen
