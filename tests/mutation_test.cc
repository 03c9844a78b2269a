// Property suite: apply the same random mutation sequence (AddEdge /
// DeleteEdge / DeleteVertex / AddVertex) to every representation of the
// same starting graph, and assert that all representations remain
// behaviourally identical (same expanded edge set) and duplicate-free
// where required — the strongest end-to-end guarantee of the Graph API.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dedup/bitmap_algorithms.h"
#include "dedup/dedup1_algorithms.h"
#include "dedup/dedup2_builder.h"
#include "repr/cdup_graph.h"
#include "repr/dedup1_graph.h"
#include "repr/dedup2_graph.h"
#include "repr/expander.h"
#include "test_util.h"

namespace graphgen {
namespace {

using testing::IsDuplicateFree;
using testing::MakeRandomSymmetric;

struct MutationParam {
  uint64_t graph_seed;
  uint64_t op_seed;
  int num_ops;
};

class MutationConsistencyTest
    : public ::testing::TestWithParam<MutationParam> {};

TEST_P(MutationConsistencyTest, RepresentationsStayEquivalent) {
  const MutationParam p = GetParam();
  CondensedStorage s = MakeRandomSymmetric(40, 12, 5, p.graph_seed);

  std::vector<std::unique_ptr<Graph>> graphs;
  graphs.push_back(std::make_unique<CDupGraph>(s));
  graphs.push_back(std::make_unique<ExpandedGraph>(ExpandCondensed(s)));
  auto d1 = GreedyVirtualNodesFirst(s);
  ASSERT_TRUE(d1.ok());
  graphs.push_back(std::make_unique<Dedup1Graph>(std::move(*d1)));
  auto bm = BuildBitmap2(s);
  ASSERT_TRUE(bm.ok());
  graphs.push_back(std::make_unique<BitmapGraph>(std::move(*bm)));
  auto b1 = BuildBitmap1(s);
  ASSERT_TRUE(b1.ok());
  graphs.push_back(std::make_unique<BitmapGraph>(std::move(*b1)));

  Rng rng(p.op_seed);
  size_t num_vertices = s.NumRealNodes();
  for (int op = 0; op < p.num_ops; ++op) {
    int kind = static_cast<int>(rng.NextBounded(8));
    NodeId u = static_cast<NodeId>(rng.NextBounded(num_vertices));
    NodeId v = static_cast<NodeId>(rng.NextBounded(num_vertices));
    switch (kind) {
      case 0:
      case 1:
      case 2: {  // AddEdge (directed)
        for (auto& g : graphs) {
          if (!g->VertexExists(u) || !g->VertexExists(v)) continue;
          if (u != v) {
            EXPECT_TRUE(g->AddEdge(u, v).ok()) << g->Name();
            continue;
          }
          // Self paths are never logical edges: refused, nothing stored.
          const auto edges = g->ExpandedEdgeSet();
          const uint64_t stored = g->CountStoredEdges();
          EXPECT_EQ(g->AddEdge(u, v).code(), StatusCode::kInvalidArgument)
              << g->Name() << " op " << op << " (" << u << "," << u << ")";
          EXPECT_EQ(g->ExpandedEdgeSet(), edges) << g->Name();
          EXPECT_EQ(g->CountStoredEdges(), stored) << g->Name();
        }
        break;
      }
      case 3:
      case 4:
      case 5: {  // DeleteEdge (only when present; status must agree)
        bool exists = graphs[0]->ExistsEdge(u, v);
        for (auto& g : graphs) {
          ASSERT_EQ(g->ExistsEdge(u, v), exists)
              << g->Name() << " op " << op << " (" << u << "," << v << ")";
          if (exists) {
            EXPECT_TRUE(g->DeleteEdge(u, v).ok()) << g->Name();
          }
        }
        break;
      }
      case 6: {  // DeleteVertex
        if (!graphs[0]->VertexExists(u)) break;
        for (auto& g : graphs) {
          EXPECT_TRUE(g->DeleteVertex(u).ok()) << g->Name();
        }
        break;
      }
      case 7: {  // AddVertex
        NodeId id = graphs[0]->AddVertex();
        for (size_t i = 1; i < graphs.size(); ++i) {
          ASSERT_EQ(graphs[i]->AddVertex(), id) << graphs[i]->Name();
        }
        num_vertices = id + 1;
        break;
      }
    }
  }

  // Final state equivalence.
  auto oracle = graphs[0]->ExpandedEdgeSet();
  for (size_t i = 1; i < graphs.size(); ++i) {
    EXPECT_EQ(graphs[i]->ExpandedEdgeSet(), oracle) << graphs[i]->Name();
  }
  // Invariants that must survive arbitrary mutation.
  EXPECT_TRUE(IsDuplicateFree(*graphs[0])) << "C-DUP iterator";
  EXPECT_TRUE(IsDuplicateFree(*graphs[2])) << "DEDUP-1";
  EXPECT_TRUE(IsDuplicateFree(*graphs[3])) << "BITMAP-2";
  EXPECT_TRUE(IsDuplicateFree(*graphs[4])) << "BITMAP-1";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MutationConsistencyTest,
    ::testing::Values(MutationParam{1, 100, 60}, MutationParam{2, 200, 60},
                      MutationParam{3, 300, 120}, MutationParam{4, 400, 120},
                      MutationParam{5, 500, 200}, MutationParam{6, 600, 200},
                      MutationParam{7, 700, 40}, MutationParam{8, 800, 300}),
    [](const ::testing::TestParamInfo<MutationParam>& info) {
      const MutationParam& p = info.param;
      return "g" + std::to_string(p.graph_seed) + "_ops" +
             std::to_string(p.num_ops);
    });

// Deletion compaction interacts with every representation's traversal.
TEST(MutationEdgeCases, CompactAfterManyDeletions) {
  CondensedStorage s = MakeRandomSymmetric(50, 15, 5, 11);
  CDupGraph g(s);
  for (NodeId u = 0; u < 25; ++u) {
    ASSERT_TRUE(g.DeleteVertex(u).ok());
  }
  auto before = g.ExpandedEdgeSet();
  g.Compact();
  EXPECT_EQ(g.ExpandedEdgeSet(), before);
  EXPECT_EQ(g.NumActiveVertices(), 25u);
}

TEST(MutationEdgeCases, DeleteAllVertices) {
  CondensedStorage s = MakeRandomSymmetric(20, 6, 4, 12);
  CDupGraph g(s);
  for (NodeId u = 0; u < 20; ++u) {
    ASSERT_TRUE(g.DeleteVertex(u).ok());
  }
  EXPECT_EQ(g.NumActiveVertices(), 0u);
  EXPECT_TRUE(g.ExpandedEdgeSet().empty());
  EXPECT_EQ(g.CountExpandedEdges(), 0u);
}

TEST(MutationEdgeCases, InterleavedAddDeleteSameEdge) {
  CondensedStorage s = MakeRandomSymmetric(20, 6, 4, 13);
  auto bm = BuildBitmap2(s);
  ASSERT_TRUE(bm.ok());
  bool existed = bm->ExistsEdge(0, 1);
  for (int round = 0; round < 5; ++round) {
    if (!bm->ExistsEdge(0, 1)) {
      ASSERT_TRUE(bm->AddEdge(0, 1).ok());
    }
    ASSERT_TRUE(bm->DeleteEdge(0, 1).ok());
    EXPECT_FALSE(bm->ExistsEdge(0, 1));
    ASSERT_TRUE(bm->AddEdge(0, 1).ok());
    EXPECT_TRUE(bm->ExistsEdge(0, 1));
  }
  EXPECT_TRUE(IsDuplicateFree(*bm));
  (void)existed;
}

// BITMAP-2 stores no bitmap for a (source, virtual node) pair whose bitmap
// would be all ones. Deleting an edge through such a pair inserts one
// all-ones slot into the flat index, then clears one bit of it.
TEST(MutationEdgeCases, Bitmap2DeleteThroughPairWithoutBitmap) {
  CondensedStorage s;
  s.AddRealNodes(10);
  const uint32_t v0 = s.AddVirtualNode();
  const uint32_t v1 = s.AddVirtualNode();
  for (NodeId x : {2, 3, 4}) {
    s.AddEdge(NodeRef::Virtual(v0), NodeRef::Real(x));
  }
  for (NodeId x : {4, 5}) s.AddEdge(NodeRef::Virtual(v1), NodeRef::Real(x));
  s.AddEdge(NodeRef::Real(0), NodeRef::Virtual(v0));
  for (NodeId u : {1, 6, 7, 8, 9}) {
    s.AddEdge(NodeRef::Real(u), NodeRef::Virtual(v0));
    s.AddEdge(NodeRef::Real(u), NodeRef::Virtual(v1));
  }
  auto bm = BuildBitmap2(s);
  ASSERT_TRUE(bm.ok());
  ASSERT_EQ(bm->FindBitmap(v0, 0), nullptr);
  // Sources 1, 6..9 reach 4 through both; their bitmaps at v1 keep only 5.
  ASSERT_EQ(bm->NumBitmaps(), 5u);
  ASSERT_NE(bm->FindBitmap(v1, 1), nullptr);

  const size_t bytes = bm->BitmapMemoryBytes();
  const size_t bitmaps = bm->NumBitmaps();
  auto expected = bm->ExpandedEdgeSet();
  ASSERT_EQ(std::erase(expected, std::pair<NodeId, NodeId>{0, 3}), 1u);
  ASSERT_TRUE(bm->DeleteEdge(0, 3).ok());
  EXPECT_EQ(bm->ExpandedEdgeSet(), expected);
  EXPECT_TRUE(IsDuplicateFree(*bm));
  EXPECT_NE(bm->FindBitmap(v0, 0), nullptr);
  EXPECT_EQ(bm->NumBitmaps(), bitmaps + 1);
  // One owner id (4 B) and W(v0) words (8 B each), exactly.
  EXPECT_EQ(bm->BitmapMemoryBytes(), bytes + 4 + 8 * BitmapWords(3));
}

// Random add/delete churn builds up the EXP copy-on-write overlay;
// Compact must fold it back into flat adjacency without changing the
// edge set, and a second Compact must be a no-op.
TEST(MutationEdgeCases, ExpandedCompactSurvivesRandomChurn) {
  CondensedStorage s = MakeRandomSymmetric(40, 12, 5, 15);
  ExpandedGraph g = ExpandCondensed(s);
  Rng rng(99);
  for (int i = 0; i < 120; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(40));
    NodeId v = static_cast<NodeId>(rng.NextBounded(40));
    if (u == v) continue;
    if (g.ExistsEdge(u, v)) {
      ASSERT_TRUE(g.DeleteEdge(u, v).ok());
    } else {
      ASSERT_TRUE(g.AddEdge(u, v).ok());
    }
  }
  ASSERT_TRUE(g.DeleteVertex(7).ok());
  auto before = g.ExpandedEdgeSet();
  (void)g.Compact();
  EXPECT_EQ(g.ExpandedEdgeSet(), before);
  EXPECT_EQ(g.PatchedVertices(), 0u);
  EXPECT_TRUE(g.HasFlatAdjacency());
  EXPECT_TRUE(IsDuplicateFree(g));
  EXPECT_EQ(g.Compact(), 0u);
}

// A self path is never a logical edge, so no representation adds or
// deletes one: AddEdge(u, u) is refused, DeleteEdge(u, u) finds nothing,
// and neither changes what is stored.
TEST(MutationEdgeCases, SelfEdgesChangeNothing) {
  CondensedStorage s = MakeRandomSymmetric(40, 12, 5, 3);
  std::vector<std::unique_ptr<Graph>> graphs;
  graphs.push_back(std::make_unique<CDupGraph>(s));
  graphs.push_back(std::make_unique<ExpandedGraph>(ExpandCondensed(s)));
  auto d1 = GreedyVirtualNodesFirst(s);
  ASSERT_TRUE(d1.ok());
  graphs.push_back(std::make_unique<Dedup1Graph>(std::move(*d1)));
  auto d2 = BuildDedup2(s);
  ASSERT_TRUE(d2.ok());
  graphs.push_back(std::make_unique<Dedup2Graph>(std::move(*d2)));
  auto b1 = BuildBitmap1(s);
  ASSERT_TRUE(b1.ok());
  graphs.push_back(std::make_unique<BitmapGraph>(std::move(*b1)));
  auto b2 = BuildBitmap2(s);
  ASSERT_TRUE(b2.ok());
  graphs.push_back(std::make_unique<BitmapGraph>(std::move(*b2)));

  for (auto& g : graphs) {
    const auto edges = g->ExpandedEdgeSet();
    const uint64_t stored = g->CountStoredEdges();
    for (NodeId u = 0; u < 40; ++u) {
      EXPECT_EQ(g->AddEdge(u, u).code(), StatusCode::kInvalidArgument)
          << g->Name() << " " << u;
      EXPECT_EQ(g->DeleteEdge(u, u).code(), StatusCode::kNotFound)
          << g->Name() << " " << u;
    }
    EXPECT_EQ(g->ExpandedEdgeSet(), edges) << g->Name();
    EXPECT_EQ(g->CountStoredEdges(), stored) << g->Name();
  }
}

TEST(MutationEdgeCases, AddEdgeToFreshVertex) {
  CondensedStorage s = MakeRandomSymmetric(10, 3, 3, 14);
  Dedup1Graph g = *GreedyVirtualNodesFirst(s);
  NodeId fresh = g.AddVertex();
  EXPECT_TRUE(g.AddEdge(fresh, 0).ok());
  EXPECT_TRUE(g.AddEdge(0, fresh).ok());
  EXPECT_TRUE(g.ExistsEdge(fresh, 0));
  EXPECT_TRUE(g.ExistsEdge(0, fresh));
  EXPECT_TRUE(IsDuplicateFree(g));
}

}  // namespace
}  // namespace graphgen
