#include <gtest/gtest.h>

#include <set>

#include "dedup/bitmap_algorithms.h"
#include "dedup/dedup1_algorithms.h"
#include "dedup/dedup2_builder.h"
#include "dedup/detail.h"
#include "gen/condensed_generator.h"
#include "test_util.h"

namespace graphgen {
namespace {

using testing::AddMember;
using testing::IsDuplicateFree;
using testing::MakeFigure1Graph;
using testing::MakeRandomSymmetric;

// ---------- shared helpers ----------

TEST(DedupDetailTest, PathExists) {
  CondensedStorage g = MakeFigure1Graph();
  EXPECT_TRUE(dedup_internal::PathExists(g, 0, 3));
  EXPECT_FALSE(dedup_internal::PathExists(g, 0, 4));
  EXPECT_FALSE(dedup_internal::PathExists(g, 0, 0));
}

TEST(DedupDetailTest, InOutReals) {
  CondensedStorage g = MakeFigure1Graph();
  EXPECT_EQ(dedup_internal::OutReals(g, 0), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(dedup_internal::InReals(g, 2), (std::vector<NodeId>{3, 4}));
}

TEST(DedupDetailTest, HasDuplicationRules) {
  using dedup_internal::HasDuplication;
  EXPECT_FALSE(HasDuplication({}, {1}));
  EXPECT_FALSE(HasDuplication({1}, {}));
  EXPECT_FALSE(HasDuplication({1}, {1}));   // only the self pair
  EXPECT_TRUE(HasDuplication({1}, {2}));    // pair (1,2)
  EXPECT_TRUE(HasDuplication({1, 2}, {1})); // pair (2,1)
  EXPECT_TRUE(HasDuplication({1, 2}, {1, 2}));
}

TEST(DedupDetailTest, DetachTargetCompensates) {
  CondensedStorage g = MakeFigure1Graph();
  auto before = g.ExpandedEdgeSet();
  // Detach a4 (id 3) from p1 (virtual 0): pairs (a1,a4),(a2,a4),(a3,a4)
  // must survive via p2 or compensation direct edges.
  dedup_internal::DetachTargetWithCompensation(g, 0, 3);
  EXPECT_EQ(g.ExpandedEdgeSet(), before);
  // a2 (id 1) is not in p2, so it needed a direct edge.
  bool direct = false;
  for (NodeRef r : g.OutEdges(NodeRef::Real(1))) {
    if (r == NodeRef::Real(3)) direct = true;
  }
  EXPECT_TRUE(direct);
}

TEST(DedupDetailTest, CopyRealSkeletonKeepsDirectEdges) {
  CondensedStorage g = MakeFigure1Graph();
  g.AddEdge(NodeRef::Real(0), NodeRef::Real(4));
  CondensedStorage skel = dedup_internal::CopyRealSkeleton(g);
  EXPECT_EQ(skel.NumVirtualNodes(), 0u);
  EXPECT_EQ(skel.CountCondensedEdges(), 1u);
  EXPECT_EQ(skel.NumRealNodes(), g.NumRealNodes());
}

// ---------- FlattenToSingleLayer ----------

TEST(FlattenTest, PreservesEdgeSet) {
  gen::LayeredGenOptions o;
  o.num_real = 60;
  o.layer_sizes = {10, 6};
  o.avg_real_memberships = 2.0;
  o.avg_layer_fanout = 2.0;
  o.seed = 11;
  CondensedStorage g = gen::GenerateLayeredCondensed(o);
  ASSERT_FALSE(g.IsSingleLayer());
  auto before = g.ExpandedEdgeSet();
  CondensedStorage flat = FlattenToSingleLayer(g);
  EXPECT_TRUE(flat.IsSingleLayer());
  EXPECT_EQ(flat.ExpandedEdgeSet(), before);
}

// ---------- DEDUP-1 algorithm sweep ----------

using Dedup1Fn = Result<Dedup1Graph> (*)(const CondensedStorage&,
                                         const DedupOptions&);

struct AlgoParam {
  const char* name;
  Dedup1Fn fn;
  NodeOrdering ordering;
  uint64_t seed;
};

class Dedup1AlgoTest : public ::testing::TestWithParam<AlgoParam> {};

TEST_P(Dedup1AlgoTest, Figure1Deduplicated) {
  const AlgoParam& p = GetParam();
  CondensedStorage input = MakeFigure1Graph();
  DedupOptions opts;
  opts.ordering = p.ordering;
  opts.seed = p.seed;
  auto result = p.fn(input, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ExpandedEdgeSet(), input.ExpandedEdgeSet());
  EXPECT_TRUE(IsDuplicateFree(*result));
  EXPECT_EQ(result->CountDuplicatePairs(), 0u);
}

TEST_P(Dedup1AlgoTest, RandomGraphsDeduplicated) {
  const AlgoParam& p = GetParam();
  for (uint64_t seed : {1u, 2u, 3u}) {
    CondensedStorage input = MakeRandomSymmetric(60, 25, 5, seed);
    DedupOptions opts;
    opts.ordering = p.ordering;
    opts.seed = p.seed;
    auto result = p.fn(input, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->ExpandedEdgeSet(), input.ExpandedEdgeSet())
        << p.name << " seed " << seed;
    EXPECT_TRUE(IsDuplicateFree(*result)) << p.name << " seed " << seed;
  }
}

TEST_P(Dedup1AlgoTest, DenseOverlappingCliques) {
  const AlgoParam& p = GetParam();
  CondensedStorage input = MakeRandomSymmetric(40, 8, 15, 77);
  DedupOptions opts;
  opts.ordering = p.ordering;
  opts.seed = p.seed;
  auto result = p.fn(input, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ExpandedEdgeSet(), input.ExpandedEdgeSet());
  EXPECT_TRUE(IsDuplicateFree(*result));
}

TEST_P(Dedup1AlgoTest, RejectsMultiLayer) {
  gen::LayeredGenOptions o;
  o.num_real = 30;
  o.layer_sizes = {5, 3};
  CondensedStorage g = gen::GenerateLayeredCondensed(o);
  auto result = GetParam().fn(g, DedupOptions{});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, Dedup1AlgoTest,
    ::testing::Values(
        AlgoParam{"NaiveVirtual_Rand", &NaiveVirtualNodesFirst,
                  NodeOrdering::kRandom, 1},
        AlgoParam{"NaiveVirtual_Asc", &NaiveVirtualNodesFirst,
                  NodeOrdering::kDegreeAsc, 2},
        AlgoParam{"NaiveVirtual_Desc", &NaiveVirtualNodesFirst,
                  NodeOrdering::kDegreeDesc, 3},
        AlgoParam{"NaiveReal_Rand", &NaiveRealNodesFirst,
                  NodeOrdering::kRandom, 4},
        AlgoParam{"NaiveReal_Id", &NaiveRealNodesFirst, NodeOrdering::kId, 5},
        AlgoParam{"GreedyReal_Rand", &GreedyRealNodesFirst,
                  NodeOrdering::kRandom, 6},
        AlgoParam{"GreedyReal_Desc", &GreedyRealNodesFirst,
                  NodeOrdering::kDegreeDesc, 7},
        AlgoParam{"GreedyVirtual_Rand", &GreedyVirtualNodesFirst,
                  NodeOrdering::kRandom, 8},
        AlgoParam{"GreedyVirtual_Desc", &GreedyVirtualNodesFirst,
                  NodeOrdering::kDegreeDesc, 9}),
    [](const ::testing::TestParamInfo<AlgoParam>& info) {
      return info.param.name;
    });

// ---------- BITMAP algorithms ----------

TEST(Bitmap1Test, EquivalentAndDuplicateFreeOnMultiLayer) {
  gen::LayeredGenOptions o;
  o.num_real = 80;
  o.layer_sizes = {12, 6};
  o.avg_real_memberships = 3.0;
  o.avg_layer_fanout = 2.5;
  o.seed = 5;
  CondensedStorage g = gen::GenerateLayeredCondensed(o);
  auto bm = BuildBitmap1(g);
  ASSERT_TRUE(bm.ok());
  EXPECT_EQ(bm->ExpandedEdgeSet(), g.ExpandedEdgeSet());
  EXPECT_TRUE(IsDuplicateFree(*bm));
}

TEST(Bitmap2Test, EquivalentAndDuplicateFreeOnMultiLayer) {
  gen::LayeredGenOptions o;
  o.num_real = 80;
  o.layer_sizes = {12, 6};
  o.avg_real_memberships = 3.0;
  o.avg_layer_fanout = 2.5;
  o.seed = 6;
  CondensedStorage g = gen::GenerateLayeredCondensed(o);
  auto bm = BuildBitmap2(g);
  ASSERT_TRUE(bm.ok());
  EXPECT_EQ(bm->ExpandedEdgeSet(), g.ExpandedEdgeSet());
  EXPECT_TRUE(IsDuplicateFree(*bm));
}

// The flat bitmap index is sorted by (virtual node, owner), so its arrays
// must not depend on how the sources were split across workers. The inputs
// are this file's multi-layer graphs plus one with more than 2,048 reals,
// the size below which ParallelFor runs a single chunk.
TEST(BitmapFlatIndexTest, IdenticalAcrossThreadCountsOnMultiLayer) {
  struct Input {
    size_t num_real;
    std::vector<size_t> layer_sizes;
    double memberships;
    double fanout;
    uint64_t seed;
  };
  const std::vector<Input> inputs = {{80, {12, 6}, 3.0, 2.5, 5},
                                     {80, {12, 6}, 3.0, 2.5, 6},
                                     {60, {10, 6}, 2.0, 2.0, 11},
                                     {2500, {250, 80}, 2.0, 2.0, 7}};
  using Builder = Result<BitmapGraph> (*)(const CondensedStorage&,
                                          const DedupOptions&);
  for (const Input& in : inputs) {
    gen::LayeredGenOptions o;
    o.num_real = in.num_real;
    o.layer_sizes = in.layer_sizes;
    o.avg_real_memberships = in.memberships;
    o.avg_layer_fanout = in.fanout;
    o.seed = in.seed;
    CondensedStorage g = gen::GenerateLayeredCondensed(o);
    ASSERT_FALSE(g.IsSingleLayer());
    const auto oracle = g.ExpandedEdgeSet();
    for (Builder build : {Builder{&BuildBitmap1}, Builder{&BuildBitmap2}}) {
      DedupOptions one;
      one.threads = 1;
      auto base = build(g, one);
      ASSERT_TRUE(base.ok());
      EXPECT_EQ(base->ExpandedEdgeSet(), oracle) << in.seed;
      EXPECT_GT(base->NumBitmaps(), 0u);
      for (size_t threads : {2, 4}) {
        DedupOptions opts;
        opts.threads = threads;
        auto bm = build(g, opts);
        ASSERT_TRUE(bm.ok());
        EXPECT_EQ(bm->owner_begin(), base->owner_begin()) << threads;
        EXPECT_EQ(bm->owners(), base->owners()) << threads;
        EXPECT_EQ(bm->word_begin(), base->word_begin()) << threads;
        EXPECT_EQ(bm->words(), base->words()) << threads;
        EXPECT_EQ(bm->ExpandedEdgeSet(), oracle) << in.seed << " " << threads;
      }
    }
  }
}

TEST(Bitmap2Test, InstallsFewerBitmapsThanBitmap1) {
  CondensedStorage g = MakeRandomSymmetric(150, 40, 8, 9);
  auto bm1 = BuildBitmap1(g);
  auto bm2 = BuildBitmap2(g);
  ASSERT_TRUE(bm1.ok());
  ASSERT_TRUE(bm2.ok());
  EXPECT_LE(bm2->NumBitmaps(), bm1->NumBitmaps());
  EXPECT_LE(bm2->BitmapMemoryBytes(), bm1->BitmapMemoryBytes());
}

TEST(Bitmap2Test, DeletesUselessMembershipEdges) {
  // Two identical cliques: for each source, one of the two virtual nodes
  // contributes nothing and its membership edge can be dropped.
  CondensedStorage g;
  g.AddRealNodes(6);
  uint32_t v1 = g.AddVirtualNode();
  uint32_t v2 = g.AddVirtualNode();
  for (NodeId u = 0; u < 6; ++u) {
    AddMember(g, u, v1);
    AddMember(g, u, v2);
  }
  auto bm = BuildBitmap2(g);
  ASSERT_TRUE(bm.ok());
  EXPECT_LT(bm->CountStoredEdges(), g.CountCondensedEdges());
  EXPECT_EQ(bm->ExpandedEdgeSet(), g.ExpandedEdgeSet());
  EXPECT_TRUE(IsDuplicateFree(*bm));
}

TEST(Bitmap1Test, KeepsAllCondensedEdges) {
  CondensedStorage g = MakeRandomSymmetric(60, 20, 5, 10);
  g.RemoveParallelEdges();
  auto bm = BuildBitmap1(g);
  ASSERT_TRUE(bm.ok());
  EXPECT_EQ(bm->CountStoredEdges(), g.CountCondensedEdges());
}

TEST(BitmapSweepTest, ManySeeds) {
  for (uint64_t seed = 20; seed < 30; ++seed) {
    CondensedStorage g = MakeRandomSymmetric(50, 18, 6, seed);
    auto oracle = g.ExpandedEdgeSet();
    auto bm1 = BuildBitmap1(g);
    auto bm2 = BuildBitmap2(g);
    ASSERT_TRUE(bm1.ok());
    ASSERT_TRUE(bm2.ok());
    EXPECT_EQ(bm1->ExpandedEdgeSet(), oracle) << seed;
    EXPECT_EQ(bm2->ExpandedEdgeSet(), oracle) << seed;
    EXPECT_TRUE(IsDuplicateFree(*bm1)) << seed;
    EXPECT_TRUE(IsDuplicateFree(*bm2)) << seed;
  }
}

// ---------- DEDUP-2 ----------

void CheckDedup2Invariants(const Dedup2Graph& g) {
  const size_t nv = g.NumVirtualNodes();
  // Invariant 1: pairwise member overlap <= 1.
  std::vector<std::set<NodeId>> members(nv);
  for (uint32_t v = 0; v < nv; ++v) {
    members[v] = {g.Members(v).begin(), g.Members(v).end()};
  }
  for (uint32_t v = 0; v < nv; ++v) {
    for (uint32_t w : g.VirtualNeighbors(v)) {
      // Adjacent virtual nodes must be member-disjoint.
      for (NodeId m : members[v]) {
        EXPECT_FALSE(members[w].contains(m))
            << "adjacent virtual nodes " << v << "," << w << " share " << m;
      }
    }
    // Invariant 2: virtual neighbors pairwise disjoint.
    const auto& neigh = g.VirtualNeighbors(v);
    for (size_t i = 0; i < neigh.size(); ++i) {
      for (size_t j = i + 1; j < neigh.size(); ++j) {
        for (NodeId m : members[neigh[i]]) {
          EXPECT_FALSE(members[neigh[j]].contains(m))
              << "neighbors of " << v << " overlap on " << m;
        }
      }
    }
  }
}

TEST(Dedup2BuilderTest, Figure1) {
  CondensedStorage input = MakeFigure1Graph();
  auto g = BuildDedup2(input);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->ExpandedEdgeSet(), input.ExpandedEdgeSet());
  EXPECT_TRUE(IsDuplicateFree(*g));
  CheckDedup2Invariants(*g);
}

TEST(Dedup2BuilderTest, HeavyOverlapUsesVirtualEdges) {
  // The Figure 6 shape: two big cliques sharing many members. DEDUP-2
  // should need fewer stored edges than DEDUP-1 on this input.
  CondensedStorage input;
  input.AddRealNodes(12);
  uint32_t v1 = input.AddVirtualNode();
  uint32_t v2 = input.AddVirtualNode();
  for (NodeId u = 0; u < 10; ++u) AddMember(input, u, v1);
  for (NodeId u = 2; u < 12; ++u) AddMember(input, u, v2);
  auto d2 = BuildDedup2(input);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2->ExpandedEdgeSet(), input.ExpandedEdgeSet());
  CheckDedup2Invariants(*d2);
  auto d1 = GreedyVirtualNodesFirst(input);
  ASSERT_TRUE(d1.ok());
  EXPECT_LT(d2->CountStoredEdges(), d1->CountStoredEdges());
}

TEST(Dedup2BuilderTest, RandomSweep) {
  for (uint64_t seed = 40; seed < 48; ++seed) {
    CondensedStorage input = MakeRandomSymmetric(40, 14, 6, seed);
    auto g = BuildDedup2(input);
    ASSERT_TRUE(g.ok()) << seed;
    EXPECT_EQ(g->ExpandedEdgeSet(), input.ExpandedEdgeSet()) << seed;
    EXPECT_TRUE(IsDuplicateFree(*g)) << seed;
    CheckDedup2Invariants(*g);
  }
}

TEST(Dedup2BuilderTest, RejectsAsymmetricInput) {
  CondensedStorage g;
  g.AddRealNodes(3);
  uint32_t v = g.AddVirtualNode();
  g.AddEdge(NodeRef::Real(0), NodeRef::Virtual(v));
  g.AddEdge(NodeRef::Virtual(v), NodeRef::Real(1));  // bipartite-style
  EXPECT_EQ(BuildDedup2(g).status().code(), StatusCode::kInvalidArgument);
}

TEST(Dedup2BuilderTest, RejectsMultiLayer) {
  gen::LayeredGenOptions o;
  o.num_real = 20;
  o.layer_sizes = {4, 2};
  CondensedStorage g = gen::GenerateLayeredCondensed(o);
  EXPECT_EQ(BuildDedup2(g).status().code(), StatusCode::kInvalidArgument);
}

// ---------- bipartite (directed, asymmetric) DEDUP-1 ----------

TEST(Dedup1DirectedTest, BipartiteGraphDeduplicated) {
  // Instructors 0..2 teach courses; students 3..7 take them. Duplication:
  // instructor 0 reaches student 3 via two shared courses.
  CondensedStorage g;
  g.AddRealNodes(8);
  uint32_t c1 = g.AddVirtualNode();
  uint32_t c2 = g.AddVirtualNode();
  uint32_t c3 = g.AddVirtualNode();
  g.AddEdge(NodeRef::Real(0), NodeRef::Virtual(c1));
  g.AddEdge(NodeRef::Real(0), NodeRef::Virtual(c2));
  g.AddEdge(NodeRef::Real(1), NodeRef::Virtual(c2));
  g.AddEdge(NodeRef::Real(2), NodeRef::Virtual(c3));
  for (NodeId st : {3, 4}) g.AddEdge(NodeRef::Virtual(c1), NodeRef::Real(st));
  for (NodeId st : {3, 5, 6}) {
    g.AddEdge(NodeRef::Virtual(c2), NodeRef::Real(st));
  }
  for (NodeId st : {6, 7}) g.AddEdge(NodeRef::Virtual(c3), NodeRef::Real(st));
  ASSERT_GT(g.CountDuplicatePairs(), 0u);

  auto oracle = g.ExpandedEdgeSet();
  for (auto fn : {&NaiveVirtualNodesFirst, &NaiveRealNodesFirst,
                  &GreedyRealNodesFirst, &GreedyVirtualNodesFirst}) {
    auto result = (*fn)(g, DedupOptions{});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->ExpandedEdgeSet(), oracle);
    EXPECT_TRUE(IsDuplicateFree(*result));
  }
  auto bm = BuildBitmap2(g);
  ASSERT_TRUE(bm.ok());
  EXPECT_EQ(bm->ExpandedEdgeSet(), oracle);
  EXPECT_TRUE(IsDuplicateFree(*bm));
}

// ---------- ordering utilities ----------

TEST(OrderingTest, ProducesPermutations) {
  CondensedStorage g = MakeRandomSymmetric(30, 10, 4, 3);
  for (NodeOrdering o :
       {NodeOrdering::kRandom, NodeOrdering::kId, NodeOrdering::kDegreeAsc,
        NodeOrdering::kDegreeDesc}) {
    auto virt = OrderVirtualNodes(g, o, 1);
    EXPECT_EQ(virt.size(), g.NumVirtualNodes());
    std::set<uint32_t> uniq(virt.begin(), virt.end());
    EXPECT_EQ(uniq.size(), virt.size());
    auto real = OrderRealNodes(g, o, 1);
    EXPECT_EQ(real.size(), g.NumRealNodes());
  }
}

TEST(OrderingTest, DegreeOrderingsAreSorted) {
  CondensedStorage g = MakeRandomSymmetric(30, 10, 4, 4);
  auto asc = OrderVirtualNodes(g, NodeOrdering::kDegreeAsc, 1);
  for (size_t i = 1; i < asc.size(); ++i) {
    EXPECT_LE(g.OutEdges(NodeRef::Virtual(asc[i - 1])).size(),
              g.OutEdges(NodeRef::Virtual(asc[i])).size());
  }
  auto desc = OrderVirtualNodes(g, NodeOrdering::kDegreeDesc, 1);
  for (size_t i = 1; i < desc.size(); ++i) {
    EXPECT_GE(g.OutEdges(NodeRef::Virtual(desc[i - 1])).size(),
              g.OutEdges(NodeRef::Virtual(desc[i])).size());
  }
}

TEST(OrderingTest, RandomOrderingIsSeedDeterministic) {
  CondensedStorage g = MakeRandomSymmetric(30, 10, 4, 5);
  EXPECT_EQ(OrderVirtualNodes(g, NodeOrdering::kRandom, 9),
            OrderVirtualNodes(g, NodeOrdering::kRandom, 9));
}

}  // namespace
}  // namespace graphgen
