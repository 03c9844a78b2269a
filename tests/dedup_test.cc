#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "common/hash.h"
#include "dedup/bitmap_algorithms.h"
#include "dedup/dedup1_algorithms.h"
#include "dedup/dedup2_builder.h"
#include "dedup/detail.h"
#include "gen/condensed_generator.h"
#include "gen/relational_generators.h"
#include "graph/condensed_walk.h"
#include "planner/extractor.h"
#include "test_util.h"

namespace graphgen {
namespace {

using testing::AddMember;
using testing::IsDuplicateFree;
using testing::MakeFigure1Graph;
using testing::MakeRandomSymmetric;
using testing::ReferenceBitmapNeighbors;

// ---------- input graphs ----------

CondensedStorage Layered(size_t num_real, std::vector<size_t> layer_sizes,
                         double memberships, double fanout, uint64_t seed) {
  gen::LayeredGenOptions o;
  o.num_real = num_real;
  o.layer_sizes = std::move(layer_sizes);
  o.avg_real_memberships = memberships;
  o.avg_layer_fanout = fanout;
  o.seed = seed;
  return gen::GenerateLayeredCondensed(o);
}

CondensedStorage LayeredDefaults(size_t num_real,
                                 std::vector<size_t> layer_sizes) {
  gen::LayeredGenOptions o;
  o.num_real = num_real;
  o.layer_sizes = std::move(layer_sizes);
  return gen::GenerateLayeredCondensed(o);
}

// Two identical cliques: for each source, one of the two virtual nodes
// contributes nothing.
CondensedStorage TwoIdenticalCliques() {
  CondensedStorage g;
  g.AddRealNodes(6);
  uint32_t v1 = g.AddVirtualNode();
  uint32_t v2 = g.AddVirtualNode();
  for (NodeId u = 0; u < 6; ++u) {
    AddMember(g, u, v1);
    AddMember(g, u, v2);
  }
  return g;
}

// Instructors 0..2 teach courses; students 3..7 take them. Duplication:
// instructor 0 reaches student 3 via two shared courses.
CondensedStorage Bipartite() {
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
  return g;
}

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
  CondensedStorage g = Layered(60, {10, 6}, 2.0, 2.0, 11);
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
  CondensedStorage g = LayeredDefaults(30, {5, 3});
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
  CondensedStorage g = Layered(80, {12, 6}, 3.0, 2.5, 5);
  auto bm = BuildBitmap1(g);
  ASSERT_TRUE(bm.ok());
  EXPECT_EQ(bm->ExpandedEdgeSet(), g.ExpandedEdgeSet());
  EXPECT_TRUE(IsDuplicateFree(*bm));
}

TEST(Bitmap2Test, EquivalentAndDuplicateFreeOnMultiLayer) {
  CondensedStorage g = Layered(80, {12, 6}, 3.0, 2.5, 6);
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
    CondensedStorage g = Layered(in.num_real, in.layer_sizes, in.memberships,
                                 in.fanout, in.seed);
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
  // The useless membership edges can be dropped.
  CondensedStorage g = TwoIdenticalCliques();
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

// ---------- BITMAP output parity ----------

// The condensed graph the benchmark's extract_condensed workload builds
// its BITMAP-2 graph from: TPC-H-like data, default extraction options.
CondensedStorage TpchBenchInput() {
  const gen::GeneratedDatabase d = gen::MakeTpchLike(500, 2000, 60, 3.0, 4);
  auto result = planner::ExtractFromQuery(d.db, d.datalog);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result->storage) : CondensedStorage();
}

struct ParityInput {
  std::string name;
  CondensedStorage storage;
};

// Every condensed input this file builds, plus the benchmark's TPC-H one.
const std::vector<ParityInput>& ParityInputs() {
  static const std::vector<ParityInput> inputs = [] {
    std::vector<ParityInput> inputs;
    inputs.push_back({"figure1", MakeFigure1Graph()});
    for (uint64_t seed : {1, 2, 3}) {
      inputs.push_back({"sym60x25s" + std::to_string(seed),
                        MakeRandomSymmetric(60, 25, 5, seed)});
    }
    inputs.push_back({"sym40x8s77", MakeRandomSymmetric(40, 8, 15, 77)});
    inputs.push_back({"layered30", LayeredDefaults(30, {5, 3})});
    inputs.push_back({"layered20", LayeredDefaults(20, {4, 2})});
    inputs.push_back({"layered80s5", Layered(80, {12, 6}, 3.0, 2.5, 5)});
    inputs.push_back({"layered80s6", Layered(80, {12, 6}, 3.0, 2.5, 6)});
    inputs.push_back({"layered60s11", Layered(60, {10, 6}, 2.0, 2.0, 11)});
    inputs.push_back({"layered2500s7", Layered(2500, {250, 80}, 2.0, 2.0, 7)});
    inputs.push_back({"sym150x40s9", MakeRandomSymmetric(150, 40, 8, 9)});
    inputs.push_back({"two_cliques", TwoIdenticalCliques()});
    inputs.push_back({"sym60x20s10", MakeRandomSymmetric(60, 20, 5, 10)});
    for (uint64_t seed = 20; seed < 30; ++seed) {
      inputs.push_back({"sym50x18s" + std::to_string(seed),
                        MakeRandomSymmetric(50, 18, 6, seed)});
    }
    for (uint64_t seed = 40; seed < 48; ++seed) {
      inputs.push_back({"sym40x14s" + std::to_string(seed),
                        MakeRandomSymmetric(40, 14, 6, seed)});
    }
    inputs.push_back({"bipartite", Bipartite()});
    for (uint64_t seed : {3, 4, 5}) {
      inputs.push_back({"sym30x10s" + std::to_string(seed),
                        MakeRandomSymmetric(30, 10, 4, seed)});
    }
    inputs.push_back({"tpch500", TpchBenchInput()});
    return inputs;
  }();
  return inputs;
}

// A digest of everything a BITMAP build outputs: the flat bitmap index
// and the real and virtual out-lists, in stored order.
uint64_t BitmapDigest(const BitmapGraph& g) {
  uint64_t h = 0;
  auto add = [&h](uint64_t x) { h = MixInt64(h ^ x); };
  auto add_all = [&add](const auto& values) {
    add(values.size());
    for (auto x : values) add(x);
  };
  add_all(g.owner_begin());
  add_all(g.owners());
  add_all(g.word_begin());
  add_all(g.words());
  for (NodeId u = 0; u < g.NumVertices(); ++u) {
    const auto out = g.OutEdges(NodeRef::Real(u));
    add(out.size());
    for (NodeRef r : out) add(r.raw());
  }
  for (uint32_t v = 0; v < g.NumVirtualNodes(); ++v) {
    const auto out = g.OutEdges(NodeRef::Virtual(v));
    add(out.size());
    for (NodeRef r : out) add(r.raw());
  }
  return h;
}

// BitmapDigest of BITMAP-1 and BITMAP-2 on each ParityInputs() entry, as
// the hash-set builders produced them; the mark-set builders must match.
struct PinnedDigest {
  const char* input;
  uint64_t bitmap1;
  uint64_t bitmap2;
};
constexpr PinnedDigest kPinnedDigests[] = {
    {"figure1", 0x21c77da33c29a49cull, 0xf506610eeea7cb3cull},
    {"sym60x25s1", 0x03690910363bf167ull, 0x45f9b469c44bebb7ull},
    {"sym60x25s2", 0x76dc6c049036c9f8ull, 0xe09c7e06d35a82e2ull},
    {"sym60x25s3", 0x40a76965c704578aull, 0x0dc505d704a34f27ull},
    {"sym40x8s77", 0x90853cde171c1ddfull, 0x1392e3ecc6983f97ull},
    {"layered30", 0x70593c8ad694cd77ull, 0x350ce4f7e55bf9b7ull},
    {"layered20", 0xd8be2ed5a1a1b8dcull, 0x55edd99d4038cfe4ull},
    {"layered80s5", 0x75de1b1074c0087full, 0xeb7c7fbfb98a8c7dull},
    {"layered80s6", 0x652d4436aeaba719ull, 0x3a28bf289d9e755bull},
    {"layered60s11", 0x90e2e41c447d5bedull, 0x4fefdf6158702c9bull},
    {"layered2500s7", 0x8a9e8d2b484cfb7bull, 0x38ecd3a9ede42a95ull},
    {"sym150x40s9", 0x1bdd3f7dd87110d4ull, 0x3e8d2b935ab900f6ull},
    {"two_cliques", 0x0f387dc92db2f28cull, 0x4c22ba8caccb7e90ull},
    {"sym60x20s10", 0x6226341b3b73594bull, 0x171800bf1a858840ull},
    {"sym50x18s20", 0x2fd65e03e490cde4ull, 0xab5b6edd04bbdd9cull},
    {"sym50x18s21", 0x0611e13e254bdcc9ull, 0x73e930fca156d72aull},
    {"sym50x18s22", 0xe8fe0d0c744fa145ull, 0xbd4d2e2caadc3f93ull},
    {"sym50x18s23", 0xf45fdab32fbbb0beull, 0x43e519be35ef0ef4ull},
    {"sym50x18s24", 0xdb6ebe7b908fd02aull, 0xecf41bb848aa4bb3ull},
    {"sym50x18s25", 0xe8a683f4505aaed0ull, 0x939bd523379b546bull},
    {"sym50x18s26", 0xda2bc809988c340dull, 0xd0030f155aa72f3dull},
    {"sym50x18s27", 0xaecde59d7928397dull, 0xb684e0bbbaf41757ull},
    {"sym50x18s28", 0xa22a8b7f75bea1a9ull, 0x79b67b90ef05d64full},
    {"sym50x18s29", 0x27faeb232fe51eb8ull, 0x9bbf2a277fa26904ull},
    {"sym40x14s40", 0x8cba9ebdf075988eull, 0xd681117860a04a2full},
    {"sym40x14s41", 0x98f3f2d5e7e38d19ull, 0x0bcb888cf9cadf8aull},
    {"sym40x14s42", 0x5affc5db1a489c68ull, 0x531dd6ca9d302b3cull},
    {"sym40x14s43", 0xfcf93b600144b2c9ull, 0xa8a32dc2344ba00cull},
    {"sym40x14s44", 0xcdfd6ffc32b17c5cull, 0xcbd02f82c8d587ebull},
    {"sym40x14s45", 0x508c98c8d907abf8ull, 0xe678bb5031e9dd56ull},
    {"sym40x14s46", 0xe2e928673aebdafcull, 0xae963f1e6bae8ee8ull},
    {"sym40x14s47", 0xc17a3daf2ad07065ull, 0xc1c333ffca880f75ull},
    {"bipartite", 0xa03914927a8100beull, 0x3c352d478f1663b4ull},
    {"sym30x10s3", 0xf07c576db643f041ull, 0xa82689e8be24cb3cull},
    {"sym30x10s4", 0x062d4e3e51c5f5e9ull, 0x0528cc997c8233b8ull},
    {"sym30x10s5", 0x956ca27d5313786bull, 0x2232df797468d7e4ull},
    {"tpch500", 0xcfe1e777a25382ceull, 0xd48145bad01bc771ull},
};

TEST(BitmapParityTest, OutputsMatchPinnedDigests) {
  const auto& inputs = ParityInputs();
  ASSERT_EQ(inputs.size(), std::size(kPinnedDigests));
  using Builder = Result<BitmapGraph> (*)(const CondensedStorage&,
                                          const DedupOptions&);
  for (size_t k = 0; k < inputs.size(); ++k) {
    const PinnedDigest& pin = kPinnedDigests[k];
    ASSERT_EQ(inputs[k].name, pin.input);
    const std::pair<Builder, uint64_t> builds[] = {
        {&BuildBitmap1, pin.bitmap1}, {&BuildBitmap2, pin.bitmap2}};
    for (const auto& [build, want] : builds) {
      for (size_t threads : {1, 4}) {
        DedupOptions opts;
        opts.threads = threads;
        auto bm = build(inputs[k].storage, opts);
        ASSERT_TRUE(bm.ok());
        const uint64_t got = BitmapDigest(*bm);
        EXPECT_EQ(got, want)
            << pin.input << (build == &BuildBitmap1 ? " bitmap1" : " bitmap2")
            << " threads=" << threads << " got=0x" << std::hex << got;
      }
    }
  }
}

// Every vertex's neighbor sequence, and whether ExistsEdge agrees with it.
void ExpectReferenceOrder(const BitmapGraph& g, const std::string& label) {
  for (NodeId u = 0; u < g.NumVertices(); ++u) {
    const std::vector<NodeId> want = ReferenceBitmapNeighbors(g, u);
    std::vector<NodeId> got;
    g.ForEachNeighbor(u, [&](NodeId v) { got.push_back(v); });
    ASSERT_EQ(got, want) << label << " u=" << u;
    const std::set<NodeId> targets(want.begin(), want.end());
    for (NodeId v = 0; v < g.NumVertices(); v += 7) {
      ASSERT_EQ(g.ExistsEdge(u, v), targets.contains(v))
          << label << " u=" << u << " v=" << v;
    }
  }
}

TEST(BitmapParityTest, NeighborOrderMatchesReferenceDfs) {
  using Builder = Result<BitmapGraph> (*)(const CondensedStorage&,
                                          const DedupOptions&);
  for (const ParityInput& in : ParityInputs()) {
    for (Builder build : {Builder{&BuildBitmap1}, Builder{&BuildBitmap2}}) {
      auto built = build(in.storage, DedupOptions{});
      ASSERT_TRUE(built.ok());
      BitmapGraph& g = *built;
      const std::string label =
          in.name + (build == &BuildBitmap1 ? " bitmap1" : " bitmap2");
      ExpectReferenceOrder(g, label);
      const size_t n = g.NumVertices();
      if (n < 3) continue;
      // Clear bits (symmetric deletions), add direct edges, delete
      // vertices, then walk again.
      for (NodeId u = 0; u < n; u += 3) {
        const std::vector<NodeId> nbrs = g.NeighborList(u);
        if (nbrs.empty()) continue;
        const NodeId v = nbrs[nbrs.size() / 2];
        ASSERT_TRUE(g.DeleteEdge(u, v).ok()) << label << " " << u << "," << v;
        ASSERT_FALSE(g.ExistsEdge(u, v)) << label;
        if (g.ExistsEdge(v, u)) {
          ASSERT_TRUE(g.DeleteEdge(v, u).ok()) << label;
        }
      }
      for (NodeId u = 1; u < n; u += 5) {
        const NodeId v = static_cast<NodeId>((u * 7 + 3) % n);
        if (v == u || g.ExistsEdge(u, v)) continue;
        ASSERT_TRUE(g.AddEdge(u, v).ok()) << label;
        ASSERT_TRUE(g.ExistsEdge(u, v)) << label;
      }
      for (NodeId u = 2; u < n; u += 11) {
        ASSERT_TRUE(g.DeleteVertex(u).ok()) << label;
      }
      ExpectReferenceOrder(g, label + " mutated");
    }
  }
}

// The kAuto probe (CountExpandedEdges, behind ShouldExpand) and the
// duplicate counter against per-source std::set / std::map oracles built
// on the unmarked path walk.
TEST(BitmapParityTest, KAutoProbeMatchesPathOracle) {
  for (const ParityInput& in : ParityInputs()) {
    const CondensedStorage& g = in.storage;
    uint64_t expanded = 0;
    uint64_t duplicated = 0;
    for (NodeId u = 0; u < g.NumRealNodes(); ++u) {
      std::map<NodeId, int> paths;
      condensed::ForEachPathNeighbor(g, u, [&](NodeId v) { ++paths[v]; });
      expanded += paths.size();
      std::vector<NodeId> want;
      for (const auto& [v, count] : paths) {
        want.push_back(v);
        if (count > 1) ++duplicated;
      }
      std::vector<NodeId> got = g.ExpandedNeighbors(u);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << in.name << " u=" << u;
    }
    EXPECT_EQ(g.CountExpandedEdges(), expanded) << in.name;
    EXPECT_EQ(g.CountDuplicatePairs(), duplicated) << in.name;
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
  CondensedStorage g = LayeredDefaults(20, {4, 2});
  EXPECT_EQ(BuildDedup2(g).status().code(), StatusCode::kInvalidArgument);
}

// ---------- bipartite (directed, asymmetric) DEDUP-1 ----------

TEST(Dedup1DirectedTest, BipartiteGraphDeduplicated) {
  CondensedStorage g = Bipartite();
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
