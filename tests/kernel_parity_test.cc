// Parity suite for the flat-CSR fast path: for every representation and
// every algorithm, the devirtualized NeighborSpan kernel must produce the
// same result as the virtual ForEachNeighbor path — on EXP (native flat
// adjacency) bit for bit, and through an ExpandGraph snapshot for the
// condensed representations. Triangles and clustering are also
// checked against brute-force references (test_util.h) that share no
// code with src/algos/. Also pins the CSR ExpandedGraph's edge set to the
// condensed-storage oracle, including after DeleteVertex / DeleteEdge /
// AddVertex mutations. Finally checks the aggregated reduction DEDUP-1
// and BITMAP answer degree, PageRank and components with against the
// brute-force references, through the §3.4 mutations and Compact().

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "algos/bfs.h"
#include "algos/clustering.h"
#include "algos/connected_components.h"
#include "algos/degree.h"
#include "algos/kcore.h"
#include "algos/pagerank.h"
#include "algos/triangles.h"
#include "common/parallel.h"
#include "dedup/bitmap_algorithms.h"
#include "dedup/dedup1_algorithms.h"
#include "dedup/dedup2_builder.h"
#include "repr/bitmap_graph.h"
#include "repr/cdup_graph.h"
#include "repr/dedup1_graph.h"
#include "repr/dedup2_graph.h"
#include "repr/expander.h"
#include "test_util.h"

namespace graphgen {
namespace {

using testing::BruteForceClustering;
using testing::BruteForceComponents;
using testing::BruteForceDegrees;
using testing::BruteForcePageRank;
using testing::BruteForceTriangleCount;
using testing::EdgeSetOf;
using testing::MakeRandomSymmetric;

/// Forwards every Graph call to `inner` except HasFlatAdjacency(), which
/// reports false: kernels run on it take the virtual callback path over
/// the same graph, the same neighbor order, the same degrees.
class CallbackOnlyGraph : public Graph {
 public:
  explicit CallbackOnlyGraph(Graph& inner) : inner_(inner) {}

  std::string_view Name() const override { return inner_.Name(); }
  size_t NumVertices() const override { return inner_.NumVertices(); }
  size_t NumActiveVertices() const override {
    return inner_.NumActiveVertices();
  }
  bool VertexExists(NodeId v) const override { return inner_.VertexExists(v); }
  void ForEachVertex(const std::function<void(NodeId)>& fn) const override {
    inner_.ForEachVertex(fn);
  }
  void ForEachNeighbor(NodeId u,
                       const std::function<void(NodeId)>& fn) const override {
    inner_.ForEachNeighbor(u, fn);
  }
  std::unique_ptr<NeighborIterator> Neighbors(NodeId u) const override {
    return inner_.Neighbors(u);
  }
  bool HasFlatAdjacency() const override { return false; }
  std::span<const NodeId> NeighborSpan(NodeId u) const override {
    return inner_.NeighborSpan(u);
  }
  size_t OutDegree(NodeId u) const override { return inner_.OutDegree(u); }
  bool ExistsEdge(NodeId u, NodeId v) const override {
    return inner_.ExistsEdge(u, v);
  }
  Status AddEdge(NodeId u, NodeId v) override { return inner_.AddEdge(u, v); }
  Status DeleteEdge(NodeId u, NodeId v) override {
    return inner_.DeleteEdge(u, v);
  }
  NodeId AddVertex() override { return inner_.AddVertex(); }
  Status DeleteVertex(NodeId v) override { return inner_.DeleteVertex(v); }
  uint64_t CountExpandedEdges() const override {
    return inner_.CountExpandedEdges();
  }
  uint64_t CountStoredEdges() const override {
    return inner_.CountStoredEdges();
  }
  size_t NumVirtualNodes() const override { return inner_.NumVirtualNodes(); }
  GraphFootprint MemoryFootprint() const override {
    return inner_.MemoryFootprint();
  }

 private:
  Graph& inner_;
};

void ExpectNear(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9) << "index " << i;
  }
}

/// Runs all seven kernels on `base` through the callback path (behind
/// CallbackOnlyGraph) and on `flat` through the span path (`flat` must
/// expose the same expanded view) and asserts the results agree, and that
/// triangles and clustering match the brute-force references on `base`.
/// Integer outputs must match exactly; double outputs get a tolerance
/// because `base` may iterate neighbors in a different order (C-DUP's
/// hash-set dedup) than the sorted spans.
void ExpectKernelParity(Graph& base, const Graph& flat) {
  ASSERT_TRUE(flat.HasFlatAdjacency());
  EXPECT_EQ(EdgeSetOf(base), EdgeSetOf(flat));
  const CallbackOnlyGraph fn(base);

  EXPECT_EQ(ComputeDegrees(fn), ComputeDegrees(flat));
  const uint64_t triangles = BruteForceTriangleCount(base);
  EXPECT_EQ(CountTriangles(fn), triangles);
  EXPECT_EQ(CountTriangles(flat), triangles);
  EXPECT_EQ(ConnectedComponents(fn), ConnectedComponents(flat));
  EXPECT_EQ(Bfs(fn, 0), Bfs(flat, 0));
  EXPECT_EQ(KCoreDecomposition(fn), KCoreDecomposition(flat));
  ExpectNear(PageRank(fn, {.iterations = 6}),
             PageRank(flat, {.iterations = 6}));
  const std::vector<double> clustering = BruteForceClustering(base);
  ExpectNear(LocalClusteringCoefficients(fn), clustering);
  ExpectNear(LocalClusteringCoefficients(flat), clustering);
}

class KernelParityTest : public ::testing::Test {
 protected:
  void SetUp() override { storage_ = MakeRandomSymmetric(300, 80, 6, 99); }
  CondensedStorage storage_;
};

TEST_F(KernelParityTest, ExpSpanPathMatchesFunctionPathExactly) {
  ExpandedGraph exp = ExpandCondensed(storage_);
  ASSERT_TRUE(exp.HasFlatAdjacency());
  const CallbackOnlyGraph fn(exp);
  // Same graph, same iteration order: even the floating-point kernels
  // must agree bit for bit.
  EXPECT_EQ(PageRank(fn, {.iterations = 8}), PageRank(exp, {.iterations = 8}));
  EXPECT_EQ(LocalClusteringCoefficients(fn), LocalClusteringCoefficients(exp));
  ExpectKernelParity(exp, exp);
}

TEST_F(KernelParityTest, CsrAdapterParityForAllRepresentations) {
  std::vector<std::unique_ptr<Graph>> graphs;
  graphs.push_back(std::make_unique<CDupGraph>(storage_));
  graphs.push_back(
      std::make_unique<ExpandedGraph>(ExpandCondensed(storage_)));
  auto d1 = GreedyVirtualNodesFirst(storage_);
  ASSERT_TRUE(d1.ok());
  graphs.push_back(std::make_unique<Dedup1Graph>(std::move(*d1)));
  auto d2 = BuildDedup2(storage_);
  ASSERT_TRUE(d2.ok());
  graphs.push_back(std::make_unique<Dedup2Graph>(std::move(*d2)));
  auto b1 = BuildBitmap1(storage_);
  ASSERT_TRUE(b1.ok());
  graphs.push_back(std::make_unique<BitmapGraph>(std::move(*b1)));
  auto b2 = BuildBitmap2(storage_);
  ASSERT_TRUE(b2.ok());
  graphs.push_back(std::make_unique<BitmapGraph>(std::move(*b2)));

  for (const auto& g : graphs) {
    SCOPED_TRACE(std::string(g->Name()));
    const ExpandedGraph snapshot = ExpandGraph(*g);
    ExpectKernelParity(*g, snapshot);
    // An out-CSR plus one byte per vertex: 8 B per offset, 4 B per edge.
    const size_t n = snapshot.NumVertices();
    EXPECT_EQ(snapshot.MemoryFootprint().Total(),
              (n + 1) * 8 + 4 * snapshot.CountStoredEdges() + n);
  }
}

TEST_F(KernelParityTest, ExpandedEdgeSetMatchesStorageOracle) {
  ExpandedGraph exp = ExpandCondensed(storage_);
  EXPECT_EQ(exp.ExpandedEdgeSet(), storage_.ExpandedEdgeSet());
  EXPECT_EQ(exp.CountStoredEdges(), storage_.CountExpandedEdges());
}

TEST_F(KernelParityTest, EdgeMutationsKeepFlatAdjacencyAndParity) {
  ExpandedGraph exp = ExpandCondensed(storage_);
  CDupGraph mirror(storage_);

  // Structural edits that don't delete vertices keep the spans exact:
  // patched vertices serve their overlay, the rest the CSR base.
  NodeId added = exp.AddVertex();
  EXPECT_EQ(added, mirror.AddVertex());
  ASSERT_TRUE(exp.AddEdge(0, added).ok());
  ASSERT_TRUE(mirror.AddEdge(0, added).ok());
  ASSERT_TRUE(exp.AddEdge(added, 0).ok());
  ASSERT_TRUE(mirror.AddEdge(added, 0).ok());

  // Delete both directions: the triangle/clustering kernels are defined
  // on GraphGen's symmetric graphs, so mutations keep the symmetry.
  auto edges = EdgeSetOf(exp);
  ASSERT_FALSE(edges.empty());
  auto [du, dv] = edges[edges.size() / 2];
  ASSERT_TRUE(exp.DeleteEdge(du, dv).ok());
  ASSERT_TRUE(mirror.DeleteEdge(du, dv).ok());
  ASSERT_TRUE(exp.DeleteEdge(dv, du).ok());
  ASSERT_TRUE(mirror.DeleteEdge(dv, du).ok());

  EXPECT_TRUE(exp.HasFlatAdjacency());
  EXPECT_EQ(EdgeSetOf(exp), EdgeSetOf(mirror));
  ExpectKernelParity(mirror, exp);

  // Re-adding the deleted edge through the patch overlay round-trips.
  ASSERT_TRUE(exp.AddEdge(du, dv).ok());
  ASSERT_TRUE(mirror.AddEdge(du, dv).ok());
  ASSERT_TRUE(exp.AddEdge(dv, du).ok());
  ASSERT_TRUE(mirror.AddEdge(dv, du).ok());
  EXPECT_EQ(EdgeSetOf(exp), EdgeSetOf(mirror));
}

TEST_F(KernelParityTest, VertexDeletionDisablesFlatPathButStaysCorrect) {
  ExpandedGraph exp = ExpandCondensed(storage_);
  CDupGraph mirror(storage_);

  ASSERT_TRUE(exp.DeleteVertex(3).ok());
  ASSERT_TRUE(mirror.DeleteVertex(3).ok());
  // Lazy deletion leaves stale targets in the CSR base, so the span
  // contract is withdrawn and kernels transparently fall back.
  EXPECT_FALSE(exp.HasFlatAdjacency());
  EXPECT_EQ(EdgeSetOf(exp), EdgeSetOf(mirror));
  EXPECT_EQ(ComputeDegrees(exp), ComputeDegrees(mirror));
  EXPECT_EQ(CountTriangles(exp), BruteForceTriangleCount(mirror));
  EXPECT_EQ(Bfs(exp, 0), Bfs(mirror, 0));

  // A fresh snapshot of the mutated graph restores the fast path.
  const ExpandedGraph snapshot = ExpandGraph(exp);
  EXPECT_FALSE(snapshot.VertexExists(3));
  ExpectKernelParity(exp, snapshot);
}

TEST_F(KernelParityTest, AdoptionTimeDeletionsKeepFlatPath) {
  // Deletions already present in the condensed storage are scrubbed from
  // the CSR at build time, so they must not cost the span fast path.
  storage_.DeleteRealNode(5);
  storage_.DeleteRealNode(17);
  ExpandedGraph exp = ExpandCondensed(storage_);
  EXPECT_TRUE(exp.HasFlatAdjacency());
  EXPECT_FALSE(exp.VertexExists(5));
  EXPECT_EQ(exp.NumActiveVertices(), exp.NumVertices() - 2);
  EXPECT_EQ(exp.ExpandedEdgeSet(), storage_.ExpandedEdgeSet());
  CDupGraph mirror(storage_);
  ExpectKernelParity(mirror, exp);
  // A *runtime* deletion still withdraws the contract.
  ASSERT_TRUE(exp.DeleteVertex(9).ok());
  EXPECT_FALSE(exp.HasFlatAdjacency());
}

// Degree, components and PageRank on `g` match the brute-force
// references.
void ExpectReferenceKernels(const Graph& g) {
  EXPECT_EQ(ComputeDegrees(g), BruteForceDegrees(g));
  EXPECT_EQ(ConnectedComponents(g), BruteForceComponents(g));
  ExpectNear(PageRank(g, {.iterations = 6}), BruteForcePageRank(g, 6));
}

// ExpectReferenceKernels on `g` as built, after adding a new edge, after
// deleting an existing one (both directions each, where they exist, so a
// symmetric graph stays symmetric; on BITMAP the deletion clears bits),
// after deleting a vertex and after Compact().
void ExpectReferenceKernelsThroughMutations(CondensedGraph& g) {
  {
    SCOPED_TRACE("as built");
    ExpectReferenceKernels(g);
  }
  const NodeId n = static_cast<NodeId>(g.NumVertices());
  NodeId au = 0;
  NodeId av = 1;
  while (g.ExistsEdge(au, av)) av = av + 1 < n ? av + 1 : (++au, au + 1);
  ASSERT_LT(av, n);
  ASSERT_TRUE(g.AddEdge(au, av).ok());
  ASSERT_TRUE(g.AddEdge(av, au).ok());
  {
    SCOPED_TRACE("after AddEdge");
    ExpectReferenceKernels(g);
  }
  const auto edges = EdgeSetOf(g);
  const auto [du, dv] = edges[edges.size() / 3];
  ASSERT_TRUE(g.DeleteEdge(du, dv).ok());
  if (g.ExistsEdge(dv, du)) {
    ASSERT_TRUE(g.DeleteEdge(dv, du).ok());
  }
  {
    SCOPED_TRACE("after DeleteEdge");
    ExpectReferenceKernels(g);
  }
  ASSERT_TRUE(g.DeleteVertex(edges[edges.size() / 2].first).ok());
  {
    SCOPED_TRACE("after DeleteVertex");
    ExpectReferenceKernels(g);
  }
  g.Compact();
  {
    SCOPED_TRACE("after Compact");
    ExpectReferenceKernels(g);
  }
}

// Reals listed in more than one virtual node: each of their aggregated
// reads meets the real itself, whose term the sums must drop.
size_t RealsInSeveralVirtualNodes(const CondensedGraph& g) {
  size_t count = 0;
  for (NodeId u = 0; u < g.NumVertices(); ++u) {
    size_t memberships = 0;
    for (NodeRef r : g.OutEdges(NodeRef::Real(u))) {
      if (r.is_virtual()) ++memberships;
    }
    if (memberships > 1) ++count;
  }
  return count;
}

TEST(AggregatedReductionTest, MatchesReferencesThroughMutations) {
  struct Input {
    const char* name;
    CondensedStorage storage;
  };
  std::vector<Input> inputs;
  inputs.push_back({"figure1", testing::MakeFigure1Graph()});
  inputs.push_back({"sparse", MakeRandomSymmetric(300, 80, 6, 99)});
  // Virtual nodes of ~80 entries: two-word bitmaps, many per node.
  inputs.push_back({"dense", MakeRandomSymmetric(200, 10, 80, 5)});
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    std::vector<std::unique_ptr<CondensedGraph>> graphs;
    auto d1 = GreedyVirtualNodesFirst(in.storage);
    ASSERT_TRUE(d1.ok());
    graphs.push_back(std::make_unique<Dedup1Graph>(std::move(*d1)));
    auto b1 = BuildBitmap1(in.storage);
    ASSERT_TRUE(b1.ok());
    graphs.push_back(std::make_unique<BitmapGraph>(std::move(*b1)));
    auto b2 = BuildBitmap2(in.storage);
    ASSERT_TRUE(b2.ok());
    graphs.push_back(std::make_unique<BitmapGraph>(std::move(*b2)));
    for (const auto& g : graphs) {
      SCOPED_TRACE(std::string(g->Name()));
      ASSERT_TRUE(g->IsSingleLayer());
      EXPECT_GT(RealsInSeveralVirtualNodes(*g), 0u);
      ExpectReferenceKernelsThroughMutations(*g);
    }
  }
}

TEST(AggregatedReductionTest, MultiLayerBitmapWalks) {
  gen::LayeredGenOptions o;
  o.num_real = 80;
  o.layer_sizes = {12, 6};
  o.avg_real_memberships = 3.0;
  o.avg_layer_fanout = 2.5;
  o.seed = 6;
  auto bm = BuildBitmap2(gen::GenerateLayeredCondensed(o));
  ASSERT_TRUE(bm.ok());
  ASSERT_FALSE(bm->IsSingleLayer());
  ExpectReferenceKernelsThroughMutations(*bm);
}

// Every output entry is computed on one thread in a fixed order, so the
// aggregated PageRank does not depend on how the passes are split.
TEST(AggregatedReductionTest, PageRankIsBitwiseIdenticalAcrossThreads) {
  // Large enough that four threads split both passes (ParallelFor's
  // grain is 1,024 vertices).
  const CondensedStorage s = MakeRandomSymmetric(6000, 2400, 5, 7);
  auto d1 = GreedyVirtualNodesFirst(s);
  ASSERT_TRUE(d1.ok());
  auto b2 = BuildBitmap2(s);
  ASSERT_TRUE(b2.ok());
  for (const Graph* g : {static_cast<const Graph*>(&*d1),
                         static_cast<const Graph*>(&*b2)}) {
    SCOPED_TRACE(std::string(g->Name()));
    EXPECT_EQ(PageRank(*g, {.iterations = 6, .threads = 1}),
              PageRank(*g, {.iterations = 6, .threads = 4}));
    EXPECT_EQ(ConnectedComponents(*g, 1), ConnectedComponents(*g, 4));
    EXPECT_EQ(ComputeDegrees(*g, 1), ComputeDegrees(*g, 4));
  }
}

TEST(ExpandGraphTest, EmptyGraphSnapshots) {
  ExpandedGraph empty;
  const ExpandedGraph snapshot = ExpandGraph(empty);
  EXPECT_EQ(snapshot.NumVertices(), 0u);
  EXPECT_EQ(snapshot.CountStoredEdges(), 0u);
  EXPECT_EQ(CountTriangles(snapshot), 0u);
}

}  // namespace
}  // namespace graphgen
