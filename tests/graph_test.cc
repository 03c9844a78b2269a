#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "graph/storage.h"
#include "test_util.h"

namespace graphgen {
namespace {

using testing::AddMember;
using testing::MakeFigure1Graph;

TEST(NodeRefTest, PackingRoundTrip) {
  NodeRef r = NodeRef::Real(42);
  EXPECT_TRUE(r.is_real());
  EXPECT_FALSE(r.is_virtual());
  EXPECT_EQ(r.index(), 42u);
  NodeRef v = NodeRef::Virtual(42);
  EXPECT_TRUE(v.is_virtual());
  EXPECT_EQ(v.index(), 42u);
  EXPECT_NE(r, v);
  EXPECT_EQ(NodeRef::FromRaw(v.raw()), v);
}

TEST(NodeRefTest, DefaultIsInvalid) {
  NodeRef r;
  EXPECT_FALSE(r.valid());
  EXPECT_EQ(r.ToString(), "<nil>");
  EXPECT_EQ(NodeRef::Real(3).ToString(), "r3");
  EXPECT_EQ(NodeRef::Virtual(7).ToString(), "v7");
}

TEST(StorageTest, AddNodesAndEdges) {
  CondensedStorage g;
  NodeId first = g.AddRealNodes(3);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(g.NumRealNodes(), 3u);
  uint32_t v = g.AddVirtualNode();
  g.AddEdge(NodeRef::Real(0), NodeRef::Virtual(v));
  g.AddEdge(NodeRef::Virtual(v), NodeRef::Real(1));
  EXPECT_EQ(g.CountCondensedEdges(), 2u);
  EXPECT_EQ(g.OutEdges(NodeRef::Real(0)).size(), 1u);
  EXPECT_EQ(g.InEdges(NodeRef::Real(1)).size(), 1u);
  EXPECT_EQ(g.InEdges(NodeRef::Virtual(v)).size(), 1u);
}

TEST(StorageTest, RemoveEdge) {
  CondensedStorage g;
  g.AddRealNodes(2);
  uint32_t v = g.AddVirtualNode();
  g.AddEdge(NodeRef::Real(0), NodeRef::Virtual(v));
  EXPECT_TRUE(g.RemoveEdge(NodeRef::Real(0), NodeRef::Virtual(v)));
  EXPECT_FALSE(g.RemoveEdge(NodeRef::Real(0), NodeRef::Virtual(v)));
  EXPECT_EQ(g.CountCondensedEdges(), 0u);
  EXPECT_TRUE(g.InEdges(NodeRef::Virtual(v)).empty());
}

TEST(StorageTest, SingleVsMultiLayer) {
  CondensedStorage g = MakeFigure1Graph();
  EXPECT_TRUE(g.IsSingleLayer());
  EXPECT_EQ(g.NumLayers(), 1u);
  uint32_t w = g.AddVirtualNode();
  g.AddEdge(NodeRef::Virtual(0), NodeRef::Virtual(w));
  EXPECT_FALSE(g.IsSingleLayer());
  EXPECT_EQ(g.NumLayers(), 2u);
}

TEST(StorageTest, AcyclicDetectsVirtualCycle) {
  CondensedStorage g;
  g.AddRealNodes(1);
  uint32_t a = g.AddVirtualNode();
  uint32_t b = g.AddVirtualNode();
  g.AddEdge(NodeRef::Virtual(a), NodeRef::Virtual(b));
  EXPECT_TRUE(g.IsAcyclic());
  g.AddEdge(NodeRef::Virtual(b), NodeRef::Virtual(a));
  EXPECT_FALSE(g.IsAcyclic());
}

TEST(StorageTest, Figure1ExpandedNeighborsAndCounts) {
  CondensedStorage g = MakeFigure1Graph();
  // a1 (id 0) co-authors: a2, a3, a4 — a4 via both p1 and p2.
  std::vector<NodeId> n = g.ExpandedNeighbors(0);
  std::sort(n.begin(), n.end());
  EXPECT_EQ(n, (std::vector<NodeId>{1, 2, 3}));
  // Expanded co-author edges: p1 clique(4): 12, p2 adds nothing new
  // among {a1,a3,a4}, p3 adds a4<->a5: 2. Total 14 directed edges.
  EXPECT_EQ(g.CountExpandedEdges(), 14u);
  // Duplicated pairs: within {a1,a3,a4} every ordered pair is reachable
  // via p1 and p2 => 6 duplicate ordered pairs.
  EXPECT_EQ(g.CountDuplicatePairs(), 6u);
}

TEST(StorageTest, SelfPathsAreNotLogicalEdges) {
  CondensedStorage g;
  g.AddRealNodes(2);
  uint32_t v = g.AddVirtualNode();
  AddMember(g, 0, v);
  AddMember(g, 1, v);
  std::vector<NodeId> n = g.ExpandedNeighbors(0);
  EXPECT_EQ(n, (std::vector<NodeId>{1}));  // not {0, 1}
}

TEST(StorageTest, ExpandedEdgeSetSortedUnique) {
  CondensedStorage g = MakeFigure1Graph();
  auto edges = g.ExpandedEdgeSet();
  EXPECT_EQ(edges.size(), 14u);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  EXPECT_TRUE(std::adjacent_find(edges.begin(), edges.end()) == edges.end());
}

TEST(StorageTest, ExpandVirtualNodePreservesEdgeSet) {
  CondensedStorage g = MakeFigure1Graph();
  auto before = g.ExpandedEdgeSet();
  g.ExpandVirtualNode(1);  // expand p2
  EXPECT_EQ(g.ExpandedEdgeSet(), before);
  EXPECT_TRUE(g.OutEdges(NodeRef::Virtual(1)).empty());
  EXPECT_TRUE(g.InEdges(NodeRef::Virtual(1)).empty());
}

TEST(StorageTest, CompactVirtualNodesRemapsRefs) {
  CondensedStorage g = MakeFigure1Graph();
  auto before = g.ExpandedEdgeSet();
  g.ExpandVirtualNode(0);
  g.CompactVirtualNodes();
  EXPECT_EQ(g.NumVirtualNodes(), 2u);
  EXPECT_EQ(g.ExpandedEdgeSet(), before);
}

TEST(StorageTest, DetachAllClearsBothDirections) {
  CondensedStorage g = MakeFigure1Graph();
  g.DetachAll(NodeRef::Virtual(0));
  EXPECT_TRUE(g.OutEdges(NodeRef::Virtual(0)).empty());
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeRef r : g.OutEdges(NodeRef::Real(u))) {
      EXPECT_FALSE(r.is_virtual() && r.index() == 0);
    }
  }
}

TEST(StorageTest, SortAdjacencyEnablesBinarySearch) {
  CondensedStorage g = MakeFigure1Graph();
  g.SortAdjacency();
  EXPECT_TRUE(g.HasEdge(NodeRef::Real(0), NodeRef::Virtual(0)));
  EXPECT_FALSE(g.HasEdge(NodeRef::Real(4), NodeRef::Virtual(0)));
}

TEST(StorageTest, RemoveParallelEdges) {
  CondensedStorage g;
  g.AddRealNodes(2);
  uint32_t v = g.AddVirtualNode();
  g.AddEdge(NodeRef::Real(0), NodeRef::Virtual(v));
  g.AddEdge(NodeRef::Real(0), NodeRef::Virtual(v));  // parallel
  g.AddEdge(NodeRef::Virtual(v), NodeRef::Real(1));
  EXPECT_EQ(g.CountCondensedEdges(), 3u);
  g.RemoveParallelEdges();
  EXPECT_EQ(g.CountCondensedEdges(), 2u);
  EXPECT_EQ(g.InEdges(NodeRef::Virtual(v)).size(), 1u);
}

TEST(StorageTest, LazyDeletion) {
  CondensedStorage g = MakeFigure1Graph();
  EXPECT_EQ(g.NumActiveRealNodes(), 5u);
  g.DeleteRealNode(3);  // a4
  EXPECT_TRUE(g.IsDeleted(3));
  EXPECT_EQ(g.NumActiveRealNodes(), 4u);
  EXPECT_EQ(g.NumPendingDeletions(), 1u);
  // Traversal skips the deleted node immediately.
  std::vector<NodeId> n = g.ExpandedNeighbors(0);
  std::sort(n.begin(), n.end());
  EXPECT_EQ(n, (std::vector<NodeId>{1, 2}));
  // Deleted source yields nothing.
  EXPECT_TRUE(g.ExpandedNeighbors(3).empty());
}

TEST(StorageTest, MemoryBytesTracksGrowth) {
  CondensedStorage g;
  g.AddRealNodes(100);
  size_t before = g.MemoryBytes();
  uint32_t v = g.AddVirtualNode();
  for (NodeId u = 0; u < 100; ++u) AddMember(g, u, v);
  EXPECT_GT(g.MemoryBytes(), before);
}

TEST(PropertyTest, SetGetByNameAndColumn) {
  PropertyTable p;
  size_t name_col = p.AddColumn("Name");
  EXPECT_EQ(p.AddColumn("Name"), name_col);  // idempotent
  p.ResizeVertices(3);
  p.Set(1, name_col, "ann");
  EXPECT_EQ(p.Get(1, name_col), "ann");
  EXPECT_EQ(p.Get(0, name_col), "");
  EXPECT_EQ(p.GetByName(1, "Name").value(), "ann");
  EXPECT_FALSE(p.GetByName(1, "Missing").has_value());
  EXPECT_TRUE(p.SetByName(2, "Name", "bob").ok());
  EXPECT_FALSE(p.SetByName(2, "Nope", "x").ok());
}

TEST(PropertyTest, ExternalKeysLookup) {
  PropertyTable p;
  p.ResizeVertices(2);
  p.SetExternalKey(0, "42");
  p.SetExternalKey(1, "43");
  EXPECT_EQ(p.ExternalKey(1), "43");
  EXPECT_EQ(p.FindByExternalKey("42").value(), 0u);
  EXPECT_FALSE(p.FindByExternalKey("99").has_value());
  EXPECT_FALSE(p.FindByExternalKey("").has_value());
}

TEST(PropertyTest, CopiesShareColumnsUntilWritten) {
  PropertyTable original;
  const size_t col = original.AddColumn("Name");
  original.ResizeVertices(2);
  original.Set(0, col, "ann");
  original.SetExternalKey(0, "42");

  PropertyTable copy = original;
  EXPECT_EQ(&copy.Get(0, col), &original.Get(0, col));
  EXPECT_EQ(&copy.ExternalKey(0), &original.ExternalKey(0));
  EXPECT_EQ(copy.MemoryBytes(), original.MemoryBytes());

  // Writing through the copy clones the block; the original is untouched.
  copy.Set(0, col, "bob");
  copy.SetExternalKey(1, "43");
  EXPECT_NE(&copy.Get(0, col), &original.Get(0, col));
  EXPECT_EQ(copy.Get(0, col), "bob");
  EXPECT_EQ(original.Get(0, col), "ann");
  EXPECT_EQ(copy.ExternalKey(1), "43");
  EXPECT_EQ(original.ExternalKey(1), "");
  EXPECT_EQ(copy.AddColumn("Age"), 1u);
  EXPECT_FALSE(original.HasColumn("Age"));

  // A sole owner writes in place.
  const std::string* cell = &copy.Get(0, col);
  copy.Set(0, col, "cy");
  EXPECT_EQ(&copy.Get(0, col), cell);
  EXPECT_EQ(copy.Get(0, col), "cy");
}

TEST(PropertyTest, ShrinkToFitMakesColumnsExact) {
  PropertyTable p;
  const size_t col = p.AddColumn("Name");
  for (NodeId u = 0; u < 100; ++u) {
    p.SetExternalKey(u, std::to_string(u));
    p.Set(u, col, "n");
  }
  const size_t grown = p.MemoryBytes();
  p.ShrinkToFit();
  EXPECT_LT(p.MemoryBytes(), grown);
  // An exact-sized table costs what a deep copy of its strings would.
  size_t strings = 0;
  for (NodeId u = 0; u < 100; ++u) {
    strings += std::string(p.ExternalKey(u)).capacity() +
               std::string(p.Get(u, col)).capacity();
  }
  EXPECT_EQ(p.MemoryBytes(), 200 * sizeof(std::string) + strings);
  EXPECT_EQ(p.Get(99, col), "n");
  EXPECT_EQ(p.FindByExternalKey("99").value(), 99u);
}

TEST(PropertyTest, MovedFromTableReadsEmpty) {
  PropertyTable p;
  p.SetExternalKey(0, "7");
  PropertyTable q = std::move(p);
  EXPECT_EQ(q.ExternalKey(0), "7");
  EXPECT_EQ(p.NumColumns(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(p.ExternalKey(0), "");  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(p.MemoryBytes(), 0u);  // NOLINT(bugprone-use-after-move)
  p.SetExternalKey(0, "8");  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(p.ExternalKey(0), "8");
  EXPECT_EQ(q.ExternalKey(0), "7");
}

}  // namespace
}  // namespace graphgen
