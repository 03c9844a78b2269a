#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/faultpoints.h"
#include "core/graphgen.h"
#include "core/representation_picker.h"
#include "core/serialization.h"
#include "gen/relational_generators.h"
#include "relational/table.h"
#include "repr/cdup_graph.h"
#include "repr/condensed_graph.h"
#include "repr/dedup2_graph.h"
#include "repr/expanded_graph.h"
#include "test_util.h"

namespace graphgen {
namespace {

using testing::MakeFigure1Graph;
using testing::MakeRandomSymmetric;

// The property columns of a served graph, whatever its representation.
const PropertyTable& ServedProperties(const Graph& g) {
  if (const auto* c = dynamic_cast<const CondensedGraph*>(&g)) {
    return c->properties();
  }
  if (const auto* d = dynamic_cast<const Dedup2Graph*>(&g)) {
    return d->properties();
  }
  return dynamic_cast<const ExpandedGraph&>(g).properties();
}

// A graph extracted or patched with capture on holds one copy of its
// property cells: the served graph and its incremental state share them,
// and the footprint counts them once, with the graph.
void ExpectSharedProperties(const ExtractedGraph& g) {
  ASSERT_NE(g.graph, nullptr);
  ASSERT_NE(g.incremental, nullptr);
  const PropertyTable& served = ServedProperties(*g.graph);
  const PropertyTable& state = g.incremental->properties;
  ASSERT_EQ(served.NumColumns(), 1u);
  const NodeId last = static_cast<NodeId>(g.graph->NumVertices() - 1);
  for (const NodeId u : {NodeId{0}, last}) {
    EXPECT_FALSE(state.Get(u, 0).empty());
    EXPECT_EQ(&served.Get(u, 0), &state.Get(u, 0)) << "vertex " << u;
    EXPECT_EQ(&served.ExternalKey(u), &state.ExternalKey(u)) << "vertex " << u;
  }
  EXPECT_EQ(g.FootprintBytes(), g.graph->MemoryFootprint().Total() +
                                    g.incremental->MemoryBytes());
}

class GraphGenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = gen::MakeDblpLike(60, 90, 4.0, 123);
  }
  gen::GeneratedDatabase data_;
};

TEST_F(GraphGenTest, ExtractEveryRepresentation) {
  GraphGen engine(&data_.db);
  GraphGenOptions base;
  base.extract.large_output_factor = 0.0;
  base.extract.preprocess = false;

  std::vector<std::pair<NodeId, NodeId>> oracle;
  for (Representation r :
       {Representation::kCDup, Representation::kExp, Representation::kDedup1,
        Representation::kDedup2, Representation::kBitmap1,
        Representation::kBitmap2}) {
    GraphGenOptions opts = base;
    opts.representation = r;
    auto result = engine.Extract(data_.datalog, opts);
    ASSERT_TRUE(result.ok())
        << RepresentationToString(r) << ": " << result.status().ToString();
    EXPECT_EQ(result->representation, r);
    ASSERT_NE(result->graph, nullptr);
    auto edges = result->graph->ExpandedEdgeSet();
    if (oracle.empty()) {
      oracle = edges;
      EXPECT_FALSE(oracle.empty());
    } else {
      EXPECT_EQ(edges, oracle) << RepresentationToString(r);
    }
  }
}

TEST_F(GraphGenTest, AutoPicksSomethingValid) {
  GraphGen engine(&data_.db);
  GraphGenOptions opts;
  opts.extract.large_output_factor = 0.0;
  auto result = engine.Extract(data_.datalog, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->representation, Representation::kAuto);
  EXPECT_GT(result->graph->NumActiveVertices(), 0u);
}

TEST_F(GraphGenTest, StatsPopulated) {
  GraphGen engine(&data_.db);
  GraphGenOptions opts;
  opts.representation = Representation::kCDup;
  opts.extract.large_output_factor = 0.0;
  auto result = engine.Extract(data_.datalog, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.real_nodes, 60u);
  EXPECT_GT(result->stats.virtual_nodes, 0u);
  EXPECT_GT(result->stats.condensed_edges, 0u);
  EXPECT_FALSE(result->stats.sql.empty());
}

TEST_F(GraphGenTest, Dedup1AlgorithmsSelectable) {
  GraphGen engine(&data_.db);
  for (Dedup1Algorithm a :
       {Dedup1Algorithm::kNaiveVirtualFirst, Dedup1Algorithm::kNaiveRealFirst,
        Dedup1Algorithm::kGreedyRealFirst,
        Dedup1Algorithm::kGreedyVirtualFirst}) {
    GraphGenOptions opts;
    opts.representation = Representation::kDedup1;
    opts.dedup1_algorithm = a;
    opts.extract.large_output_factor = 0.0;
    opts.extract.preprocess = false;
    auto result = engine.Extract(data_.datalog, opts);
    ASSERT_TRUE(result.ok()) << Dedup1AlgorithmToString(a);
    EXPECT_TRUE(testing::IsDuplicateFree(*result->graph))
        << Dedup1AlgorithmToString(a);
  }
}

TEST_F(GraphGenTest, PatchExtractedExpParity) {
  // Withhold the last two authors with their AuthorPub rows plus a tail of
  // AuthorPub, capture an EXP basis, append them back, patch: the patched
  // graph gains the withheld vertices, is flat, and its expanded edge set
  // must equal a cold kExp extraction of the grown database. Two deltas:
  // a few rows touch a handful of the 2000 authors; most of the table
  // touches nearly every author.
  const gen::GeneratedDatabase data = gen::MakeDblpLike(2000, 3000, 4.0, 7);
  const rel::Table* authors = *data.db.GetTable("Author");
  const rel::Table* links = *data.db.GetTable("AuthorPub");
  constexpr size_t kNewAuthors = 2;
  const size_t kept_authors = authors->NumRows() - kNewAuthors;
  for (const size_t link_tail : {size_t{2}, links->NumRows() * 3 / 5}) {
    SCOPED_TRACE(link_tail);
    // Author IDs are 0..n-1 in row order, so a link row belongs to a
    // withheld author iff its aid is at least kept_authors.
    const size_t keep = links->NumRows() - link_tail;
    std::vector<rel::Row> kept_links;
    std::vector<rel::Row> new_links;
    for (size_t i = 0; i < links->NumRows(); ++i) {
      rel::Row row = links->row(i);
      const bool withheld =
          i >= keep ||
          row[0].AsInt64() >= static_cast<int64_t>(kept_authors);
      (withheld ? new_links : kept_links).push_back(std::move(row));
    }
    std::vector<rel::Row> new_authors;
    for (size_t i = kept_authors; i < authors->NumRows(); ++i) {
      new_authors.push_back(authors->row(i));
    }
    rel::Database db;
    for (const std::string& name : data.db.TableNames()) {
      const rel::Table* t = *data.db.GetTable(name);
      rel::Table copy(name, t->schema());
      if (t == links) {
        for (const rel::Row& row : kept_links) copy.AppendUnchecked(row);
      } else {
        const size_t rows = t == authors ? kept_authors : t->NumRows();
        for (size_t i = 0; i < rows; ++i) copy.AppendUnchecked(t->row(i));
      }
      db.PutTable(std::move(copy));
    }
    db.AnalyzeAll();

    GraphGenOptions opts;
    opts.representation = Representation::kExp;
    opts.capture_incremental = true;
    opts.extract.large_output_factor = 0.0;
    opts.extract.preprocess = false;

    GraphGen engine(&db);
    auto basis = engine.Extract(data.datalog, opts);
    ASSERT_TRUE(basis.ok()) << basis.status().ToString();
    ExpectSharedProperties(*basis);
    ASSERT_TRUE(db.AppendRows("Author", new_authors).ok());
    ASSERT_TRUE(db.AppendRows("AuthorPub", new_links).ok());

    auto outcome = engine.PatchExtracted(*basis, opts);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->patched)
      << planner::PatchFallbackName(outcome->fallback);
    ExpectSharedProperties(outcome->graph);
    auto fresh = engine.Extract(data.datalog, opts);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

    const Graph& patched = *outcome->graph.graph;
    // The withheld authors are new vertices, so the merge grew the graph.
    EXPECT_EQ(patched.NumVertices(),
              basis->graph->NumVertices() + kNewAuthors);
    EXPECT_EQ(patched.NumVertices(), fresh->graph->NumVertices());
    EXPECT_EQ(patched.ExpandedEdgeSet(), fresh->graph->ExpandedEdgeSet());
    EXPECT_NE(patched.ExpandedEdgeSet(), basis->graph->ExpandedEdgeSet());

    // Every patch merges into fresh flat arrays: no overlay entries.
    const auto* exp = dynamic_cast<const ExpandedGraph*>(&patched);
    ASSERT_NE(exp, nullptr);
    EXPECT_EQ(exp->PatchedVertices(), 0u);
    EXPECT_TRUE(exp->HasFlatAdjacency());

    // The merge reports its candidate and deduplicated delta sizes.
    const obs::ProfileNode* merge = nullptr;
    for (const obs::ProfileNode& child :
         outcome->graph.stats.profile.root.children) {
      if (child.name == "exp_merge") merge = &child;
    }
    ASSERT_NE(merge, nullptr);
    double raw_candidates = -1, delta_pairs = -1;
    for (const auto& [key, value] : merge->stats) {
      if (key == "raw_candidates") raw_candidates = value;
      if (key == "delta_pairs") delta_pairs = value;
    }
    EXPECT_GT(delta_pairs, 0);
    EXPECT_LE(delta_pairs, raw_candidates);
  }
}

// A copy of `data` without the last `tail` AuthorPub rows, which go to
// `withheld`.
rel::Database WithoutLinkTail(const gen::GeneratedDatabase& data, size_t tail,
                              std::vector<rel::Row>* withheld) {
  const rel::Table* links = *data.db.GetTable("AuthorPub");
  const size_t kept_links = links->NumRows() - tail;
  for (size_t i = kept_links; i < links->NumRows(); ++i) {
    withheld->push_back(links->row(i));
  }
  rel::Database db;
  for (const std::string& name : data.db.TableNames()) {
    const rel::Table* t = *data.db.GetTable(name);
    rel::Table copy(name, t->schema());
    const size_t rows = t == links ? kept_links : t->NumRows();
    for (size_t i = 0; i < rows; ++i) copy.AppendUnchecked(t->row(i));
    db.PutTable(std::move(copy));
  }
  db.AnalyzeAll();
  return db;
}

GraphGenOptions ExpPatchOptions() {
  GraphGenOptions opts;
  opts.representation = Representation::kExp;
  opts.capture_incremental = true;
  opts.extract.large_output_factor = 0.0;
  opts.extract.preprocess = false;
  return opts;
}

TEST_F(GraphGenTest, PatchExtractedExpCarriesBasisOverlay) {
  // A §3.4 AddEdge on the EXP basis lands in its copy-on-write overlay;
  // the patch reads the basis through that overlay, so the edge survives
  // into the (flat) patched graph next to the appended delta.
  std::vector<rel::Row> new_links;
  rel::Database db = WithoutLinkTail(data_, 10, &new_links);
  const GraphGenOptions opts = ExpPatchOptions();
  GraphGen engine(&db);
  auto basis = engine.Extract(data_.datalog, opts);
  ASSERT_TRUE(basis.ok()) << basis.status().ToString();
  ASSERT_TRUE(db.AppendRows("AuthorPub", new_links).ok());
  auto fresh = engine.Extract(data_.datalog, opts);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  // An edge neither the basis nor the grown database has.
  NodeId u = 0;
  NodeId v = 1;
  while (fresh->graph->ExistsEdge(u, v)) ++v;
  ASSERT_LT(v, basis->graph->NumVertices());
  ASSERT_TRUE(basis->graph->AddEdge(u, v).ok());
  const auto& basis_exp = dynamic_cast<const ExpandedGraph&>(*basis->graph);
  ASSERT_GT(basis_exp.PatchedVertices(), 0u);

  auto outcome = engine.PatchExtracted(*basis, opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->patched)
      << planner::PatchFallbackName(outcome->fallback);
  const auto& patched =
      dynamic_cast<const ExpandedGraph&>(*outcome->graph.graph);
  EXPECT_TRUE(patched.ExistsEdge(u, v));
  EXPECT_EQ(patched.PatchedVertices(), 0u);
  EXPECT_TRUE(patched.HasFlatAdjacency());
  std::vector<std::pair<NodeId, NodeId>> expected =
      fresh->graph->ExpandedEdgeSet();
  expected.insert(std::lower_bound(expected.begin(), expected.end(),
                                   std::make_pair(u, v)),
                  {u, v});
  EXPECT_EQ(patched.ExpandedEdgeSet(), expected);
}

TEST_F(GraphGenTest, PatchExtractedExpKeepsCompactedDeletions) {
  // A vertex deleted (§3.4) and compacted out of the EXP basis takes no
  // edge from the delta, so the flat patched graph keeps the span
  // contract: no neighbor span names a deleted vertex.
  std::vector<rel::Row> new_links;
  rel::Database db = WithoutLinkTail(data_, 10, &new_links);
  const GraphGenOptions opts = ExpPatchOptions();
  GraphGen engine(&db);
  auto basis = engine.Extract(data_.datalog, opts);
  ASSERT_TRUE(basis.ok()) << basis.status().ToString();
  ASSERT_TRUE(db.AppendRows("AuthorPub", new_links).ok());
  auto fresh = engine.Extract(data_.datalog, opts);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  // Delete a vertex the delta gives a new edge.
  NodeId x = kInvalidNode;
  for (const auto& [a, b] : fresh->graph->ExpandedEdgeSet()) {
    if (!basis->graph->ExistsEdge(a, b)) {
      x = a;
      break;
    }
  }
  ASSERT_NE(x, kInvalidNode);
  ASSERT_TRUE(basis->graph->DeleteVertex(x).ok());
  dynamic_cast<ExpandedGraph&>(*basis->graph).Compact();
  ASSERT_TRUE(basis->graph->HasFlatAdjacency());

  auto outcome = engine.PatchExtracted(*basis, opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->patched)
      << planner::PatchFallbackName(outcome->fallback);
  const Graph& patched = *outcome->graph.graph;
  ASSERT_TRUE(patched.HasFlatAdjacency());
  EXPECT_FALSE(patched.VertexExists(x));
  for (NodeId u = 0; u < patched.NumVertices(); ++u) {
    for (NodeId v : patched.NeighborSpan(u)) EXPECT_NE(v, x) << "vertex " << u;
  }
  std::vector<std::pair<NodeId, NodeId>> expected;
  for (const auto& [a, b] : fresh->graph->ExpandedEdgeSet()) {
    if (a != x && b != x) expected.emplace_back(a, b);
  }
  EXPECT_EQ(patched.ExpandedEdgeSet(), expected);
}

TEST_F(GraphGenTest, CapturedStateSharesPropertiesInEveryRepresentation) {
  // Withhold the last two authors and the AuthorPub tail, then append
  // them back together with a new name for author 0: the patch adds
  // vertices and rewrites a property cell the basis already holds.
  const rel::Table* authors = *data_.db.GetTable("Author");
  const rel::Table* links = *data_.db.GetTable("AuthorPub");
  const size_t kept_authors = authors->NumRows() - 2;
  const size_t kept_links = links->NumRows() - 10;
  std::vector<rel::Row> new_authors;
  std::vector<rel::Row> new_links;
  for (size_t i = kept_authors; i < authors->NumRows(); ++i) {
    new_authors.push_back(authors->row(i));
  }
  new_authors.push_back({rel::Value(int64_t{0}), rel::Value("renamed")});
  for (size_t i = kept_links; i < links->NumRows(); ++i) {
    new_links.push_back(links->row(i));
  }

  for (Representation r :
       {Representation::kCDup, Representation::kExp, Representation::kDedup1,
        Representation::kDedup2, Representation::kBitmap1,
        Representation::kBitmap2}) {
    SCOPED_TRACE(RepresentationToString(r));
    rel::Database db;
    for (const std::string& name : data_.db.TableNames()) {
      const rel::Table* t = *data_.db.GetTable(name);
      const size_t rows = t == authors ? kept_authors
                          : t == links ? kept_links
                                       : t->NumRows();
      rel::Table copy(name, t->schema());
      for (size_t i = 0; i < rows; ++i) copy.AppendUnchecked(t->row(i));
      db.PutTable(std::move(copy));
    }
    db.AnalyzeAll();

    GraphGenOptions opts;
    opts.representation = r;
    opts.capture_incremental = true;
    opts.extract.large_output_factor = 0.0;
    GraphGen engine(&db);
    auto basis = engine.Extract(data_.datalog, opts);
    ASSERT_TRUE(basis.ok()) << basis.status().ToString();
    ExpectSharedProperties(*basis);
    const std::string old_name = ServedProperties(*basis->graph).Get(0, 0);

    ASSERT_TRUE(db.AppendRows("Author", new_authors).ok());
    ASSERT_TRUE(db.AppendRows("AuthorPub", new_links).ok());
    auto outcome = engine.PatchExtracted(*basis, opts);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->patched)
      << planner::PatchFallbackName(outcome->fallback);
    ExpectSharedProperties(outcome->graph);
    auto fresh = engine.Extract(data_.datalog, opts);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

    // The rewrite reached the patched graph only: the basis it was
    // patched from still serves the old name.
    const ExtractedGraph& patched = outcome->graph;
    const std::string& new_name = ServedProperties(*patched.graph).Get(0, 0);
    EXPECT_NE(new_name.find("renamed"), std::string::npos) << new_name;
    EXPECT_EQ(new_name, ServedProperties(*fresh->graph).Get(0, 0));
    EXPECT_EQ(ServedProperties(*basis->graph).Get(0, 0), old_name);
    EXPECT_EQ(basis->incremental->properties.Get(0, 0), old_name);
    EXPECT_EQ(patched.graph->NumVertices(), authors->NumRows());
    EXPECT_EQ(patched.graph->ExpandedEdgeSet(),
              fresh->graph->ExpandedEdgeSet());
  }
}

TEST(MaterializeTest, Dedup1FlattensMultiLayerInput) {
  gen::LayeredGenOptions o;
  o.num_real = 50;
  o.layer_sizes = {8, 4};
  o.seed = 3;
  CondensedStorage g = gen::GenerateLayeredCondensed(o);
  auto oracle = g.ExpandedEdgeSet();
  GraphGenOptions opts;
  opts.representation = Representation::kDedup1;
  auto result = GraphGen::Materialize(std::move(g), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->graph->ExpandedEdgeSet(), oracle);
}

TEST(RepresentationPickerTest, ExpandsSparseCondensesDense) {
  CondensedStorage sparse;
  sparse.AddRealNodes(6);
  uint32_t v = sparse.AddVirtualNode();
  testing::AddMember(sparse, 0, v);
  testing::AddMember(sparse, 1, v);
  EXPECT_EQ(ChooseRepresentation(sparse, 0.2), Representation::kExp);

  CondensedStorage dense;
  dense.AddRealNodes(100);
  uint32_t w = dense.AddVirtualNode();
  for (NodeId u = 0; u < 100; ++u) testing::AddMember(dense, u, w);
  EXPECT_EQ(ChooseRepresentation(dense, 0.2), Representation::kBitmap2);
}

TEST(SerializationTest, EdgeListWritesExpandedView) {
  CDupGraph g(MakeFigure1Graph());
  std::string path = ::testing::TempDir() + "/edges.txt";
  ASSERT_TRUE(SerializeEdgeList(g, path).ok());
  FILE* f = fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  size_t lines = 0;
  int a = 0;
  int b = 0;
  while (fscanf(f, "%d %d", &a, &b) == 2) ++lines;
  fclose(f);
  EXPECT_EQ(lines, 14u);
  std::remove(path.c_str());
}

TEST(SerializationTest, CondensedRoundTrip) {
  CondensedStorage g = MakeRandomSymmetric(40, 15, 5, 9);
  g.DeleteRealNode(3);
  std::string path = ::testing::TempDir() + "/graph.cnd";
  ASSERT_TRUE(SerializeCondensed(g, path).ok());
  auto loaded = LoadCondensed(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumRealNodes(), g.NumRealNodes());
  EXPECT_EQ(loaded->NumVirtualNodes(), g.NumVirtualNodes());
  EXPECT_TRUE(loaded->IsDeleted(3));
  EXPECT_EQ(loaded->ExpandedEdgeSet(), g.ExpandedEdgeSet());
  std::remove(path.c_str());
}

// /dev/full accepts the open and every buffered write, then fails the
// flush with ENOSPC: a writer that ignored fclose would report success
// for a truncated file.
TEST(SerializationTest, WritersReportFailedFlush) {
  FILE* probe = fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full is not available";
  fclose(probe);
  CondensedStorage storage = MakeRandomSymmetric(40, 15, 5, 9);
  const Status edges = SerializeEdgeList(CDupGraph(storage), "/dev/full");
  EXPECT_EQ(edges.code(), StatusCode::kExecutionError) << edges.ToString();
  const Status condensed = SerializeCondensed(storage, "/dev/full");
  EXPECT_EQ(condensed.code(), StatusCode::kExecutionError)
      << condensed.ToString();
}

TEST(SerializationTest, LoadRejectsGarbage) {
  std::string path = ::testing::TempDir() + "/garbage.cnd";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("not a graph\n", f);
  fclose(f);
  EXPECT_FALSE(LoadCondensed(path).ok());
  EXPECT_FALSE(LoadCondensed("/no/such/file").ok());
  std::remove(path.c_str());
}

// Hostile condensed files: each malformed shape is a clean ParseError,
// never an out-of-bounds write, a throw or a silent misparse.
TEST(SerializationTest, LoadRejectsMalformedShapes) {
  const std::pair<const char*, const char*> cases[] = {
      {"node index beyond the header", "2 1\nr5 1\n"},
      {"virtual index beyond the header", "2 1\nv1 0\n"},
      {"real ref beyond the header", "2 1\nr0 7\n"},
      {"virtual ref beyond the header", "2 1\nr0 2147483649\n"},
      {"D marker on a virtual line", "2 1\nv0 D 0\n"},
      {"unknown line kind", "2 1\nx0 1\n"},
      {"malformed edge reference", "2 1\nr0 zz\n"},
      {"real count beyond NodeRef range", "2147483649 0\n"},
      {"virtual count beyond NodeRef range", "0 18446744073709551615\n"},
  };
  const std::string path = ::testing::TempDir() + "/hostile.cnd";
  for (const auto& [label, body] : cases) {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("graphgen-condensed 1\n", f);
    fputs(body, f);
    fclose(f);
    auto loaded = LoadCondensed(path);
    ASSERT_FALSE(loaded.ok()) << label;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << label << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, LoadAllocationFailureIsResourceExhausted) {
  CondensedStorage g = MakeRandomSymmetric(10, 4, 3, 5);
  const std::string path = ::testing::TempDir() + "/alloc.cnd";
  ASSERT_TRUE(SerializeCondensed(g, path).ok());
  fault::FaultSpec spec;
  spec.action = fault::Action::kThrow;  // throws std::bad_alloc
  spec.fire_on_hit = 1;
  fault::FaultRegistry::Instance().Arm("core.load_condensed", spec);
  auto loaded = LoadCondensed(path);
  fault::FaultRegistry::Instance().DisarmAll();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kResourceExhausted)
      << loaded.status().ToString();
  EXPECT_TRUE(LoadCondensed(path).ok());
  std::remove(path.c_str());
}

TEST(ExtractManyTest, BatchExtraction) {
  gen::GeneratedDatabase d = gen::MakeUniversity(40, 6, 12, 2.5);
  GraphGen engine(&d.db);
  GraphGenOptions opts;
  opts.representation = Representation::kCDup;
  opts.extract.large_output_factor = 0.0;
  opts.extract.preprocess = false;
  std::vector<std::string> queries = {
      "Nodes(ID, Name) :- Student(ID, Name).\n"
      "Edges(ID1, ID2) :- TookCourse(ID1, C), TookCourse(ID2, C).",
      "Nodes(ID, Name) :- Instructor(ID, Name).\n"
      "Nodes(ID, Name) :- Student(ID, Name).\n"
      "Edges(ID1, ID2) :- TaughtCourse(ID1, C), TookCourse(ID2, C).",
  };
  auto graphs = engine.ExtractMany(queries, opts);
  ASSERT_TRUE(graphs.ok()) << graphs.status().ToString();
  ASSERT_EQ(graphs->size(), 2u);
  EXPECT_EQ((*graphs)[0].graph->NumVertices(), 40u);   // students only
  EXPECT_EQ((*graphs)[1].graph->NumVertices(), 46u);   // bipartite
}

TEST(ExtractManyTest, MemoryBudgetEnforced) {
  gen::GeneratedDatabase d = gen::MakeUniversity(40, 6, 12, 2.5);
  GraphGen engine(&d.db);
  GraphGenOptions opts;
  opts.representation = Representation::kCDup;
  opts.extract.large_output_factor = 0.0;
  std::vector<std::string> queries(3,
      "Nodes(ID, Name) :- Student(ID, Name).\n"
      "Edges(ID1, ID2) :- TookCourse(ID1, C), TookCourse(ID2, C).");
  size_t completed = 99;
  auto graphs = engine.ExtractMany(queries, opts, /*memory_budget_bytes=*/1,
                                   &completed);
  EXPECT_EQ(graphs.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(completed, 0u);
}

TEST(ExtractManyTest, BudgetAdmitsGraphsThatFit) {
  gen::GeneratedDatabase d = gen::MakeUniversity(40, 6, 12, 2.5);
  GraphGen engine(&d.db);
  GraphGenOptions opts;
  opts.representation = Representation::kCDup;
  opts.extract.large_output_factor = 0.0;
  const std::string query =
      "Nodes(ID, Name) :- Student(ID, Name).\n"
      "Edges(ID1, ID2) :- TookCourse(ID1, C), TookCourse(ID2, C).";

  // The footprint of one extraction, from a probe run.
  auto probe = engine.Extract(query, opts);
  ASSERT_TRUE(probe.ok());
  const size_t one_graph = probe->FootprintBytes();
  ASSERT_GT(one_graph, 0u);

  // Budget for exactly two graphs: the third must trip kOutOfRange with
  // `completed` reporting the two that made it.
  std::vector<std::string> queries(3, query);
  size_t completed = 99;
  auto graphs =
      engine.ExtractMany(queries, opts, /*memory_budget_bytes=*/2 * one_graph,
                         &completed);
  EXPECT_EQ(graphs.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(completed, 2u);

  // A budget that covers all three succeeds and completes everything.
  completed = 99;
  auto all = engine.ExtractMany(queries, opts,
                                /*memory_budget_bytes=*/3 * one_graph,
                                &completed);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->size(), 3u);
  EXPECT_EQ(completed, 3u);

  // Budget 0 means unlimited.
  completed = 99;
  EXPECT_TRUE(engine.ExtractMany(queries, opts, 0, &completed).ok());
  EXPECT_EQ(completed, 3u);
}

TEST(ExtractManyTest, PropagatesQueryErrors) {
  gen::GeneratedDatabase d = gen::MakeUniversity(20, 4, 8, 2.0);
  GraphGen engine(&d.db);
  std::vector<std::string> queries = {"garbage("};
  EXPECT_FALSE(engine.ExtractMany(queries, GraphGenOptions{}).ok());
}

TEST(EnumStringsTest, AllNamed) {
  EXPECT_EQ(RepresentationToString(Representation::kCDup), "C-DUP");
  EXPECT_EQ(RepresentationToString(Representation::kExp), "EXP");
  EXPECT_EQ(RepresentationToString(Representation::kDedup1), "DEDUP-1");
  EXPECT_EQ(RepresentationToString(Representation::kDedup2), "DEDUP-2");
  EXPECT_EQ(RepresentationToString(Representation::kBitmap1), "BITMAP-1");
  EXPECT_EQ(RepresentationToString(Representation::kBitmap2), "BITMAP-2");
  EXPECT_EQ(Dedup1AlgorithmToString(Dedup1Algorithm::kGreedyVirtualFirst),
            "GreedyVirtualFirst");
}

}  // namespace
}  // namespace graphgen
