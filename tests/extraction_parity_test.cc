// Extraction parity suite: every configuration of the columnar pipeline
// must produce output bitwise-identical to the serial run — same node
// ids, same condensed adjacency in the same stored order, same properties
// and external keys — across every generated dataset, every large-output
// policy, every thread count, and the shared-pool path. The serial run
// itself must mean what the program says: its real nodes and expanded
// edges are checked against the planner-independent reference evaluator
// (reference_extractor.h).

#include "reference_extractor.h"

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "datalog/parser.h"
#include "fused_join_input.h"
#include "gen/relational_generators.h"
#include "planner/extractor.h"

namespace graphgen::planner {
namespace {

struct Config {
  const char* name;
  size_t threads;
  bool use_pool;
};

// The serial run is the bitwise baseline; every other configuration must
// match it exactly.
const Config kBaseline{"columnar serial", 1, false};
const Config kConfigs[] = {
    {"columnar 4 threads", 4, false},
    {"columnar shared pool", 4, true},
};

testing::ReferenceGraph Reference(const rel::Database& db,
                                  const std::string& datalog) {
  auto program = dsl::Parse(datalog);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto ref = testing::ReferenceExtract(db, *program);
  EXPECT_TRUE(ref.ok()) << ref.status().ToString();
  return std::move(ref).ValueOrDie();
}

ExtractionResult RunConfig(const gen::GeneratedDatabase& data,
                           const std::string& datalog, double factor,
                           const Config& config, ThreadPool* pool) {
  ExtractOptions opts;
  opts.large_output_factor = factor;
  opts.preprocess = false;
  opts.threads = config.threads;
  opts.pool = config.use_pool ? pool : nullptr;
  auto result = ExtractFromQuery(data.db, datalog, opts);
  EXPECT_TRUE(result.ok()) << config.name << ": "
                           << result.status().ToString();
  return std::move(result).ValueOrDie();
}

void ExpectParity(const gen::GeneratedDatabase& data,
                  const std::string& datalog, const char* dataset) {
  ThreadPool pool(3);
  const testing::ReferenceGraph ref = Reference(data.db, datalog);
  // 0.0 forces every boundary condensed, 1e18 forces full expansion, 2.0
  // is the paper's policy — together they cover every segment shape.
  for (double factor : {0.0, 2.0, 1e18}) {
    ExtractionResult baseline =
        RunConfig(data, datalog, factor, kBaseline, nullptr);
    EXPECT_EQ(testing::DiffAgainstReference(baseline.storage, ref), "")
        << dataset << " factor=" << factor;
    for (const Config& config : kConfigs) {
      ExtractionResult got = RunConfig(data, datalog, factor, config, &pool);
      EXPECT_EQ(DiffExtraction(baseline, got), "")
          << dataset << " factor=" << factor << " config=" << config.name;
      EXPECT_EQ(got.sql, baseline.sql) << dataset << " " << config.name;
    }
  }
}

TEST(ExtractionParityTest, DblpCoAuthors) {
  gen::GeneratedDatabase d = gen::MakeDblpLike(400, 800, 4.0);
  ExpectParity(d, d.datalog, "DBLP");
}

TEST(ExtractionParityTest, ImdbCoActors) {
  gen::GeneratedDatabase d = gen::MakeImdbLike(200, 120, 6.0);
  ExpectParity(d, d.datalog, "IMDB");
}

TEST(ExtractionParityTest, TpchMultiAtomChain) {
  gen::GeneratedDatabase d = gen::MakeTpchLike(60, 240, 20, 3.0);
  ExpectParity(d, d.datalog, "TPCH");
}

TEST(ExtractionParityTest, UniversityHeterogeneous) {
  gen::GeneratedDatabase d = gen::MakeUniversity(80, 10, 16, 3.0);
  ExpectParity(d, d.datalog, "UNIV");
}

TEST(ExtractionParityTest, SingleSelectivity) {
  gen::GeneratedDatabase d = gen::MakeSingleSelectivity(600, 0.1);
  ExpectParity(d, d.datalog, "Single");
}

TEST(ExtractionParityTest, LayeredSelectivity) {
  gen::GeneratedDatabase d = gen::MakeLayeredSelectivity(300, 300, 0.2, 0.1);
  ExpectParity(d, d.datalog, "Layered");
}

TEST(ExtractionParityTest, MultipleRulesExtractConcurrently) {
  // Several independent Nodes/Edges rules — the inter-rule fan-out path.
  gen::GeneratedDatabase d = gen::MakeUniversity(60, 8, 12, 2.5);
  const std::string program =
      "Nodes(ID, Name) :- Student(ID, Name).\n"
      "Nodes(ID, Name) :- Instructor(ID, Name).\n"
      "Edges(ID1, ID2) :- TookCourse(ID1, C), TookCourse(ID2, C).\n"
      "Edges(ID1, ID2) :- TaughtCourse(ID1, C), TookCourse(ID2, C).\n"
      "Edges(ID1, ID2) :- TaughtCourse(ID1, C), TaughtCourse(ID2, C).";
  ExpectParity(d, program, "UNIV multi-rule");
}

TEST(ExtractionParityTest, StringKeysExerciseDictionaryKernels) {
  // String node keys: scans, the dictionary join kernel, DISTINCT over
  // codes, and dict property materialization all run on interned strings,
  // with NULLs and dangling keys sprinkled in.
  gen::GeneratedDatabase d;
  {
    rel::Table people("People", rel::Schema({{"id", rel::ValueType::kString},
                                             {"name", rel::ValueType::kString}}));
    for (int i = 0; i < 40; ++i) {
      const std::string id = "p" + std::to_string(i);
      people.AppendUnchecked({rel::Value(id), rel::Value("Person " + id)});
    }
    d.db.PutTable(std::move(people));
    rel::Table follows("Follows",
                       rel::Schema({{"who", rel::ValueType::kString},
                                    {"topic", rel::ValueType::kString}}));
    for (int i = 0; i < 200; ++i) {
      // Some rows reference people that do not exist; every 17th row has
      // a NULL key.
      rel::Value who = i % 17 == 0
                           ? rel::Value()
                           : rel::Value("p" + std::to_string(i % 50));
      follows.AppendUnchecked(
          {std::move(who), rel::Value("t" + std::to_string(i % 13))});
    }
    d.db.PutTable(std::move(follows));
    d.db.AnalyzeAll();
    d.datalog =
        "Nodes(ID, Name) :- People(ID, Name).\n"
        "Edges(ID1, ID2) :- Follows(ID1, T), Follows(ID2, T).\n";
  }
  ExpectParity(d, d.datalog, "StringKeys");
}

TEST(ExtractionParityTest, FusedJoinDistinctPastThreshold) {
  // Expanded in the database (factor 1e18), the Hub self-join crosses the
  // executor's fusion threshold, so every configuration's DISTINCT takes
  // the fused branch — one range serially, merged ranges in parallel.
  // Dictionary-string keys; query_test covers int64 keys the same way.
  gen::GeneratedDatabase d;
  testing::PutHubTables(d.db, testing::HubKey::kString);
  ExpectParity(d, testing::kHubCoMembership, "Hub");
}

TEST(ExtractionParityTest, CountConstraint) {
  gen::GeneratedDatabase d = gen::MakeDblpLike(150, 300, 5.0);
  const std::string program =
      "Nodes(ID, Name) :- Author(ID, Name).\n"
      "Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P), "
      "COUNT(P) >= 2.";
  ExpectParity(d, program, "DBLP count-constraint");
}

TEST(ExtractionParityTest, CountConstraintEdgeOrderIsSorted) {
  // Weighted-edge aggregation used to emit edges in hash-map iteration
  // order — dependent on allocator layout, not part of the semantics. The
  // contract now: count-constraint edges are appended in ascending
  // (src, dst), so every node's stored out-adjacency from the count rule
  // is strictly increasing.
  gen::GeneratedDatabase d = gen::MakeDblpLike(200, 400, 5.0);
  const std::string program =
      "Nodes(ID, Name) :- Author(ID, Name).\n"
      "Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P), "
      "COUNT(P) >= 1.";
  ExtractOptions opts;
  opts.preprocess = false;
  auto result = ExtractFromQuery(d.db, program, opts);
  ASSERT_TRUE(result.ok());
  size_t edges = 0;
  for (size_t i = 0; i < result->storage.NumRealNodes(); ++i) {
    const auto& out =
        result->storage.OutEdges(NodeRef::Real(static_cast<uint32_t>(i)));
    edges += out.size();
    for (size_t k = 1; k < out.size(); ++k) {
      EXPECT_TRUE(out[k - 1].index() < out[k].index())
          << "node " << i << " out-edges not sorted at " << k;
    }
  }
  EXPECT_GT(edges, 0u);
}

TEST(ExtractionParityTest, PreprocessKeepsParity) {
  gen::GeneratedDatabase d = gen::MakeDblpLike(300, 600, 4.0);
  ExtractOptions serial;
  serial.large_output_factor = 0.0;
  serial.preprocess = true;
  serial.threads = 1;
  auto baseline = ExtractFromQuery(d.db, d.datalog, serial);
  ASSERT_TRUE(baseline.ok());
  // Preprocessing rewires virtual nodes; the expanded graph must not move.
  EXPECT_EQ(testing::DiffAgainstReference(baseline->storage,
                                          Reference(d.db, d.datalog)),
            "");

  ExtractOptions parallel = serial;
  parallel.threads = 4;
  auto got = ExtractFromQuery(d.db, d.datalog, parallel);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(DiffExtraction(*baseline, *got), "");
}

TEST(ExtractionParityTest, DiffReportsDifferences) {
  gen::GeneratedDatabase d = gen::MakeDblpLike(50, 100, 3.0);
  ExtractOptions opts;
  opts.preprocess = false;
  opts.large_output_factor = 0.0;
  auto a = ExtractFromQuery(d.db, d.datalog, opts);
  ASSERT_TRUE(a.ok());
  auto b = ExtractFromQuery(d.db, d.datalog, opts);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(DiffExtraction(*a, *b), "");
  b->storage.AddEdge(NodeRef::Real(0), NodeRef::Real(1));
  EXPECT_NE(DiffExtraction(*a, *b), "");
}

}  // namespace
}  // namespace graphgen::planner
