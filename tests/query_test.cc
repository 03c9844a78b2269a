#include <gtest/gtest.h>

#include <optional>
#include <unordered_set>

#include "query/executor.h"

namespace graphgen::query {
namespace {

using rel::Database;
using rel::Schema;
using rel::Table;
using rel::Value;
using rel::ValueType;

Database MakeDb() {
  Database db;
  Table authors("Author", Schema({{"id", ValueType::kInt64},
                                  {"name", ValueType::kString}}));
  authors.AppendUnchecked({Value(int64_t{1}), Value("ann")});
  authors.AppendUnchecked({Value(int64_t{2}), Value("bob")});
  authors.AppendUnchecked({Value(int64_t{3}), Value("cat")});
  db.PutTable(std::move(authors));

  Table ap("AuthorPub", Schema({{"aid", ValueType::kInt64},
                                {"pid", ValueType::kInt64}}));
  // Pub 10: {1, 2}; Pub 20: {2, 3}; Pub 30: {3}.
  ap.AppendUnchecked({Value(int64_t{1}), Value(int64_t{10})});
  ap.AppendUnchecked({Value(int64_t{2}), Value(int64_t{10})});
  ap.AppendUnchecked({Value(int64_t{2}), Value(int64_t{20})});
  ap.AppendUnchecked({Value(int64_t{3}), Value(int64_t{20})});
  ap.AppendUnchecked({Value(int64_t{3}), Value(int64_t{30})});
  db.PutTable(std::move(ap));
  return db;
}

TEST(ExecutorTest, ScanReturnsAllRows) {
  Database db = MakeDb();
  Executor ex(&db);
  ScanNode scan("Author");
  auto rs = ex.Execute(scan);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->NumRows(), 3u);
  EXPECT_EQ(rs->schema.NumColumns(), 2u);
}

TEST(ExecutorTest, ScanMissingTableFails) {
  Database db = MakeDb();
  Executor ex(&db);
  ScanNode scan("Nope");
  EXPECT_EQ(ex.Execute(scan).status().code(), StatusCode::kNotFound);
}

TEST(ExecutorTest, ScanWithPredicate) {
  Database db = MakeDb();
  Executor ex(&db);
  ScanNode scan("AuthorPub", {{1, CompareOp::kEq, Value(int64_t{10})}});
  auto rs = ex.Execute(scan);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->NumRows(), 2u);
}

TEST(ExecutorTest, PredicateOperators) {
  Database db = MakeDb();
  Executor ex(&db);
  auto count = [&](CompareOp op, int64_t v) {
    ScanNode scan("AuthorPub", {{1, op, Value(v)}});
    return ex.Execute(scan).ValueOrDie().NumRows();
  };
  EXPECT_EQ(count(CompareOp::kEq, 10), 2u);
  EXPECT_EQ(count(CompareOp::kNe, 10), 3u);
  EXPECT_EQ(count(CompareOp::kLt, 20), 2u);
  EXPECT_EQ(count(CompareOp::kLe, 20), 4u);
  EXPECT_EQ(count(CompareOp::kGt, 20), 1u);
  EXPECT_EQ(count(CompareOp::kGe, 20), 3u);
}

TEST(ExecutorTest, PredicateColumnOutOfRange) {
  Database db = MakeDb();
  Executor ex(&db);
  ScanNode scan("Author", {{9, CompareOp::kEq, Value(int64_t{1})}});
  EXPECT_EQ(ex.Execute(scan).status().code(), StatusCode::kPlanError);
}

TEST(ExecutorTest, SelfJoinProducesCoAuthorPairs) {
  Database db = MakeDb();
  Executor ex(&db);
  // AuthorPub a JOIN AuthorPub b ON a.pid = b.pid
  HashJoinNode join(std::make_unique<ScanNode>("AuthorPub"),
                    std::make_unique<ScanNode>("AuthorPub"), 1, 1);
  auto rs = ex.Execute(join);
  ASSERT_TRUE(rs.ok());
  // Pub 10: 2x2, pub 20: 2x2, pub 30: 1x1 => 9 joined rows.
  EXPECT_EQ(rs->NumRows(), 9u);
  EXPECT_EQ(rs->schema.NumColumns(), 4u);
}

TEST(ExecutorTest, JoinThenDistinctProject) {
  Database db = MakeDb();
  Executor ex(&db);
  auto join = std::make_unique<HashJoinNode>(
      std::make_unique<ScanNode>("AuthorPub"),
      std::make_unique<ScanNode>("AuthorPub"), 1, 1);
  ProjectNode project(std::move(join), {0, 2}, {"ID1", "ID2"}, true);
  auto rs = ex.Execute(project);
  ASSERT_TRUE(rs.ok());
  // Distinct (a, b) pairs incl. self pairs: (1,1),(1,2),(2,1),(2,2),
  // (2,3),(3,2),(3,3) => 7.
  EXPECT_EQ(rs->NumRows(), 7u);
  EXPECT_EQ(rs->schema.column(0).name, "ID1");
}

TEST(ExecutorTest, JoinSkipsNullKeys) {
  Database db;
  Table t("T", Schema({{"k", ValueType::kInt64}}));
  t.AppendUnchecked({Value()});
  t.AppendUnchecked({Value(int64_t{1})});
  db.PutTable(std::move(t));
  Executor ex(&db);
  HashJoinNode join(std::make_unique<ScanNode>("T"),
                    std::make_unique<ScanNode>("T"), 0, 0);
  auto rs = ex.Execute(join);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->NumRows(), 1u);  // only the non-null key matches
}

TEST(ExecutorTest, ProjectWithoutDistinctKeepsDuplicates) {
  Database db = MakeDb();
  Executor ex(&db);
  ProjectNode project(std::make_unique<ScanNode>("AuthorPub"), {1}, {"pid"},
                      false);
  auto rs = ex.Execute(project);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->NumRows(), 5u);
}

TEST(ExecutorTest, ProjectDistinctDeduplicates) {
  Database db = MakeDb();
  Executor ex(&db);
  ProjectNode project(std::make_unique<ScanNode>("AuthorPub"), {1}, {"pid"},
                      true);
  auto rs = ex.Execute(project);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->NumRows(), 3u);
}

TEST(ExecutorTest, ProjectColumnOutOfRange) {
  Database db = MakeDb();
  Executor ex(&db);
  ProjectNode project(std::make_unique<ScanNode>("Author"), {5}, {}, false);
  EXPECT_EQ(ex.Execute(project).status().code(), StatusCode::kPlanError);
}

TEST(ExecutorTest, JoinQualifiesDuplicateColumnNames) {
  Database db = MakeDb();
  Executor ex(&db);
  HashJoinNode join(std::make_unique<ScanNode>("AuthorPub"),
                    std::make_unique<ScanNode>("AuthorPub"), 1, 1);
  auto rs = ex.Execute(join);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->schema.NumColumns(), 4u);
  EXPECT_EQ(rs->schema.column(0).name, "aid");
  EXPECT_EQ(rs->schema.column(1).name, "pid");
  // Right side of a self-join is qualified with its base table name.
  EXPECT_EQ(rs->schema.column(2).name, "AuthorPub.aid");
  EXPECT_EQ(rs->schema.column(3).name, "AuthorPub.pid");
  // Name lookup is now unambiguous.
  EXPECT_EQ(rs->schema.IndexOf("aid"), std::optional<size_t>{0});
  EXPECT_EQ(rs->schema.IndexOf("AuthorPub.aid"), std::optional<size_t>{2});
}

TEST(ExecutorTest, ThreeWaySelfJoinStaysUnambiguous) {
  Database db = MakeDb();
  Executor ex(&db);
  auto inner = std::make_unique<HashJoinNode>(
      std::make_unique<ScanNode>("AuthorPub"),
      std::make_unique<ScanNode>("AuthorPub"), 1, 1);
  HashJoinNode outer(std::move(inner), std::make_unique<ScanNode>("AuthorPub"),
                     1, 1);
  auto rs = ex.Execute(outer);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->schema.NumColumns(), 6u);
  // Even the third copy gets a deterministic unique name.
  EXPECT_EQ(rs->schema.column(4).name, "AuthorPub.aid#2");
  EXPECT_EQ(rs->schema.column(5).name, "AuthorPub.pid#2");
  std::unordered_set<std::string> names;
  for (size_t c = 0; c < rs->schema.NumColumns(); ++c) {
    EXPECT_TRUE(names.insert(rs->schema.column(c).name).second);
  }
}

// At any thread count the join emits in probe order (the right input
// here, the larger side) with build matches in ascending row order, and
// DISTINCT keeps first occurrences — checked against a per-key loop.
TEST(ExecutorTest, LargeJoinMatchesPerKeyExpectation) {
  Database db;
  Table t("R", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}));
  // 30k rows, keys with skewed multiplicity, some NULLs — big enough to
  // cross every parallel threshold.
  auto key = [](int64_t i) { return i % 7 == 0 ? Value() : Value(i % 997); };
  for (int64_t i = 0; i < 30000; ++i) t.AppendUnchecked({key(i), Value(i)});
  db.PutTable(std::move(t));

  auto join = std::make_unique<HashJoinNode>(
      std::make_unique<ScanNode>("R", std::vector<Predicate>{
                                          {1, CompareOp::kLt,
                                           Value(int64_t{20000})}}),
      std::make_unique<ScanNode>("R"), 0, 0);
  ProjectNode plan(std::move(join), std::vector<size_t>{0, 3},
                   std::vector<std::string>{"a", "b"}, /*distinct=*/true);

  // Every left row with key k projects to the same (k, v_right) pair, so
  // each right row whose key occurs on the left survives exactly once.
  std::unordered_set<int64_t> left_keys;
  for (int64_t i = 0; i < 20000; ++i) {
    if (!key(i).is_null()) left_keys.insert(key(i).AsInt64());
  }
  std::vector<rel::Row> want;
  for (int64_t j = 0; j < 30000; ++j) {
    if (!key(j).is_null() && left_keys.contains(key(j).AsInt64())) {
      want.push_back({key(j), Value(j)});
    }
  }
  ASSERT_GT(want.size(), 0u);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    Executor ex(&db, {.threads = threads});
    auto rs = ex.Execute(plan);
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs->schema.NumColumns(), 2u);
    EXPECT_EQ(rs->schema.column(0).name, "a");
    EXPECT_EQ(rs->schema.column(1).name, "b");
    EXPECT_EQ(rs->rows, want) << "threads=" << threads;
  }
}

TEST(ExecutorTest, ExecuteColumnarIsLazyUntilMaterialize) {
  Database db = MakeDb();
  Executor ex(&db);
  ProjectNode project(std::make_unique<ScanNode>("AuthorPub"), {1}, {"pid"},
                      false);
  auto columnar = ex.ExecuteColumnar(project);
  ASSERT_TRUE(columnar.ok());
  // One source table, no value copies: the tuples are row ids.
  EXPECT_EQ(columnar->Width(), 1u);
  EXPECT_EQ(columnar->NumRows(), 5u);
  EXPECT_EQ(columnar->ValueAt(2, 0).AsInt64(), 20);
  ResultSet rs = columnar->Materialize();
  EXPECT_EQ(rs.NumRows(), 5u);
  EXPECT_EQ(rs.rows[2][0].AsInt64(), 20);
  EXPECT_EQ(rs.schema.column(0).name, "pid");
}

// Runs `plan` serially and on 4 threads; both must return exactly `want`,
// in order.
void ExpectRows(const Database& db, const PlanNode& plan,
                const std::vector<rel::Row>& want) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    Executor ex(&db, {.threads = threads});
    auto rs = ex.Execute(plan);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->rows, want) << "threads=" << threads;
  }
}

TEST(ExecutorTest, DictStringJoinMatchesOnInternedKeys) {
  Database db;
  Table people("P", Schema({{"id", ValueType::kString},
                            {"city", ValueType::kString}}));
  people.AppendUnchecked({Value("ann"), Value("nyc")});
  people.AppendUnchecked({Value("bob"), Value("sfo")});
  people.AppendUnchecked({Value("cat"), Value("nyc")});
  people.AppendUnchecked({Value(), Value("nyc")});  // NULL joins nothing
  db.PutTable(std::move(people));
  Table visits("V", Schema({{"pid", ValueType::kString},
                            {"site", ValueType::kInt64}}));
  visits.AppendUnchecked({Value("bob"), Value(int64_t{1})});
  visits.AppendUnchecked({Value("ann"), Value(int64_t{2})});
  visits.AppendUnchecked({Value("zed"), Value(int64_t{3})});  // dangling
  visits.AppendUnchecked({Value(), Value(int64_t{4})});
  db.PutTable(std::move(visits));

  // Dictionary join kernel: probe codes translate into the build dict.
  HashJoinNode join(std::make_unique<ScanNode>("P"),
                    std::make_unique<ScanNode>("V"), 0, 0);
  ExpectRows(db, join,
             {{Value("bob"), Value("sfo"), Value("bob"), Value(int64_t{1})},
              {Value("ann"), Value("nyc"), Value("ann"), Value(int64_t{2})}});
}

TEST(ExecutorTest, CrossTypeKeyColumnsJoinEmpty) {
  // Value equality never crosses int64/string/double: a join between an
  // int64 column and a string column (or double column) has no matches.
  Database db;
  Table ints("I", Schema({{"k", ValueType::kInt64}}));
  ints.AppendUnchecked({Value(int64_t{1})});
  db.PutTable(std::move(ints));
  Table strs("S", Schema({{"k", ValueType::kString}}));
  strs.AppendUnchecked({Value("1")});
  db.PutTable(std::move(strs));
  Table dbls("D", Schema({{"k", ValueType::kDouble}}));
  dbls.AppendUnchecked({Value(1.0)});
  db.PutTable(std::move(dbls));

  for (const char* right : {"S", "D"}) {
    HashJoinNode join(std::make_unique<ScanNode>("I"),
                      std::make_unique<ScanNode>(right), 0, 0);
    SCOPED_TRACE(right);
    ExpectRows(db, join, {});
  }
}

TEST(ExecutorTest, MixedKeyColumnFallsBackToGenericJoin) {
  // A column holding both int64 and string keys (mixed encoding) joins
  // through the generic Value kernel: int cells match int columns, the
  // string cells match nothing there.
  Database db;
  Table mixed("M", Schema({{"k", ValueType::kString}}));
  mixed.AppendUnchecked({Value(int64_t{1})});
  mixed.AppendUnchecked({Value("one")});
  mixed.AppendUnchecked({Value(int64_t{2})});
  mixed.AppendUnchecked({Value()});
  db.PutTable(std::move(mixed));
  Table ints("I", Schema({{"k", ValueType::kInt64}}));
  ints.AppendUnchecked({Value(int64_t{1})});
  ints.AppendUnchecked({Value(int64_t{3})});
  db.PutTable(std::move(ints));

  HashJoinNode join(std::make_unique<ScanNode>("M"),
                    std::make_unique<ScanNode>("I"), 0, 0);
  ExpectRows(db, join, {{Value(int64_t{1}), Value(int64_t{1})}});
}

TEST(ExecutorTest, NullBitmapRespectedInFiltersAndJoins) {
  Database db;
  Table t("T", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}));
  for (int64_t i = 0; i < 100; ++i) {
    t.AppendUnchecked({i % 3 == 0 ? Value() : Value(i % 5), Value(i)});
  }
  db.PutTable(std::move(t));

  // NULL < int in the total order, so kLt matches NULL rows; kEq and kGt
  // do not.
  auto key = [](int64_t i) { return i % 3 == 0 ? Value() : Value(i % 5); };
  std::vector<rel::Row> lt_rows;
  std::vector<rel::Row> eq_rows;
  for (int64_t i = 0; i < 100; ++i) {
    if (key(i).is_null() || key(i).AsInt64() < 2) {
      lt_rows.push_back({key(i), Value(i)});
    }
    if (key(i) == Value(int64_t{2})) eq_rows.push_back({key(i), Value(i)});
  }
  ScanNode lt("T", {{0, CompareOp::kLt, Value(int64_t{2})}});
  ScanNode eq("T", {{0, CompareOp::kEq, Value(int64_t{2})}});
  ExpectRows(db, lt, lt_rows);
  ExpectRows(db, eq, eq_rows);

  // Self-join drops every NULL key on both sides: probe rows in order,
  // each with its build matches in ascending row order.
  std::vector<rel::Row> join_rows;
  for (int64_t j = 0; j < 100; ++j) {
    for (int64_t i = 0; i < 100; ++i) {
      if (!key(j).is_null() && key(i) == key(j)) {
        join_rows.push_back({key(i), Value(i), key(j), Value(j)});
      }
    }
  }
  HashJoinNode join(std::make_unique<ScanNode>("T"),
                    std::make_unique<ScanNode>("T"), 0, 0);
  ExpectRows(db, join, join_rows);
}

TEST(ExecutorTest, SemiJoinFilterDropsNonMembers) {
  Database db = MakeDb();
  auto keys = std::make_shared<KeyFilter>();
  keys->ints = {1, 3};
  auto scan = std::make_unique<ScanNode>("AuthorPub");
  scan->AddSemiJoin(0, keys);
  // aid 2 rows dropped.
  ExpectRows(db, *scan,
             {{Value(int64_t{1}), Value(int64_t{10})},
              {Value(int64_t{3}), Value(int64_t{20})},
              {Value(int64_t{3}), Value(int64_t{30})}});
  EXPECT_NE(scan->ToSql().find("IN (SELECT key FROM Nodes)"),
            std::string::npos);
}

TEST(ExecutorTest, SemiJoinFilterOnDictColumn) {
  Database db;
  Table t("T", Schema({{"who", ValueType::kString}}));
  for (const char* w : {"ann", "bob", "ann", "cat", "zed"}) {
    t.AppendUnchecked({Value(w)});
  }
  t.AppendUnchecked({Value()});
  db.PutTable(std::move(t));
  auto keys = std::make_shared<KeyFilter>();
  keys->strings = {"ann", "cat"};
  auto scan = std::make_unique<ScanNode>("T");
  scan->AddSemiJoin(0, keys);
  ExpectRows(db, *scan, {{Value("ann")}, {Value("ann")}, {Value("cat")}});
}

// The fused morsel pipeline (DISTINCT directly above a hash join) must be
// indistinguishable from the unfused operator chain: same survivors, same
// order, same row-id tuples — for every thread count and key encoding.
TEST(ExecutorTest, FusedJoinDistinctMatchesUnfusedBitwise) {
  Database db;
  Table t("R", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}));
  // Skewed key multiplicity, NULL keys, enough rows to cross the parallel
  // probe/DISTINCT thresholds; v % 41 makes the projected pairs repeat so
  // DISTINCT actually drops most of the join output.
  for (int64_t i = 0; i < 30000; ++i) {
    t.AppendUnchecked(
        {i % 11 == 0 ? Value() : Value(i % 499), Value(i % 41)});
  }
  db.PutTable(std::move(t));

  auto join = std::make_unique<HashJoinNode>(
      std::make_unique<ScanNode>("R"), std::make_unique<ScanNode>("R"), 0, 0);
  ProjectNode plan(std::move(join), std::vector<size_t>{1, 3},
                   std::vector<std::string>{"a", "b"}, /*distinct=*/true);

  Executor unfused(&db, {.threads = 1, .fuse_join_distinct = false});
  auto oracle = unfused.ExecuteColumnar(plan);
  ASSERT_TRUE(oracle.ok());
  ASSERT_GT(oracle->NumRows(), 0u);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    // fuse_min_output_bytes = 0 forces the morsel pipeline regardless of
    // the estimated output size; the default (adaptive) config is also
    // checked — it must be identical whichever branch it picks.
    for (size_t min_bytes : {size_t{0}, (size_t{32} << 20)}) {
      Executor fused(&db, {.threads = threads,
                           .fuse_join_distinct = true,
                           .fuse_min_output_bytes = min_bytes});
      auto got = fused.ExecuteColumnar(plan);
      ASSERT_TRUE(got.ok()) << "threads=" << threads;
      // Row-id tuples are the strongest equality: identical survivors in
      // identical order over identical bindings.
      EXPECT_EQ(got->tuples, oracle->tuples)
          << "threads=" << threads << " min_bytes=" << min_bytes;
      EXPECT_EQ(got->Materialize().rows, oracle->Materialize().rows);
    }
  }
}

TEST(ExecutorTest, FusedJoinDistinctOnDictAndMixedKeys) {
  Database db;
  Table t("S", Schema({{"who", ValueType::kString},
                       {"topic", ValueType::kString}}));
  for (int i = 0; i < 5000; ++i) {
    t.AppendUnchecked({i % 13 == 0 ? Value() : Value("p" + std::to_string(i % 37)),
                       Value("t" + std::to_string(i % 7))});
  }
  db.PutTable(std::move(t));
  Table m("M", Schema({{"k", ValueType::kString}}));
  m.AppendUnchecked({Value("p1")});
  m.AppendUnchecked({Value(int64_t{4})});  // converts the column to mixed
  m.AppendUnchecked({Value("p2")});
  db.PutTable(std::move(m));

  for (const char* right : {"S", "M"}) {
    auto join = std::make_unique<HashJoinNode>(
        std::make_unique<ScanNode>("S"), std::make_unique<ScanNode>(right), 0,
        0);
    ProjectNode plan(std::move(join), std::vector<size_t>{0, 1},
                     std::vector<std::string>{"a", "b"}, /*distinct=*/true);
    Executor unfused(&db, {.threads = 4, .fuse_join_distinct = false});
    Executor fused(&db, {.threads = 4,
                         .fuse_join_distinct = true,
                         .fuse_min_output_bytes = 0});
    auto want = unfused.ExecuteColumnar(plan);
    auto got = fused.ExecuteColumnar(plan);
    ASSERT_TRUE(want.ok() && got.ok()) << right;
    EXPECT_EQ(got->tuples, want->tuples) << right;
  }
}

TEST(ExecutorTest, FusedJoinDistinctEmptyAndImpossibleJoins) {
  Database db;
  Table a("A", Schema({{"k", ValueType::kInt64}}));
  a.AppendUnchecked({Value(int64_t{1})});
  db.PutTable(std::move(a));
  Table b("B", Schema({{"k", ValueType::kString}}));
  b.AppendUnchecked({Value("x")});
  db.PutTable(std::move(b));

  // int64 ⋈ string can never match; the fused path must still return the
  // correct (empty) result with the correct schema.
  auto join = std::make_unique<HashJoinNode>(
      std::make_unique<ScanNode>("A"), std::make_unique<ScanNode>("B"), 0, 0);
  ProjectNode plan(std::move(join), std::vector<size_t>{0, 1},
                   std::vector<std::string>{"a", "b"}, /*distinct=*/true);
  Executor ex(&db, {.fuse_join_distinct = true, .fuse_min_output_bytes = 0});
  auto rs = ex.Execute(plan);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->NumRows(), 0u);
  EXPECT_EQ(rs->schema.NumColumns(), 2u);
}

TEST(PlanSqlTest, RendersReadableSql) {
  ScanNode scan("AuthorPub", {{1, CompareOp::kEq, Value(int64_t{10})}});
  EXPECT_EQ(scan.ToSql(), "SELECT * FROM AuthorPub WHERE $1 = 10");

  auto join = std::make_unique<HashJoinNode>(
      std::make_unique<ScanNode>("A"), std::make_unique<ScanNode>("B"), 1, 0);
  EXPECT_NE(join->ToSql().find("JOIN"), std::string::npos);

  ProjectNode project(std::move(join), {0, 2}, {"src", "dst"}, true);
  std::string sql = project.ToSql();
  EXPECT_NE(sql.find("SELECT DISTINCT"), std::string::npos);
  EXPECT_NE(sql.find("AS src"), std::string::npos);
}

TEST(PlanSqlTest, CompareOpStrings) {
  EXPECT_EQ(CompareOpToString(CompareOp::kEq), "=");
  EXPECT_EQ(CompareOpToString(CompareOp::kNe), "<>");
  EXPECT_EQ(CompareOpToString(CompareOp::kLe), "<=");
}

}  // namespace
}  // namespace graphgen::query
