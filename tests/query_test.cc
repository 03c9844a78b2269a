#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <unordered_set>

#include "fused_join_input.h"
#include "obs/metrics.h"
#include "query/executor.h"

namespace graphgen::query {
namespace {

using rel::Database;
using rel::Schema;
using rel::Table;
using rel::Value;
using rel::ValueType;

ExecOptions WithThreads(size_t threads) {
  ExecOptions options;
  options.threads = threads;
  return options;
}

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
    Executor ex(&db, WithThreads(threads));
    auto rs = ex.Execute(plan);
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs->schema.NumColumns(), 2u);
    EXPECT_EQ(rs->schema.column(0).name, "a");
    EXPECT_EQ(rs->schema.column(1).name, "b");
    EXPECT_EQ(rs->rows, want) << "threads=" << threads;
  }
}

// The DISTINCT sets seed at 64K keys (131,072 slots) and grow past 7/8
// load, i.e. at 114,688 keys; the join tables are presized for their
// build keys. 120,000 keys, each on two rows, make the single-partition
// DISTINCT grow and give the join tables as many keys. Both are checked
// against ordered-container oracles at 1 and 4 threads.
TEST(ExecutorTest, LargeKeySetsGrowAndMatchOracle) {
  constexpr int64_t kKeys = 120000;
  Database db;
  Table t("G", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}));
  // Rows [0, kKeys) visit every key once in a scattered order; rows
  // [kKeys, 2 kKeys) repeat it.
  auto key = [](int64_t i) { return (i * 7919) % kKeys; };
  for (int64_t i = 0; i < 2 * kKeys; ++i) {
    t.AppendUnchecked({Value(key(i)), Value(i)});
  }
  db.PutTable(std::move(t));

  ProjectNode distinct(std::make_unique<ScanNode>("G"), std::vector<size_t>{0},
                       std::vector<std::string>{"k"}, /*distinct=*/true);
  std::vector<uint32_t> want_distinct;
  std::set<int64_t> seen;
  for (int64_t i = 0; i < 2 * kKeys; ++i) {
    if (seen.insert(key(i)).second) {
      want_distinct.push_back(static_cast<uint32_t>(i));
    }
  }
  ASSERT_EQ(want_distinct.size(), static_cast<size_t>(kKeys));

  // Equal inputs build left; output follows probe (right) row order with
  // each key's build rows ascending.
  HashJoinNode join(std::make_unique<ScanNode>("G"),
                    std::make_unique<ScanNode>("G"), 0, 0);
  std::map<int64_t, std::vector<uint32_t>> rows_by_key;
  for (int64_t i = 0; i < 2 * kKeys; ++i) {
    rows_by_key[key(i)].push_back(static_cast<uint32_t>(i));
  }
  std::vector<uint32_t> want_join;
  for (int64_t pr = 0; pr < 2 * kKeys; ++pr) {
    for (uint32_t br : rows_by_key[key(pr)]) {
      want_join.push_back(br);
      want_join.push_back(static_cast<uint32_t>(pr));
    }
  }

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    Executor ex(&db, WithThreads(threads));
    auto d = ex.ExecuteColumnar(distinct);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(d->tuples, want_distinct);
    auto j = ex.ExecuteColumnar(join);
    ASSERT_TRUE(j.ok()) << j.status().ToString();
    EXPECT_EQ(j->tuples, want_join);
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
    Executor ex(&db, WithThreads(threads));
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

// A DISTINCT directly over a hash join takes the fused pipeline exactly
// when the join's output crosses the executor's 32 MB threshold — no
// option selects it. On inputs that just cross it, the fused branch must
// run, give bitwise-identical row-id tuples at every thread count (1: one
// range, 4: serial cross-range merge, 8: partitioned merge), and produce
// exactly the tuple set a per-key loop computes from the table. The cases
// cover every typed-key instantiation (int64, double, same-dictionary and
// cross-dictionary strings, the mixed-encoding Value fallback), NULL keys,
// and a left-deep plan whose probe side is itself a join and whose
// DISTINCT is three columns wide, one of them dictionary strings.
TEST(ExecutorTest, FusedJoinDistinctEngagesPastThreshold) {
  obs::Counter* fused_runs =
      obs::MetricsRegistry::Global().GetCounter("query.fused_pipelines");
  using Encoding = rel::ColumnVector::Encoding;
  using testing::HubKey;
  struct Case {
    const char* name;
    HubKey key;
    Encoding encoding;  // the key column's physical encoding
    const char* right;  // the Hub self-join's right table
    bool left_deep;     // (Hub ⋈ right) ⋈ Member, DISTINCT (a, b, name)
  };
  for (const Case& c :
       {Case{"int64", HubKey::kInt64, Encoding::kInt64, "Hub", false},
        Case{"double", HubKey::kDouble, Encoding::kDouble, "Hub", false},
        Case{"string", HubKey::kString, Encoding::kDictString, "Hub", false},
        Case{"cross-dictionary", HubKey::kString, Encoding::kDictString,
             "HubR", false},
        Case{"mixed", HubKey::kMixed, Encoding::kMixed, "Hub", false},
        Case{"left-deep", HubKey::kInt64, Encoding::kInt64, "Hub", true}}) {
    SCOPED_TRACE(c.name);
    Database db;
    testing::PutHubTables(db, c.key);
    const Table* hub = *db.GetTable("Hub");
    const Table* right = *db.GetTable(c.right);
    ASSERT_EQ(hub->column(1).encoding(), c.encoding);
    ASSERT_EQ(right->column(1).encoding(), c.encoding);
    if (c.encoding == Encoding::kDictString) {
      // HubR's reversed rows give it its own, differently ordered
      // dictionary.
      EXPECT_EQ(hub->column(1).dict().Find("g1") ==
                    right->column(1).dict().Find("g1"),
                hub == right);
    }

    // Oracle: per key, the ids that carry it; the DISTINCT output is the
    // union of ids(k) x ids(k), with b's Member name in the left-deep
    // case. NULL keys join nothing. HubR holds the same rows, so the
    // cross-dictionary join has the self-join's output.
    std::map<Value, std::set<int64_t>> ids_by_key;
    std::map<Value, size_t> rows_by_key;
    for (size_t i = 0; i < hub->NumRows(); ++i) {
      const rel::Row row = hub->row(i);
      if (row[1].is_null()) continue;
      ids_by_key[row[1]].insert(row[0].AsInt64());
      ++rows_by_key[row[1]];
    }
    size_t matches = 0;
    for (const auto& [k, n] : rows_by_key) matches += n * n;
    std::set<rel::Row> want;
    for (const auto& [k, ids] : ids_by_key) {
      for (int64_t a : ids) {
        for (int64_t b : ids) {
          if (c.left_deep) {
            want.insert({Value(a), Value(b), Value("m" + std::to_string(b))});
          } else {
            want.insert({Value(a), Value(b)});
          }
        }
      }
    }
    // The input is sized to just cross the threshold; every keyed id has
    // exactly one Member row, so the left-deep join keeps every match.
    const size_t width = c.left_deep ? 3 : 2;
    const size_t join_bytes = matches * width * sizeof(uint32_t);
    ASSERT_GE(join_bytes, size_t{32} << 20);
    ASSERT_LT(join_bytes, size_t{53} << 20);

    std::unique_ptr<PlanNode> join = std::make_unique<HashJoinNode>(
        std::make_unique<ScanNode>("Hub"), std::make_unique<ScanNode>(c.right),
        1, 1);
    std::vector<size_t> cols = {0, 2};
    std::vector<std::string> names = {"a", "b"};
    if (c.left_deep) {
      join = std::make_unique<HashJoinNode>(
          std::move(join), std::make_unique<ScanNode>("Member"), 2, 0);
      cols.push_back(5);
      names.push_back("name");
    }
    ProjectNode plan(std::move(join), cols, names, /*distinct=*/true);
    std::optional<std::vector<uint32_t>> baseline;
    for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
      const uint64_t before = fused_runs->Value();
      auto got = Executor(&db, WithThreads(threads)).ExecuteColumnar(plan);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(fused_runs->Value(), before + 1) << "threads=" << threads;
      if (!baseline.has_value()) {
        baseline = got->tuples;
        const ResultSet rs = got->Materialize();
        const std::set<rel::Row> rows(rs.rows.begin(), rs.rows.end());
        EXPECT_EQ(rs.NumRows(), rows.size()) << "duplicate output rows";
        EXPECT_EQ(rows, want);
      } else {
        EXPECT_EQ(got->tuples, *baseline) << "threads=" << threads;
      }
    }
  }
}

// The fused pipeline's cross-range merge sets are charged to the request
// budget like its per-range sets. Measure the peak of an untracked-limit
// run, then grant one byte less: the per-range sets still fit, and the
// merge (the last and only charge on top of them) must be refused.
TEST(ExecutorTest, FusedMergeSetsAreCharged) {
  Database db;
  testing::PutHubTables(db, testing::HubKey::kInt64);
  auto join = std::make_unique<HashJoinNode>(
      std::make_unique<ScanNode>("Hub"), std::make_unique<ScanNode>("Hub"), 1,
      1);
  ProjectNode plan(std::move(join), std::vector<size_t>{0, 2},
                   std::vector<std::string>{"a", "b"}, /*distinct=*/true);

  ExecOptions tracked = WithThreads(4);
  tracked.ctx.budget = std::make_shared<MemoryBudget>(0);  // track only
  auto ok = Executor(&db, tracked).ExecuteColumnar(plan);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  const size_t peak = tracked.ctx.budget->peak();

  ExecOptions exact = WithThreads(4);
  exact.ctx.budget = std::make_shared<MemoryBudget>(peak);
  EXPECT_TRUE(Executor(&db, exact).ExecuteColumnar(plan).ok());

  ExecOptions tight = WithThreads(4);
  tight.ctx.budget = std::make_shared<MemoryBudget>(peak - 1);
  auto refused = Executor(&db, tight).ExecuteColumnar(plan);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().message().find("merge"), std::string::npos)
      << refused.status().ToString();
}

// Below the threshold the same operator materializes the join and runs
// the classic DISTINCT; dictionary and mixed-encoding keys must give the
// same tuples serially and in parallel.
TEST(ExecutorTest, JoinDistinctOnDictAndMixedKeys) {
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
    auto want = Executor(&db, WithThreads(1)).ExecuteColumnar(plan);
    auto got = Executor(&db, WithThreads(4)).ExecuteColumnar(plan);
    ASSERT_TRUE(want.ok() && got.ok()) << right;
    EXPECT_GT(want->NumRows(), 0u) << right;
    EXPECT_EQ(got->tuples, want->tuples) << right;
  }
}

TEST(ExecutorTest, JoinDistinctEmptyAndImpossibleJoins) {
  Database db;
  Table a("A", Schema({{"k", ValueType::kInt64}}));
  a.AppendUnchecked({Value(int64_t{1})});
  db.PutTable(std::move(a));
  Table b("B", Schema({{"k", ValueType::kString}}));
  b.AppendUnchecked({Value("x")});
  db.PutTable(std::move(b));

  // int64 ⋈ string can never match; DISTINCT over the join must still
  // return the correct (empty) result with the correct schema.
  auto join = std::make_unique<HashJoinNode>(
      std::make_unique<ScanNode>("A"), std::make_unique<ScanNode>("B"), 0, 0);
  ProjectNode plan(std::move(join), std::vector<size_t>{0, 1},
                   std::vector<std::string>{"a", "b"}, /*distinct=*/true);
  auto rs = Executor(&db).Execute(plan);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->NumRows(), 0u);
  EXPECT_EQ(rs->schema.NumColumns(), 2u);
}

// ------------------------------------------------- partition parity

// Key shapes for the partitioned operators: every row one key (one
// partition receives all of them), all keys distinct, an input of
// exactly the parallel DISTINCT threshold (1 << 13 rows) with repeats
// and NULLs, and all keys NULL.
enum class KeyShape { kOneKey, kAllDistinct, kAtThreshold, kAllNull };
using KeyEncoding = rel::ColumnVector::Encoding;

constexpr size_t kShapeRows = 12000;
constexpr size_t kDistinctThresholdRows = size_t{1} << 13;

size_t ShapeRows(KeyShape shape) {
  return shape == KeyShape::kAtThreshold ? kDistinctThresholdRows
                                         : kShapeRows;
}

// Body row i's key, or nullopt for NULL.
std::optional<int64_t> ShapeKey(KeyShape shape, size_t i) {
  switch (shape) {
    case KeyShape::kOneKey:
      return 7;
    case KeyShape::kAllDistinct:
      return static_cast<int64_t>(i);
    case KeyShape::kAtThreshold:
      if (i % 13 == 0) return std::nullopt;
      return static_cast<int64_t>((i * 7919) % 1000);
    case KeyShape::kAllNull:
      break;
  }
  return std::nullopt;
}

Value EncodeKey(KeyEncoding encoding, int64_t k) {
  return encoding == KeyEncoding::kDictString ? Value("s" + std::to_string(k))
                                              : Value(k);
}

// Table `name(k, v, id)`: two lead rows with v = -1 that fix the key
// column's encoding (int64, dictionary strings, or mixed: one string,
// then ints), then `rows` body rows with v = row index, id = v % 1000
// and keys from key(row). The scans below drop the lead rows (v >= 0),
// so even an all-NULL body keeps a typed key column and reaches the
// partitioned join build.
template <typename KeyFn>
void PutShapeTable(Database& db, const std::string& name,
                   KeyEncoding encoding, size_t rows, KeyFn key) {
  Table t(name, Schema({{"k", encoding == KeyEncoding::kInt64
                                  ? ValueType::kInt64
                                  : ValueType::kString},
                        {"v", ValueType::kInt64},
                        {"id", ValueType::kInt64}}));
  const Value lead = encoding == KeyEncoding::kInt64
                         ? Value(int64_t{-1})
                         : Value(std::string("lead"));
  const Value minus_one(int64_t{-1});
  t.AppendUnchecked({lead, minus_one, minus_one});
  t.AppendUnchecked(
      {encoding == KeyEncoding::kDictString ? Value(std::string("lead2"))
                                            : Value(int64_t{-2}),
       minus_one, minus_one});
  for (size_t i = 0; i < rows; ++i) {
    const std::optional<int64_t> k = key(i);
    const auto v = static_cast<int64_t>(i);
    t.AppendUnchecked({k.has_value() ? EncodeKey(encoding, *k) : Value(),
                       Value(v), Value(v % 1000)});
  }
  db.PutTable(std::move(t));
}

std::unique_ptr<ScanNode> BodyScan(const std::string& table) {
  return std::make_unique<ScanNode>(
      table, std::vector<Predicate>{{1, CompareOp::kGe, Value(int64_t{0})}});
}

double StatOf(const obs::ProfileNode& node, std::string_view key) {
  for (const auto& [k, v] : node.stats) {
    if (k == key) return v;
  }
  ADD_FAILURE() << node.name << " has no stat " << key;
  return -1;
}

// Forces the flight recorder on so operators fill their profile rows.
class ObsOn {
 public:
  ObsOn() : prev_(obs::Enabled()) { obs::SetEnabled(true); }
  ~ObsOn() { obs::SetEnabled(prev_); }

 private:
  bool prev_;
};

constexpr size_t kParityThreads[] = {2, 3, 4, 8, 16};

// Runs `plan` at 1 thread and at every parity thread count; the tuples
// must match the serial run bitwise. check(threads, op) then inspects
// the operator's profile row of each run.
template <typename Check>
void ExpectPartitionParity(const Database& db, const PlanNode& plan,
                           Check check) {
  ObsOn obs_on;
  obs::ProfileNode serial_root("root");
  auto serial = Executor(&db, WithThreads(1)).ExecuteColumnar(plan,
                                                              &serial_root);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial_root.children.size(), 1u);
  check(size_t{1}, serial_root.children.front());
  for (size_t threads : kParityThreads) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    obs::ProfileNode root("root");
    auto got = Executor(&db, WithThreads(threads)).ExecuteColumnar(plan,
                                                                   &root);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->tuples, serial->tuples);
    ASSERT_EQ(root.children.size(), 1u);
    check(threads, root.children.front());
  }
}

struct ShapeCase {
  KeyShape shape;
  KeyEncoding encoding;
  std::string name;
};

std::vector<ShapeCase> ShapeCases() {
  std::vector<ShapeCase> cases;
  for (KeyShape shape : {KeyShape::kOneKey, KeyShape::kAllDistinct,
                         KeyShape::kAtThreshold, KeyShape::kAllNull}) {
    for (KeyEncoding encoding : {KeyEncoding::kInt64, KeyEncoding::kDictString,
                                 KeyEncoding::kMixed}) {
      static const char* const kShapeNames[] = {"one-key", "distinct",
                                                "threshold", "all-null"};
      const char* encoding_name = encoding == KeyEncoding::kInt64 ? "int64"
                                  : encoding == KeyEncoding::kDictString
                                      ? "dict"
                                      : "mixed";
      cases.push_back({shape, encoding,
                       std::string(kShapeNames[static_cast<int>(shape)]) +
                           "/" + encoding_name});
    }
  }
  return cases;
}

// The partitioned DISTINCT (a project_distinct over a scan) keeps the
// serial survivors in the serial order at every partition count, and
// its profile row reports the partition fan-out and the largest
// partition: all rows when every key (or every NULL) hashes alike.
TEST(PartitionParityTest, UnfusedDistinct) {
  for (const ShapeCase& c : ShapeCases()) {
    SCOPED_TRACE(c.name);
    Database db;
    const size_t n = ShapeRows(c.shape);
    PutShapeTable(db, "P", c.encoding, n,
                  [&](size_t i) { return ShapeKey(c.shape, i); });
    ASSERT_EQ((*db.GetTable("P"))->column(0).encoding(), c.encoding);
    ProjectNode plan(BodyScan("P"), std::vector<size_t>{0},
                     std::vector<std::string>{"k"}, /*distinct=*/true);
    ExpectPartitionParity(db, plan, [&](size_t threads,
                                        const obs::ProfileNode& op) {
      EXPECT_EQ(op.name, "project_distinct");
      EXPECT_EQ(StatOf(op, "distinct_in"), static_cast<double>(n));
      const size_t parts = threads == 1 ? 1 : std::min<size_t>(threads, 16);
      EXPECT_EQ(StatOf(op, "distinct_partitions"),
                static_cast<double>(parts));
      const double most = StatOf(op, "distinct_partition_rows_max");
      if (c.shape == KeyShape::kOneKey || c.shape == KeyShape::kAllNull ||
          parts == 1) {
        EXPECT_EQ(most, static_cast<double>(n));
      } else {
        EXPECT_GE(most, static_cast<double>(n) / static_cast<double>(parts));
        EXPECT_LT(most, static_cast<double>(n));
      }
    });
  }
}

// The partitioned build of a materializing join: P (the build side, by
// the tie rule) joins Q, whose every 256th row carries a P key and whose
// other rows are NULL. Output follows probe order with ascending build
// chains at every partition count; an all-NULL build scatters no row.
TEST(PartitionParityTest, MaterializingJoin) {
  for (const ShapeCase& c : ShapeCases()) {
    SCOPED_TRACE(c.name);
    Database db;
    const size_t n = ShapeRows(c.shape);
    auto key = [&](size_t i) { return ShapeKey(c.shape, i); };
    PutShapeTable(db, "P", c.encoding, n, key);
    PutShapeTable(db, "Q", c.encoding, n, [&](size_t j) {
      return j % 256 == 0 ? key((j * 7919) % n) : std::nullopt;
    });
    size_t build_keys = 0;
    for (size_t i = 0; i < n; ++i) build_keys += key(i).has_value() ? 1 : 0;
    HashJoinNode plan(BodyScan("P"), BodyScan("Q"), 0, 0);
    ExpectPartitionParity(db, plan, [&](size_t threads,
                                        const obs::ProfileNode& op) {
      EXPECT_EQ(op.name, "hash_join");
      const size_t parts = threads == 1 ? 1 : std::min<size_t>(threads, 16);
      EXPECT_EQ(StatOf(op, "partitions"), static_cast<double>(parts));
      const double most = StatOf(op, "partition_rows_max");
      if (c.shape == KeyShape::kOneKey || c.shape == KeyShape::kAllNull ||
          parts == 1) {
        EXPECT_EQ(most, static_cast<double>(build_keys));
      } else {
        EXPECT_LT(most, static_cast<double>(build_keys));
      }
    });
  }
}

// The fused join→DISTINCT, for int64, dictionary and mixed keys with
// NULLs, over two inputs of ~4.3M matches (past the fusion threshold):
// - the Hub tables, whose (a, b) pairs repeat so much that the
//   cross-range merge is partitioned only from 8 threads on;
// - a self-join of 9000 rows in 16 key groups, every 13th key NULL,
//   projecting (a.id, b.id): ~200K distinct pairs, so the merge is
//   partitioned at every thread count above one.
// Per-range sets and merge give the serial tuples at every thread count.
TEST(PartitionParityTest, FusedJoinDistinct) {
  obs::Counter* fused_runs =
      obs::MetricsRegistry::Global().GetCounter("query.fused_pipelines");
  using testing::HubKey;
  const std::pair<KeyEncoding, HubKey> keys[] = {
      {KeyEncoding::kInt64, HubKey::kInt64},
      {KeyEncoding::kDictString, HubKey::kString},
      {KeyEncoding::kMixed, HubKey::kMixed}};
  for (const auto& [encoding, hub_key] : keys) {
    SCOPED_TRACE(static_cast<int>(encoding));
    Database db;
    testing::PutHubTables(db, hub_key);
    PutShapeTable(db, "F", encoding, 9000, [](size_t i) {
      return i % 13 == 0 ? std::nullopt
                         : std::optional<int64_t>(static_cast<int64_t>(i % 16));
    });
    ProjectNode hub(std::make_unique<HashJoinNode>(
                        std::make_unique<ScanNode>("Hub"),
                        std::make_unique<ScanNode>("Hub"), 1, 1),
                    std::vector<size_t>{0, 2},
                    std::vector<std::string>{"a", "b"}, /*distinct=*/true);
    ProjectNode wide(std::make_unique<HashJoinNode>(BodyScan("F"),
                                                    BodyScan("F"), 0, 0),
                     std::vector<size_t>{2, 5},
                     std::vector<std::string>{"a", "b"}, /*distinct=*/true);
    const uint64_t before = fused_runs->Value();
    ExpectPartitionParity(db, hub, [&](size_t threads,
                                       const obs::ProfileNode& op) {
      EXPECT_EQ(op.name, "join_distinct");
      EXPECT_EQ(StatOf(op, "distinct_partitions"),
                threads < 8 ? 1.0 : std::min<double>(threads, 16));
    });
    ExpectPartitionParity(db, wide, [&](size_t threads,
                                        const obs::ProfileNode& op) {
      EXPECT_EQ(op.name, "join_distinct");
      const size_t parts = threads == 1 ? 1 : std::min<size_t>(threads, 16);
      EXPECT_EQ(StatOf(op, "partitions"), static_cast<double>(parts));
      EXPECT_EQ(StatOf(op, "distinct_partitions"),
                static_cast<double>(parts));
      EXPECT_GT(StatOf(op, "distinct_partition_rows_max"), 0.0);
    });
    EXPECT_EQ(fused_runs->Value(),
              before + 2 * (1 + std::size(kParityThreads)));
  }
}

// The serial DISTINCT charges its hash array, slot tables and keep bytes
// in one piece, and the measured peak is exactly what the operator needs:
// the peak passes, one byte less is refused.
TEST(ExecutorTest, SerialDistinctScratchIsCharged) {
  Database db;
  PutShapeTable(db, "P", KeyEncoding::kInt64, kShapeRows,
                [](size_t i) { return ShapeKey(KeyShape::kAtThreshold, i); });
  ProjectNode plan(BodyScan("P"), std::vector<size_t>{0},
                   std::vector<std::string>{"k"}, /*distinct=*/true);
  ExecOptions tracked = WithThreads(1);
  tracked.ctx.budget = std::make_shared<MemoryBudget>(0);  // track only
  ASSERT_TRUE(Executor(&db, tracked).ExecuteColumnar(plan).ok());
  const size_t peak = tracked.ctx.budget->peak();
  EXPECT_GE(peak, kShapeRows * (sizeof(uint64_t) + 1));

  ExecOptions exact = WithThreads(1);
  exact.ctx.budget = std::make_shared<MemoryBudget>(peak);
  EXPECT_TRUE(Executor(&db, exact).ExecuteColumnar(plan).ok());

  ExecOptions tight = WithThreads(1);
  tight.ctx.budget = std::make_shared<MemoryBudget>(peak - 1);
  auto refused = Executor(&db, tight).ExecuteColumnar(plan);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().message().find("DISTINCT hash scratch"),
            std::string::npos)
      << refused.status().ToString();
}

// The partitioned DISTINCT charges its scatter order (4 bytes a row) on
// top of the serial path's scratch, keep bytes included, and the
// measured peak is exactly what the operator needs: the peak passes, one
// byte less is refused.
TEST(ExecutorTest, PartitionScratchIsCharged) {
  Database db;
  PutShapeTable(db, "P", KeyEncoding::kInt64, kShapeRows,
                [](size_t i) { return ShapeKey(KeyShape::kAtThreshold, i); });
  ProjectNode plan(BodyScan("P"), std::vector<size_t>{0},
                   std::vector<std::string>{"k"}, /*distinct=*/true);
  auto peak_at = [&](size_t threads) {
    ExecOptions tracked = WithThreads(threads);
    tracked.ctx.budget = std::make_shared<MemoryBudget>(0);  // track only
    EXPECT_TRUE(Executor(&db, tracked).ExecuteColumnar(plan).ok());
    return tracked.ctx.budget->peak();
  };
  const size_t serial_peak = peak_at(1);
  const size_t peak = peak_at(4);
  EXPECT_EQ(peak - serial_peak, kShapeRows * sizeof(uint32_t));

  ExecOptions exact = WithThreads(4);
  exact.ctx.budget = std::make_shared<MemoryBudget>(peak);
  EXPECT_TRUE(Executor(&db, exact).ExecuteColumnar(plan).ok());

  ExecOptions tight = WithThreads(4);
  tight.ctx.budget = std::make_shared<MemoryBudget>(peak - 1);
  auto refused = Executor(&db, tight).ExecuteColumnar(plan);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().message().find("DISTINCT partition scratch"),
            std::string::npos)
      << refused.status().ToString();
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
