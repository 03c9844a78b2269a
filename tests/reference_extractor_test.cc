// Pins the reference evaluator itself to hand-computed answers, so the
// oracle the extraction suites compare against is not just "whatever the
// extractor did". Also holds regression cases where the oracle caught the
// extractor diverging from the documented rule semantics.

#include "reference_extractor.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "datalog/parser.h"
#include "planner/extractor.h"
#include "relational/database.h"

namespace graphgen::testing {
namespace {

using rel::Schema;
using rel::Table;
using rel::Value;
using rel::ValueType;
using Edges = std::vector<std::pair<std::string, std::string>>;

Value I(int64_t v) { return Value(v); }

ReferenceGraph MustReference(const rel::Database& db,
                             const std::string& datalog) {
  auto program = dsl::Parse(datalog);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto ref = ReferenceExtract(db, *program);
  EXPECT_TRUE(ref.ok()) << ref.status().ToString();
  return std::move(ref).ValueOrDie();
}

// Figure 1: authors a1..a5 and pubs p1 = {a1, a2, a3, a4},
// p2 = {a1, a3, a4}, p3 = {a4, a5}; plus a dangling author 6, a NULL pub
// and a NULL author.
rel::Database Figure1Db() {
  rel::Database db;
  Table authors("Author", Schema({{"id", ValueType::kInt64},
                                  {"name", ValueType::kString}}));
  for (int64_t a = 1; a <= 5; ++a) {
    authors.AppendUnchecked({I(a), Value("a" + std::to_string(a))});
  }
  db.PutTable(std::move(authors));
  Table ap("AuthorPub", Schema({{"aid", ValueType::kInt64},
                                {"pid", ValueType::kInt64}}));
  const std::vector<std::pair<int64_t, int64_t>> rows = {
      {1, 1}, {2, 1}, {3, 1}, {4, 1}, {1, 2}, {3, 2},
      {4, 2}, {4, 3}, {5, 3}, {6, 3}};
  for (const auto& [a, p] : rows) ap.AppendUnchecked({I(a), I(p)});
  ap.AppendUnchecked({I(2), Value()});
  ap.AppendUnchecked({Value(), I(2)});
  db.PutTable(std::move(ap));
  db.AnalyzeAll();
  return db;
}

const char* kFigure1 =
    "Nodes(ID, Name) :- Author(ID, Name).\n"
    "Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P).";

TEST(ReferenceExtractorTest, Figure1CoAuthors) {
  const ReferenceGraph ref = MustReference(Figure1Db(), kFigure1);
  ASSERT_EQ(ref.nodes.size(), 5u);
  EXPECT_EQ(ref.nodes.at("3").at("Name"), "'a3'");
  const Edges want = {{"1", "2"}, {"1", "3"}, {"1", "4"}, {"2", "1"},
                      {"2", "3"}, {"2", "4"}, {"3", "1"}, {"3", "2"},
                      {"3", "4"}, {"4", "1"}, {"4", "2"}, {"4", "3"},
                      {"4", "5"}, {"5", "4"}};
  EXPECT_EQ(ref.edges, want);
}

TEST(ReferenceExtractorTest, ThreeAtomChainWithVariableComparison) {
  rel::Database db;
  Table people("P", Schema({{"id", ValueType::kInt64}}));
  for (int64_t p = 1; p <= 4; ++p) people.AppendUnchecked({I(p)});
  db.PutTable(std::move(people));
  Table r("R", Schema({{"a", ValueType::kInt64},
                       {"x", ValueType::kInt64},
                       {"t", ValueType::kInt64}}));
  r.AppendUnchecked({I(1), I(10), I(2000)});
  r.AppendUnchecked({I(2), I(20), I(2005)});
  r.AppendUnchecked({I(3), I(10), I(2010)});
  r.AppendUnchecked({I(4), Value(), I(1990)});  // NULL joins nothing
  db.PutTable(std::move(r));
  Table b("B", Schema({{"x", ValueType::kInt64}, {"y", ValueType::kInt64}}));
  b.AppendUnchecked({I(10), I(100)});
  b.AppendUnchecked({I(20), I(100)});
  b.AppendUnchecked({I(10), I(200)});
  db.PutTable(std::move(b));
  Table s("S", Schema({{"y", ValueType::kInt64},
                       {"b", ValueType::kInt64},
                       {"t", ValueType::kInt64}}));
  s.AppendUnchecked({I(100), I(4), I(2003)});
  s.AppendUnchecked({I(200), I(1), I(1999)});
  s.AppendUnchecked({I(100), I(2), I(2001)});
  db.PutTable(std::move(s));

  const ReferenceGraph ref = MustReference(
      db,
      "Nodes(ID) :- P(ID).\n"
      "Edges(A, Z) :- R(A, X, T1), B(X, Y), S(Y, Z, T2), T1 < T2.");
  EXPECT_EQ(ref.nodes.size(), 4u);
  const Edges want = {{"1", "2"}, {"1", "4"}};
  EXPECT_EQ(ref.edges, want);
}

// Rated(user, movie, score): a user's NULL score is a binding that
// COUNT(S) does not count.
rel::Database RatingsDb() {
  rel::Database db;
  Table users("U", Schema({{"id", ValueType::kInt64}}));
  for (int64_t u = 1; u <= 3; ++u) users.AppendUnchecked({I(u)});
  db.PutTable(std::move(users));
  Table rated("Rated", Schema({{"user", ValueType::kInt64},
                               {"movie", ValueType::kInt64},
                               {"score", ValueType::kInt64}}));
  rated.AppendUnchecked({I(1), I(100), I(5)});
  rated.AppendUnchecked({I(1), I(200), I(3)});
  rated.AppendUnchecked({I(1), I(300), Value()});
  rated.AppendUnchecked({I(2), I(100), I(4)});
  rated.AppendUnchecked({I(2), I(200), I(4)});
  rated.AppendUnchecked({I(2), I(300), I(1)});
  rated.AppendUnchecked({I(3), I(300), I(2)});
  rated.AppendUnchecked({I(3), I(100), Value()});
  db.PutTable(std::move(rated));
  db.AnalyzeAll();
  return db;
}

const char* kCountedRatings =
    "Nodes(ID) :- U(ID).\n"
    "Edges(A, B) :- Rated(A, M, S), Rated(B, M, T), COUNT(S) >= 2.";

TEST(ReferenceExtractorTest, CountIgnoresNullBindings) {
  // 1→2 counts scores {5, 3}; 1→3 only {5} (the NULL on movie 300 does
  // not count); 2→1 {4, 1}; 2→3 {1, 4}; 3→* only {2}.
  const ReferenceGraph ref = MustReference(RatingsDb(), kCountedRatings);
  const Edges want = {{"1", "2"}, {"2", "1"}, {"2", "3"}};
  EXPECT_EQ(ref.edges, want);
}

TEST(ReferenceExtractorTest, DiffReportsMissingAndUnexpectedEdges) {
  const rel::Database db = Figure1Db();
  auto program = dsl::Parse(kFigure1);
  ASSERT_TRUE(program.ok());
  auto extracted = planner::Extract(db, *program);
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
  ReferenceGraph ref = MustReference(db, kFigure1);
  EXPECT_EQ(DiffAgainstReference(extracted->storage, ref), "");
  ref.edges.pop_back();
  EXPECT_NE(DiffAgainstReference(extracted->storage, ref), "");
}

// Regression: the COUNT plan used to count a NULL binding of the counted
// variable as one more value, so 1→3, 3→1 and 3→2 passed COUNT(S) >= 2.
TEST(ReferenceExtractorTest, ExtractorCountMatchesReference) {
  const rel::Database db = RatingsDb();
  auto program = dsl::Parse(kCountedRatings);
  ASSERT_TRUE(program.ok());
  const ReferenceGraph ref = MustReference(db, kCountedRatings);
  auto extracted = planner::Extract(db, *program);
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
  EXPECT_EQ(DiffAgainstReference(extracted->storage, ref), "");
}

// Regression: the chain planner joins adjacent atoms on one variable each
// and used to drop every other equality the body states — a variable
// repeated inside an atom, shared by atoms the chain does not make
// adjacent, or a head ID bound in two atoms. Such rules must now either be
// rejected or mean what the reference says.
TEST(ReferenceExtractorTest, ExtractorRejectsEqualitiesItCannotPlan) {
  rel::Database db;
  Table p("P", Schema({{"id", ValueType::kInt64}}));
  for (int64_t i = 1; i <= 4; ++i) p.AppendUnchecked({I(i)});
  db.PutTable(std::move(p));
  Table r("R", Schema({{"a", ValueType::kInt64},
                       {"x", ValueType::kInt64},
                       {"z", ValueType::kInt64}}));
  r.AppendUnchecked({I(1), I(10), I(7)});
  r.AppendUnchecked({I(2), I(20), I(8)});
  r.AppendUnchecked({I(3), I(10), I(3)});
  db.PutTable(std::move(r));
  Table s("S", Schema({{"x", ValueType::kInt64}, {"y", ValueType::kInt64}}));
  s.AppendUnchecked({I(10), I(100)});
  s.AppendUnchecked({I(20), I(100)});
  db.PutTable(std::move(s));
  Table t("T", Schema({{"y", ValueType::kInt64},
                       {"b", ValueType::kInt64},
                       {"z", ValueType::kInt64}}));
  t.AppendUnchecked({I(100), I(4), I(7)});
  t.AppendUnchecked({I(100), I(3), I(9)});
  t.AppendUnchecked({I(100), I(2), I(8)});
  db.PutTable(std::move(t));
  db.AnalyzeAll();

  const char* programs[] = {
      // Z links R and T, which the chain R-S-T never joins directly.
      "Nodes(ID) :- P(ID).\n"
      "Edges(A, B) :- R(A, X, Z), S(X, Y), T(Y, B, Z).",
      // Z repeated inside one atom.
      "Nodes(ID) :- P(ID).\n"
      "Edges(A, B) :- R(A, Z, Z), R(B, Z, W).",
      // The head ID A bound by both atoms.
      "Nodes(ID) :- P(ID).\n"
      "Edges(A, B) :- R(A, X, W), R(B, X, A).",
      // A Nodes rule repeating its key variable.
      "Nodes(ID) :- R(ID, X, ID).\n"
      "Edges(A, B) :- R(A, X, W), R(B, X, V).",
  };
  for (const char* datalog : programs) {
    SCOPED_TRACE(datalog);
    auto program = dsl::Parse(datalog);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    auto extracted = planner::Extract(db, *program);
    if (!extracted.ok()) {
      EXPECT_EQ(extracted.status().code(), StatusCode::kUnsupported)
          << extracted.status().ToString();
      continue;
    }
    EXPECT_EQ(DiffAgainstReference(extracted->storage,
                                   MustReference(db, datalog)),
              "");
  }
}

}  // namespace
}  // namespace graphgen::testing
