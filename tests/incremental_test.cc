// Incremental extraction suite: a graph patched forward from a captured
// basis by PatchExtraction must be bitwise identical (DiffExtraction with
// compare_scan_counts=false — only the delta rows are scanned) to a cold
// extraction against the post-append database, and must hold exactly the
// reference evaluator's graph of that database, across key types,
// large-output policies, preprocessing, dangling-key promotion, and
// repeated patches. Non-append-safe situations must fall back softly.

#include "reference_extractor.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "gen/relational_generators.h"
#include "planner/extractor.h"
#include "planner/incremental.h"

namespace graphgen::planner {
namespace {

// A truncated copy of `full` plus the withheld tail rows per table.
struct SplitDb {
  rel::Database db;
  std::map<std::string, std::vector<rel::Row>> tail;
};

// Tables named in `whole` are kept in full (no tail).
SplitDb Split(const rel::Database& full, double keep_fraction,
              const std::set<std::string>& whole = {}) {
  SplitDb out;
  for (const std::string& name : full.TableNames()) {
    auto tr = full.GetTable(name);
    EXPECT_TRUE(tr.ok());
    const rel::Table* t = *tr;
    const size_t keep =
        whole.contains(name)
            ? t->NumRows()
            : static_cast<size_t>(static_cast<double>(t->NumRows()) *
                                  keep_fraction);
    rel::Table copy(name, t->schema());
    for (size_t i = 0; i < keep; ++i) copy.AppendUnchecked(t->row(i));
    out.db.PutTable(std::move(copy));
    auto& tail = out.tail[name];
    for (size_t i = keep; i < t->NumRows(); ++i) tail.push_back(t->row(i));
  }
  return out;
}

// Appends the first `fraction` of every table's withheld tail, consuming
// those rows from the tail.
void AppendTail(rel::Database& db,
                std::map<std::string, std::vector<rel::Row>>& tail,
                double fraction) {
  for (auto& [name, rows] : tail) {
    const size_t n =
        static_cast<size_t>(static_cast<double>(rows.size()) * fraction);
    if (n == 0) continue;  // an empty append still bumps the version
    std::vector<rel::Row> batch(rows.begin(), rows.begin() + n);
    rows.erase(rows.begin(), rows.begin() + n);
    ASSERT_TRUE(db.AppendRows(name, batch).ok());
  }
}

dsl::Program MustParse(const std::string& datalog) {
  auto p = dsl::Parse(datalog);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).ValueOrDie();
}

// The patched graph must mean what the program says over `db`.
void ExpectReference(const rel::Database& db, const dsl::Program& program,
                     const ExtractionResult& patched,
                     const std::string& label) {
  auto ref = testing::ReferenceExtract(db, program);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(testing::DiffAgainstReference(patched.storage, *ref), "")
      << label << " vs reference";
}

// Captures on the truncated db, appends the withheld rows in `waves`
// batches patching after each, and checks every patched result against a
// cold extraction and the reference graph of the then-current database.
// Tables in `whole_tables` are never truncated, so they take no delta.
void ExpectPatchParity(const rel::Database& full_db, const std::string& datalog,
                       double keep_fraction, const ExtractOptions& opts,
                       const char* label, int waves = 1,
                       bool expect_cheaper = true,
                       const std::set<std::string>& whole_tables = {}) {
  SplitDb split = Split(full_db, keep_fraction, whole_tables);
  const dsl::Program program = MustParse(datalog);

  IncrementalState captured;
  auto base = ExtractWithCapture(split.db, program, opts, captured);
  ASSERT_TRUE(base.ok()) << label << ": " << base.status().ToString();

  // The capture run itself must match a plain extraction.
  auto plain = Extract(split.db, program, opts);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(DiffExtraction(*plain, *base), "") << label << " capture vs plain";

  auto state = std::make_shared<IncrementalState>(std::move(captured));
  for (int wave = 1; wave <= waves; ++wave) {
    AppendTail(split.db, split.tail, wave == waves ? 1.0 : 1.0 / (waves - wave + 1));
    auto attempt = PatchExtraction(split.db, *state, opts);
    ASSERT_TRUE(attempt.ok()) << label << ": " << attempt.status().ToString();
    ASSERT_TRUE(attempt->patched)
        << label << " wave " << wave << ": fell back: "
        << PatchFallbackName(attempt->fallback);
    auto fresh = Extract(split.db, program, opts);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(DiffExtraction(*fresh, attempt->result,
                             /*compare_scan_counts=*/false),
              "")
        << label << " wave " << wave;
    ExpectReference(split.db, program, attempt->result,
                    std::string(label) + " wave " + std::to_string(wave));
    // A large delta (or one that promotes many dangling keys, forcing
    // full-range new-node passes) can legitimately scan more than a cold
    // run; callers only assert the saving for small appends.
    if (expect_cheaper) {
      EXPECT_LT(attempt->result.rows_scanned - state->rows_scanned,
                fresh->rows_scanned)
          << label << " wave " << wave << ": patch scanned as much as cold";
    }
    state = attempt->state;
  }
}

ExtractOptions BaseOptions() {
  ExtractOptions opts;
  opts.preprocess = false;
  opts.large_output_factor = 2.0;
  return opts;
}

TEST(IncrementalTest, DblpAppendParityAcrossConfigs) {
  gen::GeneratedDatabase d = gen::MakeDblpLike(300, 600, 4.0);
  for (double factor : {0.0, 2.0, 1e18}) {
    ExtractOptions opts = BaseOptions();
    opts.large_output_factor = factor;
    const std::string label = "DBLP factor=" + std::to_string(factor);
    ExpectPatchParity(d.db, d.datalog, 0.9, opts, label.c_str());
  }
}

TEST(IncrementalTest, TpchMultiAtomChainParity) {
  gen::GeneratedDatabase d = gen::MakeTpchLike(60, 240, 20, 3.0);
  for (double factor : {0.0, 2.0, 1e18}) {
    ExtractOptions opts = BaseOptions();
    opts.large_output_factor = factor;
    const std::string label = "TPCH factor=" + std::to_string(factor);
    // At 1e18 the whole chain is one segment, so the 15% node-table delta
    // forces full-range new-node passes over all three atoms.
    ExpectPatchParity(d.db, d.datalog, 0.85, opts, label.c_str(), /*waves=*/1,
                      /*expect_cheaper=*/factor != 1e18);
  }
}

TEST(IncrementalTest, PreprocessedPatchKeepsParity) {
  gen::GeneratedDatabase d = gen::MakeDblpLike(250, 500, 4.0);
  ExtractOptions opts = BaseOptions();
  opts.preprocess = true;
  ExpectPatchParity(d.db, d.datalog, 0.9, opts, "DBLP preprocess");
}

TEST(IncrementalTest, RepeatedPatchesConverge) {
  gen::GeneratedDatabase d = gen::MakeDblpLike(300, 600, 4.0);
  ExpectPatchParity(d.db, d.datalog, 0.7, BaseOptions(), "DBLP waves",
                    /*waves=*/3);
}

TEST(IncrementalTest, UniversityHeterogeneousEdgeRules) {
  // Two programs with two Edges rules each. In the first, both rules are
  // the same self-join, so every pair is emitted by both and a fresh
  // extraction stores it twice: a patch must dedup per (rule, segment),
  // never against the condensed graph. The second has two Nodes rules
  // and rules over different tables; only its Edges-rule tables change
  // (a node-table delta with several Nodes rules falls back).
  gen::GeneratedDatabase d = gen::MakeUniversity(80, 10, 16, 3.0);
  const std::string students = "Nodes(ID, Name) :- Student(ID, Name).\n";
  const std::string self_join =
      "Edges(ID1, ID2) :- TookCourse(ID1, C), TookCourse(ID2, C).\n";
  const std::string twice = students + self_join + self_join;
  const std::string heterogeneous =
      students + "Nodes(ID, Name) :- Instructor(ID, Name).\n" + self_join +
      "Edges(ID1, ID2) :- TookCourse(ID1, C), TaughtCourse(ID2, C).\n";
  for (double factor : {0.0, 2.0, 1e18}) {
    ExtractOptions opts = BaseOptions();
    opts.large_output_factor = factor;
    const std::string f = " factor=" + std::to_string(factor);
    ExpectPatchParity(d.db, twice, 0.9, opts, ("UNIV twice" + f).c_str());
    ExpectPatchParity(d.db, heterogeneous, 0.9, opts,
                      ("UNIV heterogeneous" + f).c_str(), /*waves=*/1,
                      /*expect_cheaper=*/true, {"Student", "Instructor"});
  }
  // Unsegmented, both rules emit the same real pairs: parallel edges. A
  // patch rebuilds the graph from the per-rule pair sets, so chained
  // patches must keep storing each pair once per rule.
  ExtractOptions opts = BaseOptions();
  opts.large_output_factor = 1e18;
  ExpectPatchParity(d.db, twice, 0.7, opts, "UNIV twice waves", /*waves=*/3);
  auto once = Extract(d.db, MustParse(students + self_join), opts);
  auto doubled = Extract(d.db, MustParse(twice), opts);
  ASSERT_TRUE(once.ok() && doubled.ok());
  EXPECT_EQ(once->virtual_nodes, 0u);
  EXPECT_EQ(doubled->condensed_edges, 2 * once->condensed_edges);
  EXPECT_EQ(doubled->condensed_edges, 4904u);
}

TEST(IncrementalTest, UntouchedCountRuleKeepsItsEdges) {
  // A COUNT-constraint rule cannot be patched, but a delta that only
  // reaches another rule must keep its edges: the patch rebuilds the
  // graph from the pair sets, so the COUNT rule's emitted pairs are in
  // the state too. Only TaughtCourse (the plain rule's own table) grows.
  gen::GeneratedDatabase d = gen::MakeUniversity(80, 10, 40, 3.0);
  const std::string nodes =
      "Nodes(ID, Name) :- Student(ID, Name).\n"
      "Nodes(ID, Name) :- Instructor(ID, Name).\n";
  const std::string count_rule =
      "Edges(ID1, ID2) :- TookCourse(ID1, C), TookCourse(ID2, C), "
      "COUNT(C) >= 2.\n";
  const std::string plain_rule =
      "Edges(ID1, ID2) :- TaughtCourse(ID1, C), TookCourse(ID2, C).\n";
  auto count_only = Extract(d.db, MustParse(nodes + count_rule), BaseOptions());
  ASSERT_TRUE(count_only.ok()) << count_only.status().ToString();
  EXPECT_GT(count_only->condensed_edges, 0u);
  for (double factor : {0.0, 2.0, 1e18}) {
    ExtractOptions opts = BaseOptions();
    opts.large_output_factor = factor;
    const std::string label = "UNIV count+plain factor=" +
                              std::to_string(factor);
    ExpectPatchParity(d.db, nodes + count_rule + plain_rule, 0.8, opts,
                      label.c_str(), /*waves=*/2, /*expect_cheaper=*/true,
                      {"Student", "Instructor", "TookCourse"});
  }
}

TEST(IncrementalTest, StringKeysAndDanglingPromotion) {
  // String node keys; Follows references people past the truncation point,
  // so those rows are dangling in the basis and must be spliced in when
  // the missing People rows arrive (the new-node full-range passes).
  rel::Database db;
  rel::Table people("People", rel::Schema({{"id", rel::ValueType::kString},
                                           {"name", rel::ValueType::kString}}));
  for (int i = 0; i < 60; ++i) {
    const std::string id = "p" + std::to_string(i);
    people.AppendUnchecked({rel::Value(id), rel::Value("Person " + id)});
  }
  rel::Table follows("Follows", rel::Schema({{"who", rel::ValueType::kString},
                                             {"topic", rel::ValueType::kString}}));
  for (int i = 0; i < 400; ++i) {
    rel::Value who =
        i % 17 == 0 ? rel::Value() : rel::Value("p" + std::to_string(i % 75));
    follows.AppendUnchecked(
        {std::move(who), rel::Value("t" + std::to_string(i % 13))});
  }
  db.PutTable(std::move(people));
  db.PutTable(std::move(follows));
  const std::string datalog =
      "Nodes(ID, Name) :- People(ID, Name).\n"
      "Edges(ID1, ID2) :- Follows(ID1, T), Follows(ID2, T).";
  ExtractOptions opts = BaseOptions();
  for (double factor : {0.0, 2.0, 1e18}) {
    opts.large_output_factor = factor;
    // keep=0.5 truncates People at p29, so follows rows for p30..p59 are
    // dangling until the second half of People lands. Half the node set
    // arriving as delta makes the patch scan more than cold — fine; the
    // point here is correctness of dangling promotion, not savings.
    ExpectPatchParity(db, datalog, 0.5, opts, "StringDangling", /*waves=*/2,
                      /*expect_cheaper=*/false);
  }
}

TEST(IncrementalTest, PropertyReplayIsLastWriterWins) {
  // The same key appears with different property values across the
  // append boundary: a fresh run's DISTINCT keeps both tuples and the
  // later property write wins; the patch must reproduce that exactly.
  rel::Database db;
  rel::Table authors("Author", rel::Schema({{"id", rel::ValueType::kInt64},
                                            {"name", rel::ValueType::kString}}));
  for (int i = 0; i < 20; ++i) {
    authors.AppendUnchecked(
        {rel::Value(int64_t{i}), rel::Value("old-" + std::to_string(i))});
  }
  rel::Table coauth("Co", rel::Schema({{"a", rel::ValueType::kInt64},
                                       {"p", rel::ValueType::kInt64}}));
  for (int i = 0; i < 60; ++i) {
    coauth.AppendUnchecked(
        {rel::Value(int64_t{i % 25}), rel::Value(int64_t{i % 7})});
  }
  db.PutTable(std::move(authors));
  db.PutTable(std::move(coauth));
  const std::string datalog =
      "Nodes(ID, Name) :- Author(ID, Name).\n"
      "Edges(ID1, ID2) :- Co(ID1, P), Co(ID2, P).";

  const dsl::Program program = MustParse(datalog);
  const ExtractOptions opts = BaseOptions();
  IncrementalState captured;
  ASSERT_TRUE(ExtractWithCapture(db, program, opts, captured).ok());
  auto state = std::make_shared<const IncrementalState>(std::move(captured));

  // Appends `rows`, patches from the current state, checks the result
  // against a cold run and the reference, and advances the state.
  auto append_and_patch = [&](const std::vector<rel::Row>& rows,
                              const std::string& label) -> ExtractionResult {
    EXPECT_TRUE(db.AppendRows("Author", rows).ok()) << label;
    auto attempt = PatchExtraction(db, *state, opts);
    EXPECT_TRUE(attempt.ok()) << label;
    if (!attempt.ok()) return {};
    EXPECT_TRUE(attempt->patched)
        << label << ": " << PatchFallbackName(attempt->fallback);
    if (!attempt->patched) return {};
    auto fresh = Extract(db, program, opts);
    EXPECT_TRUE(fresh.ok()) << label;
    EXPECT_EQ(
        DiffExtraction(*fresh, attempt->result, /*compare_scan_counts=*/false),
        "")
        << label;
    ExpectReference(db, program, attempt->result, label);
    state = attempt->state;
    return std::move(attempt->result);
  };
  auto name_of = [](const ExtractionResult& r, int64_t key) {
    auto id = r.storage.properties().FindByExternalKey(std::to_string(key));
    return id.has_value() ? r.storage.properties().Get(*id, 0) : "<missing>";
  };

  // Patch 1 re-keys 10..19 with new names and adds 20..24.
  std::vector<rel::Row> delta;
  for (int i = 10; i < 25; ++i) {  // 10..19 re-keyed with new names, 20..24 new
    delta.push_back(
        {rel::Value(int64_t{i}), rel::Value("new-" + std::to_string(i))});
  }
  // And one exact duplicate of a basis tuple — must be a no-op.
  delta.push_back({rel::Value(int64_t{3}), rel::Value("old-3")});
  ExtractionResult r = append_and_patch(delta, "last writer wins");
  EXPECT_EQ(name_of(r, 10), "'new-10'");
  const size_t tuples = state->node_tuples.size();
  EXPECT_EQ(tuples, 35u);  // 20 basis tuples + 15 new ones

  // Patch 2: (10, old-10) is a tuple the basis saw, but it is no longer
  // the last writer of key 10, so it must change nothing — not even the
  // sharing of the property cells.
  const std::string* cell = &state->properties.Get(10, 0);
  r = append_and_patch({{rel::Value(int64_t{10}), rel::Value("old-10")}},
                       "seen tuple, not the last writer");
  EXPECT_EQ(name_of(r, 10), "'new-10'");
  EXPECT_EQ(state->node_tuples.size(), tuples);
  EXPECT_EQ(&state->properties.Get(10, 0), cell);

  // NULL and "" are distinct tuples that write the same cell (a NULL
  // property stores "", the empty string its SQL literal '').
  r = append_and_patch({{rel::Value(int64_t{30}), rel::Value()}},
                       "NULL name");
  EXPECT_EQ(name_of(r, 30), "");
  EXPECT_EQ(state->node_tuples.size(), tuples + 1);
  r = append_and_patch({{rel::Value(int64_t{30}), rel::Value("")},
                        {rel::Value(int64_t{10}), rel::Value("old-10")}},
                       "empty name after NULL");
  EXPECT_EQ(name_of(r, 30), "''");
  EXPECT_EQ(name_of(r, 10), "'new-10'");
  EXPECT_EQ(state->node_tuples.size(), tuples + 2);
  r = append_and_patch({{rel::Value(int64_t{30}), rel::Value()}},
                       "NULL name again");
  EXPECT_EQ(name_of(r, 30), "''");
  EXPECT_EQ(state->node_tuples.size(), tuples + 2);
}

TEST(IncrementalTest, NoChangePatchIsIdentity) {
  gen::GeneratedDatabase d = gen::MakeDblpLike(100, 200, 3.0);
  const dsl::Program program = MustParse(d.datalog);
  const ExtractOptions opts = BaseOptions();
  IncrementalState captured;
  auto base = ExtractWithCapture(d.db, program, opts, captured);
  ASSERT_TRUE(base.ok());
  auto attempt = PatchExtraction(d.db, captured, opts);
  ASSERT_TRUE(attempt.ok());
  ASSERT_TRUE(attempt->patched);
  EXPECT_EQ(DiffExtraction(*base, attempt->result), "");
  ExpectReference(d.db, program, attempt->result, "no change");
}

TEST(IncrementalTest, MultiNodesRuleNodeDeltaFallsBack) {
  gen::GeneratedDatabase d = gen::MakeUniversity(60, 8, 12, 2.5);
  const std::string program =
      "Nodes(ID, Name) :- Student(ID, Name).\n"
      "Nodes(ID, Name) :- Instructor(ID, Name).\n"
      "Edges(ID1, ID2) :- TookCourse(ID1, C), TookCourse(ID2, C).";
  const ExtractOptions opts = BaseOptions();
  IncrementalState captured;
  ASSERT_TRUE(
      ExtractWithCapture(d.db, MustParse(program), opts, captured).ok());
  ASSERT_TRUE(d.db.AppendRows("Student", {{rel::Value(int64_t{100000}),
                                           rel::Value("new")}})
                  .ok());
  auto attempt = PatchExtraction(d.db, captured, opts);
  ASSERT_TRUE(attempt.ok());
  EXPECT_FALSE(attempt->patched);
  EXPECT_EQ(attempt->fallback, PatchFallback::kMultiNodesRuleDelta);
}

TEST(IncrementalTest, CountConstraintRuleFallsBack) {
  gen::GeneratedDatabase d = gen::MakeDblpLike(150, 300, 5.0);
  const std::string program =
      "Nodes(ID, Name) :- Author(ID, Name).\n"
      "Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P), "
      "COUNT(P) >= 2.";
  const ExtractOptions opts = BaseOptions();
  IncrementalState captured;
  ASSERT_TRUE(
      ExtractWithCapture(d.db, MustParse(program), opts, captured).ok());
  ASSERT_TRUE(d.db.AppendRows("AuthorPub", {{rel::Value(int64_t{1}),
                                             rel::Value(int64_t{2})}})
                  .ok());
  auto attempt = PatchExtraction(d.db, captured, opts);
  ASSERT_TRUE(attempt.ok());
  EXPECT_FALSE(attempt->patched);
  EXPECT_EQ(attempt->fallback, PatchFallback::kCountRuleTouched);
}

TEST(IncrementalTest, RebasedTableFallsBack) {
  gen::GeneratedDatabase d = gen::MakeDblpLike(100, 200, 3.0);
  const ExtractOptions opts = BaseOptions();
  IncrementalState captured;
  ASSERT_TRUE(
      ExtractWithCapture(d.db, MustParse(d.datalog), opts, captured).ok());
  ASSERT_TRUE(d.db.GetMutableTable("AuthorPub").ok());  // stamps a rebase
  auto attempt = PatchExtraction(d.db, captured, opts);
  ASSERT_TRUE(attempt.ok());
  EXPECT_FALSE(attempt->patched);
  EXPECT_EQ(attempt->fallback, PatchFallback::kTableRebased);
}

TEST(IncrementalTest, DroppedTableFallsBack) {
  gen::GeneratedDatabase d = gen::MakeDblpLike(50, 100, 3.0);
  const ExtractOptions opts = BaseOptions();
  IncrementalState captured;
  ASSERT_TRUE(
      ExtractWithCapture(d.db, MustParse(d.datalog), opts, captured).ok());
  rel::Database other;  // same program, different database: all tables gone
  auto attempt = PatchExtraction(other, captured, opts);
  ASSERT_TRUE(attempt.ok());
  EXPECT_FALSE(attempt->patched);
  EXPECT_EQ(attempt->fallback, PatchFallback::kTableDropped);
}

TEST(IncrementalTest, StateMemoryBytesIsPositiveAndGrows) {
  gen::GeneratedDatabase d = gen::MakeDblpLike(200, 400, 4.0);
  SplitDb split = Split(d.db, 0.5);
  const dsl::Program program = MustParse(d.datalog);
  const ExtractOptions opts = BaseOptions();
  IncrementalState captured;
  ASSERT_TRUE(ExtractWithCapture(split.db, program, opts, captured).ok());
  const size_t before = captured.MemoryBytes();
  EXPECT_GT(before, 0u);
  AppendTail(split.db, split.tail, 1.0);
  auto attempt = PatchExtraction(split.db, captured, opts);
  ASSERT_TRUE(attempt.ok());
  ASSERT_TRUE(attempt->patched) << PatchFallbackName(attempt->fallback);
  ExpectReference(split.db, program, attempt->result, "state growth");
  EXPECT_GT(attempt->state->MemoryBytes(), before);
}

}  // namespace
}  // namespace graphgen::planner
