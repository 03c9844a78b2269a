// Extraction parity fuzz: randomized schemas and datasets (seeded via
// common/rng, fully reproducible) extracted under every thread count and
// large-output policy, diffed bitwise against the serial run and checked
// against the planner-independent reference evaluator
// (reference_extractor.h). The datasets deliberately include dangling
// src/dst keys (link rows whose endpoint is not a node), NULL keys,
// duplicate link rows, heterogeneous key types (int64 / dictionary
// strings / mixed columns), and chains long enough that factor 0.0 forces
// multi-segment assembly with virtual nodes at the boundaries.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include <memory>
#include <utility>

#include "reference_extractor.h"

#include "common/rng.h"
#include "datalog/parser.h"
#include "planner/extractor.h"
#include "planner/incremental.h"
#include "relational/database.h"
#include "relational/table.h"

namespace graphgen::planner {
namespace {

using rel::Schema;
using rel::Table;
using rel::Value;
using rel::ValueType;

struct FuzzCase {
  rel::Database db;
  std::string datalog;
  std::string description;
};

// Renders an entity key under the fuzzed key type.
Value KeyValue(bool string_keys, uint64_t id) {
  if (string_keys) return Value("k" + std::to_string(id));
  return Value(static_cast<int64_t>(id));
}

FuzzCase MakeCase(uint64_t seed) {
  Rng rng(seed);
  FuzzCase fc;

  const bool string_keys = rng.NextBool(0.5);
  const bool string_attr = rng.NextBool(0.4);
  // A sprinkle of wrong-typed cells turns a column kMixed and exercises
  // the generic Value kernels end to end.
  const bool poison_mixed = rng.NextBool(0.25);
  const size_t num_nodes = 20 + rng.NextBounded(60);
  // Link endpoints draw from a *superset* of the node keys, so some src
  // and some dst rows dangle.
  const size_t num_entities = num_nodes + 5 + rng.NextBounded(num_nodes);
  const double null_rate = rng.NextBool(0.5) ? 0.08 : 0.0;
  const size_t attr_domain = 3 + rng.NextBounded(12);
  const int shape = static_cast<int>(rng.NextBounded(3));

  Table nodes("N", Schema({{"id", string_keys ? ValueType::kString
                                              : ValueType::kInt64},
                           {"name", ValueType::kString}}));
  for (size_t i = 0; i < num_nodes; ++i) {
    nodes.AppendUnchecked(
        {KeyValue(string_keys, i), Value("name" + std::to_string(i % 7))});
  }
  fc.db.PutTable(std::move(nodes));

  auto attr_value = [&](uint64_t a) {
    if (string_attr) return Value("a" + std::to_string(a));
    return Value(static_cast<int64_t>(a));
  };
  auto link_row = [&](Table& t) {
    Value id = rng.NextBool(null_rate)
                   ? Value()
                   : KeyValue(string_keys, rng.NextBounded(num_entities));
    if (poison_mixed && rng.NextBool(0.02)) id = Value("oops");
    Value attr = rng.NextBool(null_rate)
                     ? Value()
                     : attr_value(rng.NextBounded(attr_domain));
    t.AppendUnchecked({std::move(id), std::move(attr)});
  };

  const size_t link_rows = 120 + rng.NextBounded(300);
  Table l1("L1", Schema({{"id", string_keys ? ValueType::kString
                                            : ValueType::kInt64},
                         {"a", string_attr ? ValueType::kString
                                           : ValueType::kInt64}}));
  for (size_t i = 0; i < link_rows; ++i) link_row(l1);
  // Exact duplicates make DISTINCT do real work.
  for (size_t i = 0; i < link_rows / 4; ++i) {
    l1.AppendUnchecked(l1.row(rng.NextBounded(l1.NumRows())));
  }
  fc.db.PutTable(std::move(l1));

  switch (shape) {
    case 0:
      // Self-join co-occurrence: the canonical 2-atom chain.
      fc.datalog =
          "Nodes(ID, Name) :- N(ID, Name).\n"
          "Edges(ID1, ID2) :- L1(ID1, A), L1(ID2, A).";
      fc.description = "self-join";
      break;
    case 1: {
      // Heterogeneous 2-atom chain over two link tables.
      Table l2("L2", Schema({{"id", string_keys ? ValueType::kString
                                                : ValueType::kInt64},
                             {"a", string_attr ? ValueType::kString
                                               : ValueType::kInt64}}));
      for (size_t i = 0; i < link_rows; ++i) link_row(l2);
      fc.db.PutTable(std::move(l2));
      fc.datalog =
          "Nodes(ID, Name) :- N(ID, Name).\n"
          "Edges(ID1, ID2) :- L1(ID1, A), L2(ID2, A).";
      fc.description = "two-table";
      break;
    }
    default: {
      // 3-atom chain through a bridge table: two join boundaries, so
      // factor 0.0 condenses into multiple segments whose boundary values
      // become virtual nodes while dangling dst keys are still dropped at
      // the final segment only.
      Table bridge("B", Schema({{"a", string_attr ? ValueType::kString
                                                  : ValueType::kInt64},
                                {"b", string_attr ? ValueType::kString
                                                  : ValueType::kInt64}}));
      const size_t bridge_rows = 60 + rng.NextBounded(200);
      for (size_t i = 0; i < bridge_rows; ++i) {
        Value a = rng.NextBool(null_rate)
                      ? Value()
                      : attr_value(rng.NextBounded(attr_domain));
        Value b = rng.NextBool(null_rate)
                      ? Value()
                      : attr_value(rng.NextBounded(attr_domain));
        bridge.AppendUnchecked({std::move(a), std::move(b)});
      }
      fc.db.PutTable(std::move(bridge));
      fc.datalog =
          "Nodes(ID, Name) :- N(ID, Name).\n"
          "Edges(ID1, ID2) :- L1(ID1, A), B(A, C), L1(ID2, C).";
      fc.description = "bridge-chain";
      break;
    }
  }
  fc.db.AnalyzeAll();
  return fc;
}

ExtractionResult RunExtract(const FuzzCase& fc, double factor,
                            size_t threads) {
  ExtractOptions opts;
  opts.large_output_factor = factor;
  opts.preprocess = false;
  opts.threads = threads;
  auto result = ExtractFromQuery(fc.db, fc.datalog, opts);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

// The planner-independent meaning of the fuzz case's program.
testing::ReferenceGraph Reference(const FuzzCase& fc) {
  auto program = dsl::Parse(fc.datalog);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto ref = testing::ReferenceExtract(fc.db, *program);
  EXPECT_TRUE(ref.ok()) << ref.status().ToString();
  return std::move(ref).ValueOrDie();
}

TEST(ExtractionFuzzTest, RandomizedSchemasAgreeAcrossAllConfigurations) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FuzzCase fc = MakeCase(seed * 0x9e3779b97f4a7c15ull + seed);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " " + fc.description);
    const testing::ReferenceGraph ref = Reference(fc);
    // 0.0 forces every boundary condensed (multi-segment + virtual
    // nodes), 1e18 forces full expansion, 2.0 lets the stats decide.
    for (double factor : {0.0, 2.0, 1e18}) {
      // The serial run is the bitwise baseline; the reference evaluator
      // says what the graph must mean.
      const ExtractionResult serial = RunExtract(fc, factor, 1);
      EXPECT_EQ(testing::DiffAgainstReference(serial.storage, ref), "")
          << "factor=" << factor;
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        const ExtractionResult got = RunExtract(fc, factor, threads);
        EXPECT_EQ(DiffExtraction(serial, got), "")
            << "factor=" << factor << " threads=" << threads;
      }
    }
  }
}

// Append-then-patch axis: each fuzz case is truncated to a prefix, an
// incremental state is captured there, the withheld rows (dangling keys,
// NULLs, duplicates, mixed-typed cells included) are appended, and the
// patched extraction must match a cold run over the grown database bit
// for bit — and the reference graph of the grown database. This drives
// PatchExtraction through the same hostile data the parity fuzz uses,
// across segmentation modes.
TEST(ExtractionFuzzTest, AppendThenPatchMatchesColdExtraction) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FuzzCase fc = MakeCase(seed * 0x9e3779b97f4a7c15ull + seed);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " " + fc.description);
    auto parsed = dsl::Parse(fc.datalog);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const testing::ReferenceGraph ref = Reference(fc);
    for (double factor : {0.0, 2.0, 1e18}) {
      // Keep a 70% prefix of every table; withhold the tails.
      rel::Database db;
      std::vector<std::pair<std::string, std::vector<rel::Row>>> tails;
      for (const std::string& name : fc.db.TableNames()) {
        auto tr = fc.db.GetTable(name);
        ASSERT_TRUE(tr.ok());
        const Table* t = *tr;
        const size_t keep = t->NumRows() * 7 / 10;
        Table copy(name, t->schema());
        for (size_t i = 0; i < keep; ++i) copy.AppendUnchecked(t->row(i));
        db.PutTable(std::move(copy));
        auto& tail = tails.emplace_back(name, std::vector<rel::Row>{}).second;
        for (size_t i = keep; i < t->NumRows(); ++i) {
          tail.push_back(t->row(i));
        }
      }
      db.AnalyzeAll();

      ExtractOptions opts;
      opts.large_output_factor = factor;
      opts.preprocess = false;
      opts.threads = 4;

      IncrementalState captured;
      auto base = ExtractWithCapture(db, *parsed, opts, captured);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      auto state = std::make_shared<IncrementalState>(std::move(captured));

      for (auto& [name, rows] : tails) {
        ASSERT_TRUE(db.AppendRows(name, rows).ok());
      }
      auto attempt = PatchExtraction(db, *state, opts);
      ASSERT_TRUE(attempt.ok()) << attempt.status().ToString();
      ASSERT_TRUE(attempt->patched)
          << "factor=" << factor << " fell back: "
          << PatchFallbackName(attempt->fallback);

      const ExtractionResult fresh = RunExtract(fc, factor, 4);
      EXPECT_EQ(DiffExtraction(fresh, attempt->result,
                               /*compare_scan_counts=*/false),
                "")
          << "factor=" << factor;
      EXPECT_EQ(testing::DiffAgainstReference(attempt->result.storage, ref),
                "")
          << "factor=" << factor;
    }
  }
}

}  // namespace
}  // namespace graphgen::planner
