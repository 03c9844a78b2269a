// Tests for the typed columnar storage layer: encoding inference, null
// bitmap semantics, dictionary interning, the mixed-type fallback, memory
// accounting, and the binary columnar snapshot round-trip.

#include "reference_extractor.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/serialization.h"
#include "datalog/parser.h"
#include "planner/extractor.h"
#include "relational/csv_loader.h"
#include "relational/database.h"

namespace graphgen::rel {
namespace {

using Encoding = ColumnVector::Encoding;

TEST(ColumnVectorTest, InfersInt64Encoding) {
  ColumnVector c;
  c.AppendInt64(7);
  c.AppendInt64(-3);
  EXPECT_EQ(c.encoding(), Encoding::kInt64);
  EXPECT_EQ(c.size(), 2u);
  ASSERT_NE(c.Int64Data(), nullptr);
  EXPECT_EQ(c.Int64Data()[1], -3);
  EXPECT_EQ(c.ValueAt(0), Value(int64_t{7}));
}

TEST(ColumnVectorTest, DictionaryInternsStrings) {
  ColumnVector c;
  c.AppendString("ann");
  c.AppendString("bob");
  c.AppendString("ann");
  EXPECT_EQ(c.encoding(), Encoding::kDictString);
  EXPECT_EQ(c.dict().size(), 2u);       // "ann" stored once
  EXPECT_EQ(c.CodeAt(0), c.CodeAt(2));  // equal strings share a code
  EXPECT_NE(c.CodeAt(0), c.CodeAt(1));
  EXPECT_EQ(c.StringAt(2), "ann");
  EXPECT_EQ(c.ValueAt(1), Value("bob"));
}

TEST(ColumnVectorTest, NullBitmapSemantics) {
  ColumnVector c;
  c.AppendNull();  // leading null: encoding not yet known
  EXPECT_EQ(c.encoding(), Encoding::kEmpty);
  c.AppendInt64(5);
  c.AppendNull();
  EXPECT_EQ(c.encoding(), Encoding::kInt64);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.null_count(), 2u);
  EXPECT_TRUE(c.IsNull(0));
  EXPECT_FALSE(c.IsNull(1));
  EXPECT_TRUE(c.IsNull(2));
  EXPECT_TRUE(c.ValueAt(0).is_null());
  EXPECT_EQ(c.ValueAt(1), Value(int64_t{5}));
  EXPECT_TRUE(c.ValueAt(2).is_null());
}

TEST(ColumnVectorTest, TypeMismatchConvertsToMixed) {
  ColumnVector c;
  c.AppendInt64(1);
  c.AppendString("x");
  c.AppendDouble(2.5);
  EXPECT_EQ(c.encoding(), Encoding::kMixed);
  EXPECT_EQ(c.ValueAt(0), Value(int64_t{1}));  // earlier cells preserved
  EXPECT_EQ(c.ValueAt(1), Value("x"));
  EXPECT_EQ(c.ValueAt(2), Value(2.5));
}

TEST(ColumnVectorTest, HashMatchesValueHash) {
  ColumnVector c;
  c.AppendInt64(42);
  c.AppendNull();
  EXPECT_EQ(c.HashAt(0), Value(int64_t{42}).Hash());
  EXPECT_EQ(c.HashAt(1), Value().Hash());
  ColumnVector s;
  s.AppendString("key");
  EXPECT_EQ(s.HashAt(0), Value("key").Hash());
}

TEST(ColumnVectorTest, EqualAtFollowsValueSemantics) {
  ColumnVector ints = ColumnVector::OfInt64({5, 5, 6});
  EXPECT_TRUE(ints.EqualAt(0, ints, 1));
  EXPECT_FALSE(ints.EqualAt(0, ints, 2));
  ColumnVector doubles = ColumnVector::OfDouble({5.0});
  EXPECT_FALSE(ints.EqualAt(0, doubles, 0));  // int64 5 != double 5.0
  ColumnVector nulls;
  nulls.AppendNull();
  nulls.AppendNull();
  EXPECT_TRUE(nulls.EqualAt(0, nulls, 1));  // NULL == NULL
  EXPECT_FALSE(nulls.EqualAt(0, ints, 0));
  // Same strings in two different dictionaries still compare equal.
  ColumnVector s1 = ColumnVector::OfStrings({"a", "b"});
  ColumnVector s2 = ColumnVector::OfStrings({"b"});
  EXPECT_TRUE(s1.EqualAt(1, s2, 0));
  EXPECT_FALSE(s1.EqualAt(0, s2, 0));
}

TEST(ColumnVectorTest, DistinctCountTyped) {
  ColumnVector c;
  for (int64_t v : {1, 2, 2, 3, 3, 3}) c.AppendInt64(v);
  c.AppendNull();  // NULL counts as one distinct value (legacy semantics)
  EXPECT_EQ(c.DistinctCount(), 4u);
  ColumnVector s = ColumnVector::OfStrings({"x", "y", "x"});
  EXPECT_EQ(s.DistinctCount(), 2u);
}

TEST(TableTest, FromColumnsAndRowView) {
  std::vector<ColumnVector> cols;
  cols.push_back(ColumnVector::OfInt64({1, 2}));
  cols.push_back(ColumnVector::OfStrings({"ann", "bob"}));
  Table t = Table::FromColumns(
      "T", Schema({{"id", ValueType::kInt64}, {"name", ValueType::kString}}),
      std::move(cols));
  EXPECT_EQ(t.NumRows(), 2u);
  Row r = t.row(1);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], Value(int64_t{2}));
  EXPECT_EQ(r[1], Value("bob"));
  EXPECT_EQ(t.ValueAt(0, 1), Value("ann"));
}

TEST(TableTest, MemoryBytesCountsStringHeap) {
  // 200 distinct ~70-byte strings: the footprint must cover the string
  // payload itself, not just vector headers (the pre-columnar accounting
  // missed dictionary-style sharing entirely).
  Table strings("S", Schema({{"s", ValueType::kString}}));
  size_t payload = 0;
  for (int i = 0; i < 200; ++i) {
    std::string s = "value-" + std::to_string(i) + std::string(60, 'x');
    payload += s.size();
    strings.AppendUnchecked({Value(std::move(s))});
  }
  EXPECT_GT(strings.MemoryBytes(), payload);

  // Interning: 200 rows of the same string cost far less than 200 distinct
  // strings of the same length.
  Table repeated("R", Schema({{"s", ValueType::kString}}));
  for (int i = 0; i < 200; ++i) {
    repeated.AppendUnchecked({Value(std::string(66, 'y'))});
  }
  EXPECT_LT(repeated.MemoryBytes(), strings.MemoryBytes() / 4);
}

TEST(TableTest, Int64ColumnRejectsNulls) {
  Table t("T", Schema({{"a", ValueType::kInt64}}));
  t.AppendUnchecked({Value(int64_t{1})});
  t.AppendUnchecked({Value()});
  EXPECT_FALSE(t.Int64Column(0).ok());
}

TEST(CsvColumnarTest, ColumnTypeFinalizesCells) {
  // "4" in a column that elsewhere holds "3.5" lands as the double 4.0 —
  // type inference finalizes the column, not the cell, so a typed column
  // never mixes int64 and double values.
  auto table = ParseCsv("T", "score\n3.5\n4\n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->schema().column(0).type, ValueType::kDouble);
  EXPECT_EQ(table->column(0).encoding(), Encoding::kDouble);
  EXPECT_EQ(table->row(1)[0], Value(4.0));
}

TEST(CsvColumnarTest, WidenedIdColumnKeepsExactText) {
  // One out-of-range id widens the whole column to string; the in-range
  // ids keep their exact original text so keys stay consistent.
  auto table = ParseCsv("T", "k\n5\n18446744073709551616\n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->schema().column(0).type, ValueType::kString);
  EXPECT_EQ(table->column(0).encoding(), Encoding::kDictString);
  EXPECT_EQ(table->row(0)[0].AsString(), "5");
  EXPECT_EQ(table->row(1)[0].AsString(), "18446744073709551616");
}

TEST(CsvColumnarTest, DictionaryRoundTripThroughExtraction) {
  // CSV with string keys -> dictionary-encoded columns -> extraction:
  // the dict join kernel and dict property materialization must produce
  // the graph the reference evaluator does.
  std::string dir = ::testing::TempDir();
  std::string people = dir + "/people.csv";
  std::string likes = dir + "/likes.csv";
  {
    FILE* f = fopen(people.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("id,name\nalice,Alice A\nbob,Bob B\ncarol,Carol C\n", f);
    fclose(f);
    f = fopen(likes.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("person,thing\nalice,jazz\nbob,jazz\nbob,go\ncarol,go\n", f);
    fclose(f);
  }
  Database db;
  ASSERT_TRUE(LoadCsv(db, "People", people).ok());
  ASSERT_TRUE(LoadCsv(db, "Likes", likes).ok());
  EXPECT_EQ(db.GetTable("People").ValueOrDie()->column(0).encoding(),
            Encoding::kDictString);

  const std::string program =
      "Nodes(ID, Name) :- People(ID, Name).\n"
      "Edges(ID1, ID2) :- Likes(ID1, T), Likes(ID2, T).";
  planner::ExtractOptions columnar;
  columnar.preprocess = false;
  columnar.large_output_factor = 0.0;
  auto got = planner::ExtractFromQuery(db, program, columnar);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  auto parsed = dsl::Parse(program);
  ASSERT_TRUE(parsed.ok());
  auto ref = testing::ReferenceExtract(db, *parsed);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(testing::DiffAgainstReference(got->storage, *ref), "");
  EXPECT_EQ(got->real_nodes, 3u);
  // alice-bob via jazz, bob-carol via go: 4 directed edges.
  EXPECT_EQ(got->storage.CountExpandedEdges(), 4u);
  EXPECT_EQ(got->storage.properties().GetByName(0, "Name"), "'Alice A'");
  std::remove(people.c_str());
  std::remove(likes.c_str());
}

TEST(SnapshotTest, ColumnarTableRoundTrip) {
  Table t("Snap", Schema({{"id", ValueType::kInt64},
                          {"name", ValueType::kString},
                          {"score", ValueType::kDouble},
                          {"odd", ValueType::kString}}));
  t.AppendUnchecked({Value(int64_t{1}), Value("ann"), Value(1.5), Value("x")});
  t.AppendUnchecked({Value(int64_t{2}), Value(), Value(), Value(int64_t{9})});
  t.AppendUnchecked({Value(int64_t{3}), Value("ann"), Value(-2.25), Value()});

  std::string path = ::testing::TempDir() + "/snap.ggtbl";
  ASSERT_TRUE(SerializeTableColumnar(t, path).ok());
  auto loaded = LoadTableColumnar(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->name(), "Snap");
  ASSERT_EQ(loaded->NumRows(), 3u);
  ASSERT_EQ(loaded->NumColumns(), 4u);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(loaded->schema().column(c).name, t.schema().column(c).name);
    EXPECT_EQ(loaded->schema().column(c).type, t.schema().column(c).type);
    EXPECT_EQ(loaded->column(c).encoding(), t.column(c).encoding()) << c;
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(loaded->ValueAt(r, c), t.ValueAt(r, c)) << r << "," << c;
    }
  }
  // Dictionary codes survive byte-for-byte.
  EXPECT_EQ(loaded->column(1).CodeAt(0), loaded->column(1).CodeAt(2));
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncatedSnapshotIsParseErrorNotCrash) {
  Table t("Trunc", Schema({{"id", ValueType::kInt64},
                           {"name", ValueType::kString}}));
  for (int64_t i = 0; i < 50; ++i) {
    t.AppendUnchecked({Value(i), Value("name-" + std::to_string(i))});
  }
  std::string path = ::testing::TempDir() + "/trunc.ggtbl";
  ASSERT_TRUE(SerializeTableColumnar(t, path).ok());
  // Truncate to half: header-declared counts now exceed what the file
  // holds; the loader must fail cleanly, not allocate from garbage.
  {
    FILE* f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    fseek(f, 0, SEEK_END);
    long size = ftell(f);
    rewind(f);
    std::string bytes(static_cast<size_t>(size) / 2, '\0');
    ASSERT_EQ(fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    fclose(f);
    f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(bytes.data(), 1, bytes.size(), f);
    fclose(f);
  }
  auto loaded = LoadTableColumnar(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsGarbage) {
  std::string path = ::testing::TempDir() + "/garbage.ggtbl";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("not a snapshot", f);
    fclose(f);
  }
  EXPECT_FALSE(LoadTableColumnar(path).ok());
  EXPECT_EQ(LoadTableColumnar("/no/such/file").status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graphgen::rel
