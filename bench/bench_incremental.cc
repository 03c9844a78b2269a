// bench_incremental — incremental extraction: cold re-extraction vs
// delta patching a captured basis forward after table appends.
//
// For each dataset (DBLP-like, TPC-H-like) and append fraction (0.1%,
// 1%, 10%) the harness truncates every table to a prefix, captures an
// incremental basis there (GraphGenOptions::capture_incremental), appends
// the withheld tails, and then times GraphGen::PatchExtracted against a
// cold GraphGen::Extract over the grown database. Representation is EXP,
// so every patch merges the expanded delta into fresh flat arrays.
//
// Parity is enforced on every run, else the process exits non-zero: the
// patched condensed extraction must be bitwise identical (DiffExtraction,
// scan counts excluded) to a cold planner extraction of the grown
// database, and the patched EXP graph must be flat and match a cold EXP
// extraction in vertex count and expanded edge set. In full mode the
// harness additionally gates the headline claim: a 1% TPC-H append must
// patch in at most 10% of the cold time.
// The gate is TPC-H-only by design — patching wins where the cold join
// pipeline is expensive; DBLP-like extractions are cheap enough that the
// delta passes' full-table semi-join scans cost about as much as simply
// re-extracting, and the table rows document that crossover.
//
// Writes a JSON summary (default BENCH_incremental.json, override with
// --out=<path>). --smoke shrinks the datasets and runs one iteration,
// keeping the parity gate as a CI check.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/graphgen.h"
#include "gen/relational_generators.h"
#include "planner/extractor.h"
#include "planner/incremental.h"
#include "relational/database.h"
#include "relational/table.h"

namespace {

using namespace graphgen;

struct Row {
  std::string dataset;
  double fraction = 0;
  size_t rows_total = 0;
  size_t rows_delta = 0;
  double cold_ms = 0;
  double patch_ms = 0;
  double patch_over_cold = 0;
};

// Truncates every table of `full` to a (1 - fraction) prefix, returning
// the prefix database and the withheld tail rows per table.
struct SplitDb {
  rel::Database db;
  std::vector<std::pair<std::string, std::vector<rel::Row>>> tails;
  size_t rows_total = 0;
  size_t rows_delta = 0;
};

SplitDb Split(const rel::Database& full, double fraction) {
  SplitDb out;
  for (const std::string& name : full.TableNames()) {
    auto tr = full.GetTable(name);
    if (!tr.ok()) {
      std::fprintf(stderr, "missing table %s\n", name.c_str());
      std::exit(1);
    }
    const rel::Table* t = *tr;
    const size_t rows = t->NumRows();
    size_t delta = static_cast<size_t>(static_cast<double>(rows) * fraction);
    if (delta == 0 && rows > 0) delta = 1;  // every table contributes
    const size_t keep = rows - delta;
    rel::Table copy(name, t->schema());
    for (size_t i = 0; i < keep; ++i) copy.AppendUnchecked(t->row(i));
    out.db.PutTable(std::move(copy));
    auto& tail = out.tails.emplace_back(name, std::vector<rel::Row>{}).second;
    for (size_t i = keep; i < rows; ++i) tail.push_back(t->row(i));
    out.rows_total += rows;
    out.rows_delta += delta;
  }
  out.db.AnalyzeAll();
  return out;
}

Row BenchOne(const std::string& name, const gen::GeneratedDatabase& data,
             double fraction, int iters) {
  Row row;
  row.dataset = name;
  row.fraction = fraction;

  SplitDb split = Split(data.db, fraction);
  row.rows_total = split.rows_total;
  row.rows_delta = split.rows_delta;

  GraphGenOptions options;
  options.representation = Representation::kExp;
  options.capture_incremental = true;

  GraphGen engine(&split.db);
  auto basis = engine.Extract(data.datalog, options);
  if (!basis.ok()) {
    std::fprintf(stderr, "[%s] basis extraction failed: %s\n", name.c_str(),
                 basis.status().ToString().c_str());
    std::exit(1);
  }

  for (auto& [table, rows] : split.tails) {
    Status appended = split.db.AppendRows(table, rows);
    if (!appended.ok()) {
      std::fprintf(stderr, "[%s] append failed: %s\n", name.c_str(),
                   appended.ToString().c_str());
      std::exit(1);
    }
  }

  // Parity gate: the patched condensed extraction must equal a cold
  // planner extraction of the grown database bit for bit.
  {
    auto attempt = planner::PatchExtraction(split.db, *basis->incremental,
                                            options.extract);
    if (!attempt.ok() || !attempt->patched) {
      std::fprintf(stderr, "[%s] patch fell back: %s\n", name.c_str(),
                   attempt.ok() ? attempt->fallback_reason.c_str()
                                : attempt.status().ToString().c_str());
      std::exit(1);
    }
    auto fresh =
        planner::ExtractFromQuery(split.db, data.datalog, options.extract);
    if (!fresh.ok()) std::exit(1);
    const std::string diff = planner::DiffExtraction(
        *fresh, attempt->result, /*compare_scan_counts=*/false);
    if (!diff.empty()) {
      std::fprintf(stderr, "[%s] PARITY FAILURE (fraction %g): %s\n",
                   name.c_str(), fraction, diff.c_str());
      std::exit(1);
    }
    auto patched = engine.PatchExtracted(*basis, options);
    auto cold = engine.Extract(data.datalog, options);
    if (!patched.ok() || !patched->patched || !cold.ok()) std::exit(1);
    const Graph& exp = *patched->graph.graph;
    const Graph& cold_exp = *cold->graph;
    if (!exp.HasFlatAdjacency() ||
        exp.NumVertices() != cold_exp.NumVertices() ||
        exp.ExpandedEdgeSet() != cold_exp.ExpandedEdgeSet()) {
      std::fprintf(stderr,
                   "[%s] EXP PARITY FAILURE (fraction %g): flat=%d, "
                   "%zu vs %zu vertices\n",
                   name.c_str(), fraction, exp.HasFlatAdjacency() ? 1 : 0,
                   exp.NumVertices(), cold_exp.NumVertices());
      std::exit(1);
    }
  }

  // Cold: full pipeline over the grown database (no capture — the
  // baseline a non-incremental deployment pays on every change).
  GraphGenOptions cold_options = options;
  cold_options.capture_incremental = false;
  row.cold_ms = bench::MinMs(iters, [&] {
    auto cold = engine.Extract(data.datalog, cold_options);
    if (!cold.ok()) std::exit(1);
  });

  // Patch: advance the stale basis to the grown database. Each iteration
  // starts from the same immutable basis, as the service cache would.
  row.patch_ms = bench::MinMs(iters, [&] {
    auto outcome = engine.PatchExtracted(*basis, options);
    if (!outcome.ok() || !outcome->patched) std::exit(1);
  });
  row.patch_over_cold = row.cold_ms > 0 ? row.patch_ms / row.cold_ms : 0;
  return row;
}

void WriteJson(const std::string& path, double scale,
               const std::vector<Row>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"incremental\",\n  \"scale\": %g,\n",
               scale);
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"append_fraction\": %g, "
                 "\"rows_total\": %zu, \"rows_delta\": %zu, "
                 "\"cold_ms\": %.3f, \"patch_ms\": %.3f, "
                 "\"patch_over_cold\": %.4f}%s\n",
                 r.dataset.c_str(), r.fraction, r.rows_total, r.rows_delta,
                 r.cold_ms, r.patch_ms, r.patch_over_cold,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nJSON written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_incremental.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const double s = smoke ? 0.05 : bench::BenchScale();
  const int iters = bench::ParseRepeat(argc, argv, smoke ? 1 : 5);

  bench::PrintHeader(
      "Incremental extraction: delta patch vs. cold re-extraction");

  gen::GeneratedDatabase dblp =
      gen::MakeDblpLike(static_cast<size_t>(4000 * s),
                        static_cast<size_t>(8000 * s), 4.0);
  gen::GeneratedDatabase tpch = gen::MakeTpchLike(
      static_cast<size_t>(2000 * s), static_cast<size_t>(8000 * s),
      static_cast<size_t>(100 * s) + 20, 3.0);

  std::vector<Row> rows;
  for (const double fraction : {0.001, 0.01, 0.1}) {
    rows.push_back(BenchOne("dblp", dblp, fraction, iters));
    rows.push_back(BenchOne("tpch", tpch, fraction, iters));
  }

  std::printf("%-8s %9s %10s %10s %12s %12s %8s\n", "dataset", "append",
              "rows", "delta", "cold (ms)", "patch (ms)", "ratio");
  bench::PrintRule();
  bool gate_failed = false;
  for (const Row& r : rows) {
    std::printf("%-8s %8.2f%% %10zu %10zu %12.2f %12.2f %7.1f%%\n",
                r.dataset.c_str(), r.fraction * 100, r.rows_total,
                r.rows_delta, r.cold_ms, r.patch_ms,
                r.patch_over_cold * 100);
    // Headline gate (full mode only: smoke datasets are too small for
    // stable timing): a 1% TPC-H append patches in <= 10% of the cold
    // time. See the header comment for why DBLP is reported but ungated.
    if (!smoke && r.dataset == "tpch" && r.fraction == 0.01 &&
        r.patch_over_cold > 0.10) {
      gate_failed = true;
    }
  }
  if (gate_failed) {
    std::fprintf(stderr,
                 "\nGATE FAILURE: a 1%% append took more than 10%% of the "
                 "cold extraction time\n");
    WriteJson(out, s, rows);
    return 1;
  }

  WriteJson(out, s, rows);
  return 0;
}
