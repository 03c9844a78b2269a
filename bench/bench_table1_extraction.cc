// Reproduces Table 1 (condensed C-DUP vs fully expanded EXP extraction)
// and measures the extraction pipeline itself (selection vectors,
// partitioned hash join, fused morsel-driven join→DISTINCT, typed-key
// graph assembly) on the four evaluation schemas: serially (one thread)
// versus on all hardware threads. The parallel run is additionally timed
// with the fused join→DISTINCT pipeline forced on and forced off.
//
// For every workload the harness also *proves* parity: the output of the
// parallel pipeline — under the adaptive default, with fusion forced,
// and with fusion disabled — must be bitwise-identical to the serial
// run (node ids, condensed adjacency in stored order, properties), else
// the process exits non-zero. In --smoke mode the harness further
// fails if the forced-fused path regresses more than 20% (geomean) below
// the unfused operator chain — the CI regression gate for optimized
// builds.
//
// Writes a JSON summary (default BENCH_extraction.json, override with
// --out=<path>). --smoke shrinks the datasets and runs one iteration,
// and additionally gates the robustness plumbing (cancellation polls,
// deadline checks, disarmed fault points) at < 1% overhead.
// --cancel-at-ms=N skips the benchmark and probes mid-flight
// cancellation latency instead.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/cancel.h"
#include "common/faultpoints.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "gen/relational_generators.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "planner/extractor.h"

namespace graphgen {
namespace {

struct WorkloadRow {
  std::string name;
  uint64_t input_rows = 0;
  uint64_t condensed_edges = 0;
  uint64_t full_edges = 0;
  bench::RepeatStats serial;    // columnar (adaptive fusion), 1 thread
  bench::RepeatStats parallel;  // columnar (adaptive fusion), hw threads
  bench::RepeatStats fused;     // columnar, join→DISTINCT fusion forced on
  bench::RepeatStats unfused;   // columnar, unfused operator chain
  // Top-level extraction stages (nodes/edges/preprocess) of one profiled
  // parallel run, from the flight recorder's QueryProfile.
  std::vector<std::pair<std::string, double>> stage_ms;
  bool parity = true;
  double Speedup() const {
    return parallel.median_ms > 0 ? serial.median_ms / parallel.median_ms : 0;
  }
  double FusedVsUnfused() const {
    return fused.median_ms > 0 ? unfused.median_ms / fused.median_ms : 0;
  }
};

// Pipeline configurations measured per workload.
enum class Mode {
  kSerial,    // columnar, adaptive fusion, 1 thread (the parity baseline)
  kParallel,  // columnar, adaptive join→DISTINCT fusion (the default)
  kFused,     // columnar, fusion forced for any output size
  kUnfused,   // columnar, fusion disabled (classic operator chain)
};

// End-to-end extraction (both policies, like an analyst extracting the
// condensed graph and the full graph) under one pipeline configuration.
planner::ExtractOptions MakeOpts(double factor, Mode mode) {
  planner::ExtractOptions opts;
  opts.large_output_factor = factor;
  opts.preprocess = false;
  opts.threads = mode == Mode::kSerial ? 1 : 0;
  opts.fuse_join_distinct = mode != Mode::kUnfused;
  if (mode == Mode::kFused) opts.fuse_min_output_bytes = 0;
  return opts;
}

bool RunWorkload(const std::string& name, const gen::GeneratedDatabase& data,
                 int iters, std::vector<WorkloadRow>& rows) {
  WorkloadRow row;
  row.name = name;
  for (const std::string& t : data.db.TableNames()) {
    row.input_rows += data.db.GetTable(t).ValueOrDie()->NumRows();
  }

  // Parity first (also warms caches): every policy, serial vs every
  // columnar fusion mode — the fused pipeline must be indistinguishable.
  for (double factor : {0.0, 1e18}) {
    auto serial = planner::ExtractFromQuery(data.db, data.datalog,
                                            MakeOpts(factor, Mode::kSerial));
    if (!serial.ok()) {
      std::printf("%-8s extraction failed: %s\n", name.c_str(),
                  serial.status().ToString().c_str());
      return false;
    }
    for (Mode mode : {Mode::kParallel, Mode::kFused, Mode::kUnfused}) {
      auto got = planner::ExtractFromQuery(data.db, data.datalog,
                                           MakeOpts(factor, mode));
      if (!got.ok()) {
        std::printf("%-8s extraction failed: %s\n", name.c_str(),
                    got.status().ToString().c_str());
        return false;
      }
      std::string diff = planner::DiffExtraction(*serial, *got);
      if (!diff.empty()) {
        std::printf("%-8s PARITY FAILURE (factor %g, mode %d): %s\n",
                    name.c_str(), factor, static_cast<int>(mode),
                    diff.c_str());
        row.parity = false;
      }
    }
    if (factor == 0.0) {
      row.condensed_edges = serial->condensed_edges;
    } else {
      row.full_edges = serial->condensed_edges;
    }
  }

  // Timed runs: both policies back to back = the Table 1 workload.
  auto run_both = [&](Mode mode) {
    (void)planner::ExtractFromQuery(data.db, data.datalog,
                                    MakeOpts(0.0, mode));
    (void)planner::ExtractFromQuery(data.db, data.datalog,
                                    MakeOpts(1e18, mode));
  };
  row.serial = bench::Repeat(iters, [&] { run_both(Mode::kSerial); });
  row.parallel = bench::Repeat(iters, [&] { run_both(Mode::kParallel); });
  row.fused = bench::Repeat(iters, [&] { run_both(Mode::kFused); });
  row.unfused = bench::Repeat(iters, [&] { run_both(Mode::kUnfused); });

  // One profiled run feeds the per-stage breakdown in the JSON summary.
  if (obs::Enabled()) {
    auto profiled = planner::ExtractFromQuery(data.db, data.datalog,
                                              MakeOpts(1e18, Mode::kParallel));
    if (profiled.ok()) {
      for (const obs::ProfileNode& stage : profiled->profile.root.children) {
        row.stage_ms.emplace_back(stage.name, stage.seconds * 1e3);
      }
    }
  }

  std::printf("%-8s %9" PRIu64 " rows | C-DUP %10" PRIu64 " e | EXP %11" PRIu64
              " e | serial %9.1fms | parallel %9.1fms | %5.2fx | fused %9.1fms"
              " | unfused %9.1fms | %s\n",
              name.c_str(), row.input_rows, row.condensed_edges,
              row.full_edges, row.serial.median_ms, row.parallel.median_ms,
              row.Speedup(), row.fused.median_ms, row.unfused.median_ms,
              row.parity ? "ok" : "PARITY FAIL");
  bool ok = row.parity;
  rows.push_back(std::move(row));
  return ok;
}

// --cancel-at-ms=N: measures cooperative-cancellation latency instead of
// throughput. A deliberately heavy co-enrollment self-join (~1.6e9
// candidate pairs, several seconds uncancelled) is cancelled N ms after it
// starts; the harness reports how long the pipeline took to unwind after
// the flag was raised — the morsel-poll quantum made observable.
int RunCancelProbe(double cancel_at_ms) {
  std::printf("cancellation-latency probe (cancel at %.1fms)\n", cancel_at_ms);
  gen::GeneratedDatabase data = gen::MakeUniversity(10000, 40, 100, 40.0);
  planner::ExtractOptions opts = MakeOpts(0.0, Mode::kFused);
  opts.ctx.cancel = CancelToken::Cancellable();
  CancelToken token = opts.ctx.cancel;

  std::atomic<int64_t> cancel_ns{0};
  std::thread canceller([token, cancel_at_ms, &cancel_ns] {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        cancel_at_ms));
    cancel_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count(),
                    std::memory_order_release);
    token.RequestCancel();
  });
  WallTimer wall;
  auto result = planner::ExtractFromQuery(data.db, data.datalog, opts);
  const double total_ms = wall.Seconds() * 1e3;
  const int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  canceller.join();

  if (result.ok()) {
    std::printf(
        "extraction finished in %.1fms before the cancel landed — lower "
        "--cancel-at-ms to probe mid-flight unwind\n",
        total_ms);
    return 0;
  }
  if (result.status().code() != StatusCode::kCancelled) {
    std::fprintf(stderr, "FAIL: expected Cancelled, got %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const double unwind_ms =
      (now_ns - cancel_ns.load(std::memory_order_acquire)) * 1e-6;
  std::printf(
      "cancelled OK: total %.1fms, unwind latency after RequestCancel "
      "%.2fms\n",
      total_ms, unwind_ms);
  return 0;
}

}  // namespace
}  // namespace graphgen

int main(int argc, char** argv) {
  using graphgen::gen::MakeDblpLike;
  using graphgen::gen::MakeImdbLike;
  using graphgen::gen::MakeTpchLike;
  using graphgen::gen::MakeUniversity;

  std::string out_path = "BENCH_extraction.json";
  bool smoke = false;
  double cancel_at_ms = -1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--cancel-at-ms=", 15) == 0) {
      cancel_at_ms = std::atof(argv[i] + 15);
    }
  }
  if (cancel_at_ms >= 0) return graphgen::RunCancelProbe(cancel_at_ms);
  const double s = smoke ? 0.05 : graphgen::bench::BenchScale();
  // Smoke runs are sub-50ms per mode, so the repeat-of-3 default that
  // stabilizes the fused-vs-unfused regression gate costs almost nothing.
  const int iters = graphgen::bench::ParseRepeat(argc, argv, 3);

  graphgen::bench::PrintHeader(
      "Table 1 extraction: serial vs parallel columnar pipeline");
  std::printf(
      "(each timed run extracts both the condensed C-DUP graph and the\n"
      " fully expanded EXP graph; parity = bitwise-identical output;\n"
      " reported times are the median of %d runs)\n\n",
      iters);

  std::vector<graphgen::WorkloadRow> rows;
  bool all_ok = true;
  const graphgen::gen::GeneratedDatabase dblp =
      MakeDblpLike(static_cast<size_t>(16000 * s),
                   static_cast<size_t>(30000 * s), 5.0);
  all_ok &= graphgen::RunWorkload("DBLP", dblp, iters, rows);
  all_ok &= graphgen::RunWorkload(
      "IMDB",
      MakeImdbLike(static_cast<size_t>(9000 * s),
                   static_cast<size_t>(4000 * s), 10.0),
      iters, rows);
  all_ok &= graphgen::RunWorkload(
      "TPCH",
      MakeTpchLike(static_cast<size_t>(2000 * s),
                   static_cast<size_t>(8000 * s),
                   static_cast<size_t>(60 * s) + 20, 3.0),
      iters, rows);
  all_ok &= graphgen::RunWorkload(
      "UNIV",
      MakeUniversity(static_cast<size_t>(1500 * s), 40,
                     static_cast<size_t>(50 * s) + 10, 4.0),
      iters, rows);

  double geo = 1.0;
  double fuse_geo = 1.0;
  size_t counted = 0;
  size_t fuse_counted = 0;
  for (const auto& r : rows) {
    if (r.Speedup() > 0) {
      geo *= r.Speedup();
      ++counted;
    }
    if (r.FusedVsUnfused() > 0) {
      fuse_geo *= r.FusedVsUnfused();
      ++fuse_counted;
    }
  }
  geo = counted > 0 ? std::pow(geo, 1.0 / static_cast<double>(counted)) : 0.0;
  fuse_geo = fuse_counted > 0
                 ? std::pow(fuse_geo, 1.0 / static_cast<double>(fuse_counted))
                 : 0.0;
  std::printf("\ngeometric-mean extraction speedup: %.2fx (%zu workloads)\n",
              geo, counted);
  std::printf("geometric-mean fused vs unfused: %.2fx\n", fuse_geo);
  std::printf(
      "Paper shape check: EXP >> C-DUP everywhere; TPCH/UNIV show the\n"
      "space explosion (dense co-purchase / co-enrollment cliques).\n");

  // Smoke regression gate: the forced-fused pipeline must stay within 20%
  // of the unfused operator chain (geomean) — a divergence from the
  // serial run is caught by the parity checks above.
  bool fuse_regressed = false;
  if (smoke && fuse_counted > 0 && fuse_geo < 1.0 / 1.2) {
    std::fprintf(stderr,
                 "FAIL: fused join->DISTINCT geomean %.2fx is more than 20%% "
                 "slower than the unfused chain on the smoke workloads\n",
                 fuse_geo);
    fuse_regressed = true;
  }

  // Smoke observability gate: the flight recorder (spans, histograms,
  // profile trees) must cost < 3% on the fused extraction path. Counters
  // always record, so the toggle isolates exactly the instrumentation
  // that GRAPHGEN_OBS_OFF disables. Min-of-N on both sides rejects
  // scheduler noise; the absolute slack keeps the gate meaningful when 3%
  // of a sub-10ms smoke run is below the timer's jitter floor.
  bool obs_regressed = false;
  if (smoke) {
    const int gate_iters = 15;
    auto fused_once = [&] {
      (void)graphgen::planner::ExtractFromQuery(
          dblp.db, dblp.datalog,
          graphgen::MakeOpts(1e18, graphgen::Mode::kFused));
    };
    const bool was_enabled = graphgen::obs::Enabled();
    graphgen::obs::SetEnabled(true);
    const double min_on = graphgen::bench::MinMs(gate_iters, fused_once);
    graphgen::obs::SetEnabled(false);
    const double min_off = graphgen::bench::MinMs(gate_iters, fused_once);
    graphgen::obs::SetEnabled(was_enabled);
    const double limit = min_off * 1.03 + 1.0;
    std::printf(
        "\nobservability overhead (fused path, min of %d): on %.2fms, "
        "off %.2fms, limit %.2fms\n",
        gate_iters, min_on, min_off, limit);
    if (min_on > limit) {
      std::fprintf(stderr,
                   "FAIL: instrumentation overhead %.2fms (on) vs %.2fms "
                   "(off) exceeds the 3%%+1ms gate\n",
                   min_on, min_off);
      obs_regressed = true;
    }
  }

  // Smoke robustness gate: the cancellation/deadline/budget plumbing and
  // the disarmed fault points must together cost < 1% on the fused path.
  // "Armed" here means the worst no-fault case: every registered point
  // armed at a probability that rounds to zero ppm (Fire() runs, nothing
  // fires) plus a live cancel token and a far deadline, so every strided
  // poll actually executes Check(). Min-of-N on both sides rejects
  // scheduler noise; the 1ms absolute slack keeps the gate meaningful when
  // 1% of a sub-10ms smoke run is below the timer's jitter floor.
  bool robust_regressed = false;
  if (smoke) {
    const int gate_iters = 15;
    graphgen::fault::FaultRegistry& faults =
        graphgen::fault::FaultRegistry::Instance();
    faults.DisarmAll();
    const double min_plain = graphgen::bench::MinMs(gate_iters, [&] {
      (void)graphgen::planner::ExtractFromQuery(
          dblp.db, dblp.datalog,
          graphgen::MakeOpts(1e18, graphgen::Mode::kFused));
    });
    graphgen::fault::FaultSpec never_fires;
    never_fires.probability = 1e-9;  // armed; rounds to 0 ppm
    for (const std::string& name : faults.Names()) {
      faults.Arm(name, never_fires);
    }
    const double min_armed = graphgen::bench::MinMs(gate_iters, [&] {
      graphgen::planner::ExtractOptions opts =
          graphgen::MakeOpts(1e18, graphgen::Mode::kFused);
      opts.ctx.cancel = graphgen::CancelToken::Cancellable();
      opts.ctx.SetDeadlineAfter(3600.0);
      (void)graphgen::planner::ExtractFromQuery(dblp.db, dblp.datalog, opts);
    });
    faults.DisarmAll();
    const double limit = min_plain * 1.01 + 1.0;
    std::printf(
        "robustness overhead (fused path, min of %d): plain %.2fms, "
        "armed+ctx %.2fms, limit %.2fms\n",
        gate_iters, min_plain, min_armed, limit);
    if (min_armed > limit) {
      std::fprintf(stderr,
                   "FAIL: robustness plumbing overhead %.2fms (armed) vs "
                   "%.2fms (plain) exceeds the 1%%+1ms gate\n",
                   min_armed, min_plain);
      robust_regressed = true;
    }
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"table1_extraction\",\n");
    std::fprintf(f, "  \"scale\": %g,\n  \"threads\": %zu,\n", s,
                 graphgen::DefaultThreadCount());
    std::fprintf(
        f,
        "  \"serial\": \"columnar pipeline (adaptive fused "
        "join->DISTINCT, typed-key assembly), 1 thread\",\n"
        "  \"parallel\": \"columnar pipeline (adaptive fused "
        "join->DISTINCT, typed-key assembly), hardware threads\",\n");
    std::fprintf(f, "  \"repeat\": %d,\n", iters);
    std::fprintf(f, "  \"workloads\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"input_rows\": %" PRIu64
                   ", \"condensed_edges\": %" PRIu64 ", \"full_edges\": %" PRIu64
                   ", \"serial_ms\": %.2f, \"parallel_ms\": %.2f, "
                   "\"speedup\": %.2f, \"fused_ms\": %.2f, "
                   "\"unfused_ms\": %.2f,\n     \"serial_min_ms\": %.2f, "
                   "\"parallel_min_ms\": %.2f, \"fused_min_ms\": %.2f, "
                   "\"unfused_min_ms\": %.2f, \"parity\": %s,\n"
                   "     \"profile_stages_ms\": {",
                   r.name.c_str(), r.input_rows, r.condensed_edges,
                   r.full_edges, r.serial.median_ms, r.parallel.median_ms,
                   r.Speedup(), r.fused.median_ms, r.unfused.median_ms,
                   r.serial.min_ms, r.parallel.min_ms, r.fused.min_ms,
                   r.unfused.min_ms, r.parity ? "true" : "false");
      for (size_t k = 0; k < r.stage_ms.size(); ++k) {
        std::fprintf(f, "%s\"%s\": %.3f", k > 0 ? ", " : "",
                     r.stage_ms[k].first.c_str(), r.stage_ms[k].second);
      }
      std::fprintf(f, "}}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"geomean_speedup\": %.2f,\n"
                 "  \"geomean_fused_vs_unfused\": %.2f\n}\n",
                 geo, fuse_geo);
    std::fclose(f);
    std::printf("JSON written to %s\n", out_path.c_str());
  }

  if (!all_ok || fuse_regressed || obs_regressed || robust_regressed) {
    std::fprintf(stderr,
                 "FAIL: extraction error, parity mismatch, fused-path, "
                 "instrumentation, or robustness-plumbing regression (see "
                 "lines above)\n");
    return 1;
  }
  return 0;
}
