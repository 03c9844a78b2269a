// bench_graphgen — the benchmark of record for graphgen.
//
// Four workloads, each run in its own process for a fixed duration:
//
//   extract_expanded   one client; each request is GraphGen::Extract on a
//                      DBLP-like database (the §6.5 policy picks EXP) and
//                      PageRank. Query, planning, preprocessing and the
//                      expander do the work; dedup does none.
//   extract_condensed  the same loop on a TPC-H-like database, where the
//                      policy picks BITMAP-2: the paper's trade-off of a
//                      costly dedup build and condensed-graph kernels.
//   serve_live         four clients against one GraphService holding both
//                      schemas. 99% reads (Extract, FlatView, PageRank) over
//                      8 keys that fit the cache; 1% appends of rows withheld
//                      from the initial load, sent as CSV text. Exercises
//                      cache hits, delta patching and ingest contention.
//   serve_churn        four clients over 64 DBLP keys whose summed footprint
//                      is several times the cache budget, with at most two
//                      cold extractions admitted at once: eviction,
//                      admission and concurrent cold extraction.
//
// Usage:
//   bench_graphgen --workload=<name> --seed=<n> --seconds=<s>
//                  [--trace=<spans.json>] [--out=<record.json>]
//                  [--git-sha=<sha>]
//   bench_graphgen --smoke [--seed=<n>]
//
// Without --trace the run reports the end-to-end metrics. With --trace
// every other request is decomposed into the layers' public calls, one
// span per call, and the run reports per-layer metrics and writes the
// spans. Every run checks its outputs (PageRank mass, graph equality
// against reference extractions) and exits 1 when a check fails. The
// last stdout line is the one-line JSON result. --smoke runs all four
// workloads on tiny inputs through the same code paths and checks.
//
// The thread budget is min(nproc, 4) per process: one-shot workloads run
// one client with a pipeline of that width, serving workloads run that
// many clients with single-threaded pipelines. The harness pins
// GRAPHGEN_THREADS to the pipeline width so the library's implicit
// parallel loops stay inside the budget. Input sizes are fixed here; no
// environment variable resizes them.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algos/pagerank.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/graphgen.h"
#include "core/representation_picker.h"
#include "datalog/parser.h"
#include "datalog/validator.h"
#include "gen/relational_generators.h"
#include "obs/metrics.h"
#include "planner/extractor.h"
#include "planner/preprocess.h"
#include "record.h"
#include "relational/csv_loader.h"
#include "service/graph_service.h"
#include "trace.h"

#ifndef GRAPHGEN_BENCH_BUILD_TYPE
#define GRAPHGEN_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace graphgen;
using benchrec::MetricKind;
using benchrec::Percentile;
using benchrec::ScopedSpan;
using benchrec::SpanLog;

const char* const kWorkloads[] = {"extract_expanded", "extract_condensed",
                                  "serve_live", "serve_churn"};

/// Set-up is repeated and its median reported, so work moved into set-up
/// shows; the last repetition's state serves the timed phase.
constexpr int kSetupRepeats = 3;
/// serve_live: share of each link table withheld from the initial load,
/// the share of that tail one append sends, and the share of appends.
constexpr double kWithheldShare = 0.20;
constexpr double kBatchShareOfTail = 0.0025;
constexpr double kAppendShare = 0.01;
/// At these shapes the §6.5 policy picks EXP for the DBLP-like data and
/// BITMAP-2 for the TPC-H-like data.
constexpr double kAuthorsPerPub = 3.0;
constexpr double kLinesPerOrder = 3.0;
/// serve_live's cache budget; its 8 keys need about 32 MB.
constexpr size_t kLiveCacheBytes = size_t{256} << 20;
/// serve_churn admits at most this many cold extractions at once.
constexpr size_t kChurnMaxInflight = 2;

/// Input sizes: the benchmark's, or --smoke's tiny ones.
struct Sizes {
  size_t dblp_authors = 16000;
  size_t dblp_pubs = 30000;
  size_t tpch_customers = 500;
  size_t tpch_orders = 2000;
  size_t tpch_parts = 60;
  size_t churn_keys = 64;
  int64_t churn_step = 100;
  size_t churn_cache_bytes = size_t{128} << 20;
};

Sizes SmokeSizes() {
  Sizes s;
  s.dblp_authors = 1200;
  s.dblp_pubs = 2000;
  s.tpch_customers = 150;
  s.tpch_orders = 600;
  s.tpch_parts = 20;
  s.churn_keys = 12;
  s.churn_step = 20;
  s.churn_cache_bytes = size_t{512} << 10;
  return s;
}

size_t ThreadBudget() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 1 : hw, 1, 4);
}

/// The generated relations are fixed, like a benchmark's scale factor, so
/// graph sizes repeat exactly and timings of different seeds compare. The
/// run's seed orders the rows of every link table and drives the clients.
constexpr uint64_t kDblpDataSeed = 3;
constexpr uint64_t kTpchDataSeed = 4;
uint64_t RowOrderSeed(uint64_t seed) { return seed * 2654435761u + 1; }
uint64_t ClientSeed(uint64_t seed, size_t client) {
  return seed * 1000003 + client + 7;
}
uint64_t RequestId(size_t client, uint64_t i) {
  return (static_cast<uint64_t>(client) << 40) | i;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool RanksSumToOne(const std::vector<double>& ranks, const Graph& g) {
  if (g.NumActiveVertices() == 0) return ranks.empty();
  if (ranks.size() != g.NumVertices()) return false;
  const double sum = std::accumulate(ranks.begin(), ranks.end(), 0.0);
  return std::abs(sum - 1.0) <= 1e-6;
}

/// The canonical query with `ID < limit` added to its Nodes rule (the
/// generators' Nodes rule comes first and ends the first line).
std::string WithNodesFilter(const std::string& datalog, int64_t limit) {
  const size_t end = datalog.find(".\n");
  if (end == std::string::npos) return datalog;
  return datalog.substr(0, end) + ", ID < " + std::to_string(limit) +
         datalog.substr(end);
}

/// Seconds the executor spent in query operators, from a profile tree:
/// each executed query is a "rule", "segment" or "count_query" node.
double QuerySeconds(const obs::ProfileNode& node) {
  if (node.name == "rule" || node.name == "segment" ||
      node.name == "count_query") {
    return node.seconds;
  }
  double total = 0.0;
  for (const obs::ProfileNode& child : node.children) {
    total += QuerySeconds(child);
  }
  return total;
}

const obs::ProfileNode* FindChild(const obs::ProfileNode& node,
                                  const std::string& name) {
  for (const obs::ProfileNode& child : node.children) {
    if (child.name == name) return &child;
  }
  return nullptr;
}

// ---------------------------------------------------------------- results

/// Sizes of each distinct key's graph at its first extraction.
struct GraphSizes {
  uint64_t footprint = 0;
  uint64_t adjacency = 0;
  uint64_t property = 0;
  uint64_t aux = 0;
  uint64_t virtual_nodes = 0;
  uint64_t condensed_edges = 0;
  uint64_t expanded_edges = 0;
  uint64_t keys = 0;

  void Add(const ExtractedGraph& g) {
    const GraphFootprint fp = g.graph->MemoryFootprint();
    footprint += g.FootprintBytes();
    adjacency += fp.adjacency_bytes;
    property += fp.property_bytes;
    aux += fp.aux_bytes;
    virtual_nodes += g.stats.virtual_nodes;
    condensed_edges += g.stats.condensed_edges;
    expanded_edges += g.graph->CountExpandedEdges();
    ++keys;
  }
  void Merge(const GraphSizes& o) {
    footprint += o.footprint;
    adjacency += o.adjacency;
    property += o.property;
    aux += o.aux;
    virtual_nodes += o.virtual_nodes;
    condensed_edges += o.condensed_edges;
    expanded_edges += o.expanded_edges;
    keys += o.keys;
  }
};

/// Executor work counters from the process-wide metrics registry.
struct QueryCounters {
  uint64_t scan_rows_in = 0;
  uint64_t join_matches = 0;
  uint64_t distinct_in = 0;
  uint64_t distinct_out = 0;

  static QueryCounters Now() {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    return {r.GetCounter("query.scan.rows_in")->Value(),
            r.GetCounter("query.join.matches")->Value(),
            r.GetCounter("query.distinct.rows_in")->Value(),
            r.GetCounter("query.distinct.rows_out")->Value()};
  }
  QueryCounters Since(const QueryCounters& before) const {
    return {scan_rows_in - before.scan_rows_in,
            join_matches - before.join_matches,
            distinct_in - before.distinct_in, distinct_out - before.distinct_out};
  }
};

/// One closed-loop client's observations. Each client thread owns one.
struct Client {
  explicit Client(uint64_t seed) : rng(seed) {}

  void Error(std::string msg) {
    if (errors.size() < 8) errors.push_back(std::move(msg));
  }
  void Fail(const Status& st) {
    ++failed;
    if (failures.size() < 4) failures.push_back(st.ToString());
  }

  Rng rng;
  std::vector<double> read_ms;      // every completed read
  std::vector<double> fresh_ms;     // reads that got a graph new to this client
  std::vector<double> traced_ms;    // traced reads (trace runs only)
  std::vector<double> untraced_ms;  // untraced reads (trace runs only)
  std::vector<double> append_ms;
  std::vector<double> cold_ms;      // cold extractions behind new handles
  std::vector<double> patch_ms;     // delta patches behind new handles
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t same_handle = 0;
  uint64_t new_handle = 0;
  uint64_t rows_appended = 0;
  SpanLog spans;
  benchrec::LayerTimes layers;        // samples read from profiles
  std::vector<std::string> errors;    // failed correctness checks
  std::vector<std::string> failures;  // first non-OK statuses
  std::vector<std::weak_ptr<const ExtractedGraph>> last;  // per key
};

/// Runs one closed-loop thread per client until `seconds` have passed;
/// op(client, index, iteration) is one operation. Returns the wall time.
template <typename Op>
double RunClosedLoop(std::vector<Client>& clients, double seconds,
                     const Op& op) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&clients, &op, deadline, c] {
      Client& client = clients[c];
      try {
        for (uint64_t i = 0; Clock::now() < deadline; ++i) op(client, c, i);
      } catch (const std::exception& e) {
        client.Error(std::string("client threw: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return wall.Seconds();
}

struct Outcome {
  benchrec::Report report;
  std::vector<benchrec::Dataset> datasets;
  std::vector<std::string> errors;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t clients = 0;
  size_t pipeline_threads = 0;
  std::vector<Client> client_state;  // holds the span logs
};

/// Service counter changes over the timed phase (serving workloads only).
struct ServiceDelta {
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t patched = 0;
  uint64_t fallback = 0;
  uint64_t coalesced = 0;
  uint64_t evictions = 0;
  uint64_t overload = 0;

  static ServiceDelta Between(const service::ServiceStats& a,
                              const service::ServiceStats& b) {
    return {b.requests - a.requests,         b.cache_hits - a.cache_hits,
            b.delta_patched - a.delta_patched, b.delta_fallback - a.delta_fallback,
            b.coalesced - a.coalesced,       b.evictions - a.evictions,
            b.overload_rejected - a.overload_rejected};
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Adds the end-to-end and per-layer metrics of a finished timed phase.
void ReportMetrics(const std::vector<double>& setup_s, double wall_s,
                   double peak_rss_mb, const GraphSizes& sizes,
                   const QueryCounters& query, const ServiceDelta* svc,
                   Outcome& out) {
  std::vector<double> read_ms, fresh_ms, traced_ms, untraced_ms, append_ms,
      cold_ms, patch_ms;
  uint64_t same = 0, fresh = 0, rows_appended = 0;
  benchrec::LayerTimes layers;
  for (const Client& c : out.client_state) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(read_ms, c.read_ms);
    append(fresh_ms, c.fresh_ms);
    append(traced_ms, c.traced_ms);
    append(untraced_ms, c.untraced_ms);
    append(append_ms, c.append_ms);
    append(cold_ms, c.cold_ms);
    append(patch_ms, c.patch_ms);
    same += c.same_handle;
    fresh += c.new_handle;
    rows_appended += c.rows_appended;
    layers.Merge(c.layers);
    layers.AddSpans(c.spans);
    out.attempted += c.attempted;
    out.failed += c.failed;
    out.errors.insert(out.errors.end(), c.errors.begin(), c.errors.end());
    out.failures.insert(out.failures.end(), c.failures.begin(),
                        c.failures.end());
  }
  const size_t reads = read_ms.size();
  if (benchrec::SamplesAbove(reads, 90) < 10) {
    std::fprintf(stderr,
                 "note: request_ms.p90 rests on %zu reads (fewer than 10 "
                 "above it)\n",
                 reads);
  }

  benchrec::Report& r = out.report;
  const MetricKind e2e = MetricKind::kEndToEnd;
  r.Add("setup_s", "s", Percentile(setup_s, 50), setup_s.size(), e2e);
  r.Add("graph_bytes", "B", static_cast<double>(sizes.footprint), sizes.keys,
        e2e);
  r.Add("peak_rss_mb", "MB", peak_rss_mb, 1, e2e);

  // Request timings are per-layer: on a shared host they drift with the
  // neighbours' load by more than a 10% bound between runs minutes apart.
  // Tracing moves them by a few percent (trace.overhead_pct), so a traced
  // run reports them too.
  const MetricKind layer = MetricKind::kPerLayer;
  r.Add("request_ms.p50", "ms", Percentile(read_ms, 50), reads, layer);
  r.Add("request_ms.p90", "ms", Percentile(read_ms, 90), reads, layer);
  r.Add("requests_per_s", "1/s", Ratio(static_cast<double>(reads), wall_s),
        reads, layer);
  r.Add("fresh_read_ms.p50", "ms", Percentile(fresh_ms, 50), fresh_ms.size(),
        layer);
  for (const char* name :
       {"datalog.parse", "planner.extract", "planner.preprocess",
        "core.choose_repr", "dedup.build", "repr.expand", "repr.csr_build",
        "algos.pagerank", "query.ops", "service.extract",
        "relational.csv_parse", "service.append"}) {
    layers.AddTo(name, r);
  }
  const double per_read = static_cast<double>(std::max<size_t>(reads, 1));
  r.Add("query.scan.rows_in", "rows/req",
        static_cast<double>(query.scan_rows_in) / per_read, reads, layer);
  r.Add("query.join.matches", "rows/req",
        static_cast<double>(query.join_matches) / per_read, reads, layer);
  r.Add("query.distinct.keep_ratio", "ratio",
        Ratio(static_cast<double>(query.distinct_out),
              static_cast<double>(query.distinct_in)),
        query.distinct_in, layer);
  r.Add("planner.virtual_nodes", "count",
        static_cast<double>(sizes.virtual_nodes), sizes.keys, layer);
  r.Add("planner.condensed_edges", "count",
        static_cast<double>(sizes.condensed_edges), sizes.keys, layer);
  r.Add("repr.adjacency_bytes", "B", static_cast<double>(sizes.adjacency),
        sizes.keys, layer);
  r.Add("repr.property_bytes", "B", static_cast<double>(sizes.property),
        sizes.keys, layer);
  r.Add("repr.aux_bytes", "B", static_cast<double>(sizes.aux), sizes.keys,
        layer);
  r.Add("repr.expansion_ratio", "ratio",
        Ratio(static_cast<double>(sizes.expanded_edges),
              static_cast<double>(sizes.condensed_edges)),
        sizes.keys, layer);

  const ServiceDelta none;
  const ServiceDelta& s = svc != nullptr ? *svc : none;
  r.Add("service.extract_same", "count", static_cast<double>(same), reads,
        layer);
  r.Add("service.extract_new", "count", static_cast<double>(fresh), reads,
        layer);
  r.Add("service.hit_ratio", "ratio",
        Ratio(static_cast<double>(s.hits), static_cast<double>(s.requests)),
        s.requests, layer);
  r.Add("service.patch_ratio", "ratio",
        Ratio(static_cast<double>(s.patched),
              static_cast<double>(s.patched + s.fallback)),
        s.patched + s.fallback, layer);
  r.Add("service.cold_extract_ms.p50", "ms", Percentile(cold_ms, 50),
        cold_ms.size(), layer);
  r.Add("service.patch_ms.p50", "ms", Percentile(patch_ms, 50),
        patch_ms.size(), layer);
  r.Add("service.coalesced", "count", static_cast<double>(s.coalesced),
        s.requests, layer);
  r.Add("service.evictions", "count", static_cast<double>(s.evictions),
        s.requests, layer);
  r.Add("service.overload_rejected", "count", static_cast<double>(s.overload),
        s.requests, layer);
  r.Add("service.append_ms.p50", "ms", Percentile(append_ms, 50),
        append_ms.size(), layer);
  r.Add("service.append_ms.p90", "ms", Percentile(append_ms, 90),
        append_ms.size(), layer);
  r.Add("relational.rows_appended", "count",
        static_cast<double>(rows_appended), append_ms.size(), layer);
  const double traced_p50 = Percentile(traced_ms, 50);
  const double untraced_p50 = Percentile(untraced_ms, 50);
  r.Add("trace.overhead_pct", "%",
        untraced_p50 > 0 && traced_p50 > 0
            ? (traced_p50 / untraced_p50 - 1.0) * 100.0
            : 0.0,
        traced_ms.size(), layer);
}

benchrec::Dataset DescribeDataset(
    const std::string& generator,
    std::vector<std::pair<std::string, std::string>> params,
    const rel::Database& db) {
  benchrec::Dataset d{generator, std::move(params), {}};
  for (const std::string& name : db.TableNames()) {
    Result<const rel::Table*> t = db.GetTable(name);
    if (t.ok()) d.rows.emplace_back(name, (*t)->NumRows());
  }
  return d;
}

std::vector<std::pair<std::string, std::string>> DblpParams(const Sizes& s,
                                                            uint64_t seed) {
  return {{"num_authors", std::to_string(s.dblp_authors)},
          {"num_pubs", std::to_string(s.dblp_pubs)},
          {"authors_per_pub", benchrec::JsonNumber(kAuthorsPerPub)},
          {"seed", std::to_string(kDblpDataSeed)},
          {"row_order_seed", std::to_string(RowOrderSeed(seed))}};
}

std::vector<std::pair<std::string, std::string>> TpchParams(const Sizes& s,
                                                            uint64_t seed) {
  return {{"num_customers", std::to_string(s.tpch_customers)},
          {"num_orders", std::to_string(s.tpch_orders)},
          {"num_parts", std::to_string(s.tpch_parts)},
          {"lines_per_order", benchrec::JsonNumber(kLinesPerOrder)},
          {"seed", std::to_string(kTpchDataSeed)},
          {"row_order_seed", std::to_string(RowOrderSeed(seed))}};
}

/// The two int64 columns of a generated link table.
struct LinkRows {
  std::vector<int64_t> a;
  std::vector<int64_t> b;
};

Result<LinkRows> ReadLinkRows(const rel::Table& t) {
  LinkRows rows;
  GRAPHGEN_ASSIGN_OR_RETURN(rows.a, t.Int64Column(0));
  GRAPHGEN_ASSIGN_OR_RETURN(rows.b, t.Int64Column(1));
  return rows;
}

/// Rows [begin, end) of `rows` in a random order drawn from `rng`.
LinkRows ShuffledRange(const LinkRows& rows, size_t begin, size_t end,
                       Rng& rng) {
  std::vector<size_t> order(end - begin);
  std::iota(order.begin(), order.end(), begin);
  rng.Shuffle(order);
  LinkRows out;
  out.a.reserve(order.size());
  out.b.reserve(order.size());
  for (const size_t i : order) {
    out.a.push_back(rows.a[i]);
    out.b.push_back(rows.b[i]);
  }
  return out;
}

rel::Table LinkTable(const std::string& name, const rel::Schema& schema,
                     LinkRows rows) {
  std::vector<rel::ColumnVector> cols;
  cols.push_back(rel::ColumnVector::OfInt64(std::move(rows.a)));
  cols.push_back(rel::ColumnVector::OfInt64(std::move(rows.b)));
  return rel::Table::FromColumns(name, schema, std::move(cols));
}

/// Replaces each named link table of `db` by its rows in seeded order.
Status ShuffleLinkTables(rel::Database& db,
                         std::initializer_list<const char*> names,
                         Rng& rng) {
  for (const char* name : names) {
    GRAPHGEN_ASSIGN_OR_RETURN(const rel::Table* t, db.GetTable(name));
    GRAPHGEN_ASSIGN_OR_RETURN(const LinkRows rows, ReadLinkRows(*t));
    db.PutTable(LinkTable(name, t->schema(),
                          ShuffledRange(rows, 0, rows.a.size(), rng)));
  }
  return Status::OK();
}

gen::GeneratedDatabase MakeDblp(const Sizes& s) {
  return gen::MakeDblpLike(s.dblp_authors, s.dblp_pubs, kAuthorsPerPub,
                           kDblpDataSeed);
}

gen::GeneratedDatabase MakeTpch(const Sizes& s) {
  return gen::MakeTpchLike(s.tpch_customers, s.tpch_orders, s.tpch_parts,
                           kLinesPerOrder, kTpchDataSeed);
}

// ------------------------------------------------------ one-shot workloads

/// GraphGen::Extract split into the layers' public calls, one span each.
/// Yields the same graph as the single call (the traced run checks it).
Result<ExtractedGraph> TracedExtract(const rel::Database& db,
                                     std::string_view datalog,
                                     const GraphGenOptions& options,
                                     SpanLog* log, int32_t parent,
                                     uint64_t req) {
  dsl::Program program;
  {
    ScopedSpan span(log, "datalog.parse", parent, req);
    GRAPHGEN_ASSIGN_OR_RETURN(program, dsl::Parse(datalog));
    GRAPHGEN_RETURN_NOT_OK(dsl::Validate(program, db));
  }
  planner::ExtractOptions extract = options.extract;
  extract.preprocess = false;
  planner::ExtractionResult extraction;
  {
    ScopedSpan span(log, "planner.extract", parent, req);
    GRAPHGEN_ASSIGN_OR_RETURN(extraction,
                              planner::Extract(db, program, extract));
  }
  if (options.extract.preprocess) {
    ScopedSpan span(log, "planner.preprocess", parent, req);
    (void)planner::ExpandSmallVirtualNodes(extraction.storage, extract.threads);
  }
  GraphGenOptions build = options;
  {
    ScopedSpan span(log, "core.choose_repr", parent, req);
    build.representation =
        ChooseRepresentation(extraction.storage, options.expand_threshold);
  }
  ExtractedGraph out;
  {
    ScopedSpan span(log,
                    build.representation == Representation::kExp
                        ? "repr.expand"
                        : "dedup.build",
                    parent, req);
    GRAPHGEN_ASSIGN_OR_RETURN(
        out, GraphGen::Materialize(std::move(extraction.storage), build));
  }
  out.stats.profile = std::move(extraction.profile);
  return out;
}

Outcome RunOneShot(bool condensed, const Sizes& s, uint64_t seed,
                   double seconds, bool tracing) {
  Outcome out;
  const size_t threads = ThreadBudget();
  out.clients = 1;
  out.pipeline_threads = threads;
  GraphGenOptions options;
  options.extract.threads = threads;
  options.dedup.threads = threads;
  PageRankOptions pr;
  pr.threads = threads;

  std::unique_ptr<gen::GeneratedDatabase> data;
  ExtractedGraph ref;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    data.reset();
    ref = ExtractedGraph();
    WallTimer timer;
    data = std::make_unique<gen::GeneratedDatabase>(condensed ? MakeTpch(s)
                                                              : MakeDblp(s));
    Rng rows(RowOrderSeed(seed));
    const Status shuffled =
        condensed ? ShuffleLinkTables(data->db, {"Orders", "LineItem"}, rows)
                  : ShuffleLinkTables(data->db, {"AuthorPub"}, rows);
    if (!shuffled.ok()) {
      out.errors.push_back("set-up failed: " + shuffled.ToString());
      return out;
    }
    Result<ExtractedGraph> warm = GraphGen(&data->db).Extract(data->datalog, options);
    if (!warm.ok()) {
      out.errors.push_back("set-up extraction failed: " + warm.status().ToString());
      return out;
    }
    ref = std::move(*warm);
    const std::vector<double> ranks = PageRank(*ref.graph, pr);
    setup_s.push_back(timer.Seconds());
    if (!RanksSumToOne(ranks, *ref.graph)) {
      out.errors.push_back("set-up PageRank does not sum to 1");
    }
  }
  out.datasets.push_back(condensed ? DescribeDataset("MakeTpchLike",
                                                     TpchParams(s, seed), data->db)
                                   : DescribeDataset("MakeDblpLike",
                                                     DblpParams(s, seed), data->db));
  out.datasets.back().params.emplace_back(
      "representation", std::string(RepresentationToString(ref.representation)));
  GraphSizes sizes;
  sizes.Add(ref);

  std::vector<std::pair<NodeId, NodeId>> ref_edges;
  if (tracing) ref_edges = ref.graph->ExpandedEdgeSet();
  const size_t ref_vertices = ref.graph->NumActiveVertices();
  const uint64_t ref_stored = ref.graph->CountStoredEdges();
  const GraphGen engine(&data->db);
  bool compared = false;

  out.client_state.emplace_back(ClientSeed(seed, 0));
  const QueryCounters q0 = QueryCounters::Now();
  const double wall = RunClosedLoop(
      out.client_state, seconds, [&](Client& c, size_t ci, uint64_t i) {
        const bool traced = tracing && i % 2 == 1;
        SpanLog* log = traced ? &c.spans : nullptr;
        const uint64_t req = RequestId(ci, i);
        ++c.attempted;
        WallTimer timer;
        ScopedSpan root(log, "request", -1, req);
        Result<ExtractedGraph> g =
            traced ? TracedExtract(data->db, data->datalog, options, log,
                                   root.id(), req)
                   : engine.Extract(data->datalog, options);
        if (!g.ok()) {
          c.Fail(g.status());
          return;
        }
        std::vector<double> ranks;
        {
          ScopedSpan span(log, "algos.pagerank", root.id(), req);
          ranks = PageRank(*g->graph, pr);
        }
        root.End();
        const double ms = timer.Millis();
        c.read_ms.push_back(ms);
        c.fresh_ms.push_back(ms);
        if (tracing) (traced ? c.traced_ms : c.untraced_ms).push_back(ms);

        if (!RanksSumToOne(ranks, *g->graph)) {
          c.Error("PageRank does not sum to 1");
        }
        if (g->representation != ref.representation ||
            g->graph->NumActiveVertices() != ref_vertices ||
            g->graph->CountStoredEdges() != ref_stored) {
          c.Error("request graph differs from the set-up extraction");
        }
        if (traced) {
          const double q = QuerySeconds(g->stats.profile.root);
          c.layers.Add("query.ops", q, q);
          if (!compared) {
            compared = true;
            if (g->graph->ExpandedEdgeSet() != ref_edges) {
              c.Error("traced decomposition differs from GraphGen::Extract");
            }
          }
        }
      });
  const double rss = PeakRssMb();
  ReportMetrics(setup_s, wall, rss, sizes, QueryCounters::Now().Since(q0),
                nullptr, out);
  return out;
}

// ------------------------------------------------------- serving workloads

struct ServeCtx {
  service::GraphService* svc = nullptr;
  std::vector<std::string> keys;
  /// serve_churn: each key's set-up vertex and stored-edge counts.
  std::vector<std::pair<size_t, uint64_t>> expected;
  PageRankOptions pr;
  bool tracing = false;

  /// Handles already folded into the per-layer samples (trace runs).
  Mutex seen_mu;
  std::unordered_map<const ExtractedGraph*, std::weak_ptr<const ExtractedGraph>>
      seen GUARDED_BY(seen_mu);

  /// True the first time any client sees `h` in this run.
  bool FirstSighting(const service::GraphHandle& h) {
    MutexLock lock(seen_mu);
    std::weak_ptr<const ExtractedGraph>& slot = seen[h.get()];
    if (slot.lock() == h) return false;
    slot = h;
    return true;
  }

  /// Marks each key's set-up graph as seen by every client, so only graphs
  /// the timed phase produces count as fresh reads and feed the per-layer
  /// samples.
  void Prime(const std::vector<std::weak_ptr<const ExtractedGraph>>& warm,
             std::vector<Client>& clients) {
    MutexLock lock(seen_mu);
    for (const std::weak_ptr<const ExtractedGraph>& w : warm) {
      if (const service::GraphHandle h = w.lock()) seen[h.get()] = h;
    }
    for (Client& c : clients) c.last = warm;
  }
};

/// Per-layer samples carried by a handle the service just produced: a
/// cold extraction's profile, or the wall time of a delta patch.
void RecordNewHandle(const ExtractedGraph& g, Client& c) {
  const obs::QueryProfile& p = g.stats.profile;
  if (p.empty()) {
    c.patch_ms.push_back(p.wall_seconds * 1e3);
    return;
  }
  c.cold_ms.push_back(p.wall_seconds * 1e3);
  double planner_s = 0.0;
  for (const char* stage : {"nodes", "edges"}) {
    if (const obs::ProfileNode* n = FindChild(p.root, stage)) planner_s += n->seconds;
  }
  c.layers.Add("planner.extract", planner_s, planner_s);
  if (const obs::ProfileNode* n = FindChild(p.root, "preprocess")) {
    c.layers.Add("planner.preprocess", n->seconds, n->seconds);
  }
  if (const obs::ProfileNode* n = FindChild(p.root, "materialize")) {
    c.layers.Add(n->detail == "EXP" ? "repr.expand" : "dedup.build", n->seconds,
                 n->seconds);
  }
  const double q = QuerySeconds(p.root);
  c.layers.Add("query.ops", q, q);
}

/// One read: Extract, FlatView, PageRank on one thread.
void ServeRead(ServeCtx& ctx, Client& c, size_t key, bool traced,
               uint64_t req) {
  SpanLog* log = traced ? &c.spans : nullptr;
  ++c.attempted;
  WallTimer timer;
  ScopedSpan root(log, "request", -1, req);
  Result<service::GraphHandle> h = [&] {
    ScopedSpan span(log, "service.extract", root.id(), req);
    return ctx.svc->Extract(ctx.keys[key]);
  }();
  if (!h.ok()) {
    c.Fail(h.status());
    return;
  }
  const service::GraphHandle& g = *h;
  const bool fresh = c.last[key].lock() != g;
  std::shared_ptr<const Graph> view;
  {
    ScopedSpan span(fresh ? log : nullptr, "repr.csr_build", root.id(), req);
    view = ctx.svc->FlatView(g);
  }
  std::vector<double> ranks;
  {
    ScopedSpan span(log, "algos.pagerank", root.id(), req);
    ranks = PageRank(*view, ctx.pr);
  }
  root.End();
  const double ms = timer.Millis();
  c.read_ms.push_back(ms);
  if (fresh) {
    c.fresh_ms.push_back(ms);
    ++c.new_handle;
    c.last[key] = g;
  } else {
    ++c.same_handle;
  }
  if (ctx.tracing) {
    (traced ? c.traced_ms : c.untraced_ms).push_back(ms);
    if (fresh && ctx.FirstSighting(g)) RecordNewHandle(*g, c);
  }

  if (!RanksSumToOne(ranks, *view)) c.Error("PageRank does not sum to 1");
  if (!ctx.expected.empty() &&
      (g->graph->NumActiveVertices() != ctx.expected[key].first ||
       g->graph->CountStoredEdges() != ctx.expected[key].second)) {
    c.Error("key " + std::to_string(key) +
            " served a graph whose counts differ from set-up");
  }
}

service::ServiceOptions SingleThreadedService(size_t cache_bytes) {
  service::ServiceOptions o;
  o.cache_budget_bytes = cache_bytes;
  o.worker_threads = 1;
  o.default_options.extract.threads = 1;
  o.default_options.dedup.threads = 1;
  return o;
}

/// The withheld end of a two-int64-column link table, appended back in
/// batches during serve_live.
struct Tail {
  std::string table;
  std::string col_a;
  std::string col_b;
  LinkRows rows;
  size_t batch = 1;
};

/// Copies link table `name` from `src` into `dst`, holding back the newest
/// kWithheldShare of its generated rows in `tail`. Each part is shuffled
/// on its own, so the initial graph is the same for every seed.
Status CopyWithTail(const rel::Database& src, const std::string& name,
                    Rng& rng, rel::Database& dst, Tail& tail) {
  GRAPHGEN_ASSIGN_OR_RETURN(const rel::Table* t, src.GetTable(name));
  GRAPHGEN_ASSIGN_OR_RETURN(const LinkRows rows, ReadLinkRows(*t));
  const size_t n = rows.a.size();
  const size_t keep = n - static_cast<size_t>(static_cast<double>(n) * kWithheldShare);
  tail.table = name;
  tail.col_a = t->schema().column(0).name;
  tail.col_b = t->schema().column(1).name;
  tail.rows = ShuffledRange(rows, keep, n, rng);
  tail.batch = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(static_cast<double>(n - keep) *
                                       kBatchShareOfTail)));
  dst.PutTable(LinkTable(name, t->schema(), ShuffledRange(rows, 0, keep, rng)));
  return Status::OK();
}

Status CopyTable(const rel::Database& src, const std::string& name,
                 rel::Database& dst) {
  GRAPHGEN_ASSIGN_OR_RETURN(const rel::Table* t, src.GetTable(name));
  dst.PutTable(*t);
  return Status::OK();
}

struct LiveState {
  rel::Database db;
  std::unique_ptr<service::GraphService> svc;  // reads db; destroyed first
  std::vector<std::string> keys;
  Tail tails[2];
  Mutex tail_mu;
  size_t next[2] GUARDED_BY(tail_mu) = {0, 0};
  bool exhausted GUARDED_BY(tail_mu) = false;

  /// Reserves the next unsent batch, preferring table `prefer`. False when
  /// both tails are used up.
  bool NextBatch(size_t prefer, size_t* table, size_t* begin, size_t* end) {
    MutexLock lock(tail_mu);
    for (size_t k = 0; k < 2; ++k) {
      const size_t t = (prefer + k) % 2;
      if (next[t] >= tails[t].rows.a.size()) continue;
      *table = t;
      *begin = next[t];
      *end = std::min(tails[t].rows.a.size(), next[t] + tails[t].batch);
      next[t] = *end;
      return true;
    }
    exhausted = true;
    return false;
  }
};

Status BuildLive(const Sizes& s, uint64_t seed, LiveState& st) {
  gen::GeneratedDatabase dblp = MakeDblp(s);
  gen::GeneratedDatabase tpch = MakeTpch(s);
  Rng rows(RowOrderSeed(seed));
  GRAPHGEN_RETURN_NOT_OK(CopyTable(dblp.db, "Author", st.db));
  GRAPHGEN_RETURN_NOT_OK(CopyTable(dblp.db, "Pub", st.db));
  GRAPHGEN_RETURN_NOT_OK(
      CopyWithTail(dblp.db, "AuthorPub", rows, st.db, st.tails[0]));
  GRAPHGEN_RETURN_NOT_OK(CopyTable(tpch.db, "Customer", st.db));
  GRAPHGEN_RETURN_NOT_OK(CopyTable(tpch.db, "Orders", st.db));
  GRAPHGEN_RETURN_NOT_OK(ShuffleLinkTables(st.db, {"Orders"}, rows));
  GRAPHGEN_RETURN_NOT_OK(
      CopyWithTail(tpch.db, "LineItem", rows, st.db, st.tails[1]));
  const std::pair<const std::string*, size_t> schemas[] = {
      {&dblp.datalog, s.dblp_authors}, {&tpch.datalog, s.tpch_customers}};
  for (const auto& [datalog, entities] : schemas) {
    st.keys.push_back(*datalog);
    for (const double share : {0.75, 0.5, 0.25}) {
      st.keys.push_back(WithNodesFilter(
          *datalog, static_cast<int64_t>(static_cast<double>(entities) * share)));
    }
  }
  st.svc = std::make_unique<service::GraphService>(
      &st.db, SingleThreadedService(kLiveCacheBytes));
  for (const std::string& key : st.keys) {
    GRAPHGEN_ASSIGN_OR_RETURN(service::GraphHandle h, st.svc->Extract(key));
    if (st.svc->FlatView(h) == nullptr) return Status::Internal("no flat view");
  }
  return Status::OK();
}

std::string RenderCsv(const Tail& t, size_t begin, size_t end) {
  std::string csv = t.col_a + "," + t.col_b + "\n";
  for (size_t i = begin; i < end; ++i) {
    csv += std::to_string(t.rows.a[i]) + "," + std::to_string(t.rows.b[i]) + "\n";
  }
  return csv;
}

/// One append: the next withheld batch as CSV text, parsed and sent
/// through GraphService::Append. False when nothing is left to send.
bool LiveAppend(LiveState& st, Client& c, bool traced, uint64_t req) {
  size_t table = 0, begin = 0, end = 0;
  if (!st.NextBatch(c.rng.NextBounded(2), &table, &begin, &end)) return false;
  const Tail& tail = st.tails[table];
  const std::string csv = RenderCsv(tail, begin, end);
  SpanLog* log = traced ? &c.spans : nullptr;
  ++c.attempted;
  WallTimer timer;
  ScopedSpan root(log, "append", -1, req);
  std::vector<rel::Row> rows;
  {
    ScopedSpan span(log, "relational.csv_parse", root.id(), req);
    Result<rel::Table> parsed = rel::ParseCsv(tail.table, csv);
    if (!parsed.ok()) {
      c.Fail(parsed.status());
      return true;
    }
    rows.reserve(parsed->NumRows());
    for (size_t i = 0; i < parsed->NumRows(); ++i) rows.push_back(parsed->row(i));
  }
  Status st_append;
  {
    ScopedSpan span(log, "service.append", root.id(), req);
    st_append = st.svc->Append(tail.table, rows);
  }
  root.End();
  if (!st_append.ok()) {
    c.Fail(st_append);
    return true;
  }
  c.append_ms.push_back(timer.Millis());
  c.rows_appended += rows.size();
  if (rows.size() != end - begin) c.Error("CSV batch lost rows in parsing");
  return true;
}

Outcome RunServeLive(const Sizes& s, uint64_t seed, double seconds,
                     bool tracing) {
  Outcome out;
  out.clients = ThreadBudget();
  out.pipeline_threads = 1;
  std::unique_ptr<LiveState> st;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    st.reset();
    WallTimer timer;
    st = std::make_unique<LiveState>();
    const Status built = BuildLive(s, seed, *st);
    setup_s.push_back(timer.Seconds());
    if (!built.ok()) {
      out.errors.push_back("set-up failed: " + built.ToString());
      return out;
    }
  }
  // Every key is resident after warm-up, so these are cache hits on the
  // graphs of each key's first extraction.
  GraphSizes sizes;
  std::vector<std::weak_ptr<const ExtractedGraph>> warm;
  for (const std::string& key : st->keys) {
    Result<service::GraphHandle> h = st->svc->Extract(key);
    if (!h.ok()) {
      out.errors.push_back("warm key lookup failed: " + h.status().ToString());
      return out;
    }
    sizes.Add(**h);
    warm.push_back(*h);
  }
  benchrec::Dataset served = DescribeDataset("MakeDblpLike+MakeTpchLike", {}, st->db);
  for (const auto& [k, v] : DblpParams(s, seed)) served.params.emplace_back("dblp." + k, v);
  for (const auto& [k, v] : TpchParams(s, seed)) served.params.emplace_back("tpch." + k, v);
  for (const Tail& t : st->tails) {
    served.params.emplace_back(t.table + ".withheld_rows",
                               std::to_string(t.rows.a.size()));
    served.params.emplace_back(t.table + ".batch_rows", std::to_string(t.batch));
  }
  out.datasets.push_back(std::move(served));

  ServeCtx ctx;
  ctx.svc = st->svc.get();
  ctx.keys = st->keys;
  ctx.pr.threads = 1;
  ctx.tracing = tracing;
  for (size_t c = 0; c < out.clients; ++c) {
    out.client_state.emplace_back(ClientSeed(seed, c));
  }
  ctx.Prime(warm, out.client_state);
  const service::ServiceStats s0 = ctx.svc->Stats();
  const QueryCounters q0 = QueryCounters::Now();
  const double wall = RunClosedLoop(
      out.client_state, seconds, [&](Client& c, size_t ci, uint64_t i) {
        const bool traced = tracing && i % 2 == 1;
        const uint64_t req = RequestId(ci, i);
        if (c.rng.NextBool(kAppendShare) && LiveAppend(*st, c, traced, req)) {
          return;
        }
        ServeRead(ctx, c, c.rng.NextBounded(ctx.keys.size()), traced, req);
      });
  const double rss = PeakRssMb();
  const QueryCounters q = QueryCounters::Now().Since(q0);
  const ServiceDelta delta = ServiceDelta::Between(s0, ctx.svc->Stats());
  {
    MutexLock lock(st->tail_mu);
    if (st->exhausted) {
      std::fprintf(stderr,
                   "note: the withheld rows ran out; later appends were "
                   "replaced by reads\n");
    }
  }

  // Every key's served graph must equal a cold extraction on the final
  // database: the delta patches applied under concurrency lost nothing.
  const GraphGen engine(&st->db);
  GraphGenOptions cold = ctx.svc->options().default_options;
  for (size_t k = 0; k < ctx.keys.size(); ++k) {
    Result<service::GraphHandle> served = ctx.svc->Extract(ctx.keys[k]);
    Result<ExtractedGraph> fresh = engine.Extract(ctx.keys[k], cold);
    if (!served.ok() || !fresh.ok()) {
      out.errors.push_back("final extraction of key " + std::to_string(k) +
                           " failed");
    } else if ((*served)->graph->ExpandedEdgeSet() !=
               fresh->graph->ExpandedEdgeSet()) {
      out.errors.push_back("key " + std::to_string(k) +
                           ": served graph differs from a cold extraction");
    }
  }
  ReportMetrics(setup_s, wall, rss, sizes, q, &delta, out);
  return out;
}

struct ChurnState {
  std::unique_ptr<gen::GeneratedDatabase> data;
  std::unique_ptr<service::GraphService> svc;  // reads data->db
  std::vector<std::string> keys;
  std::vector<std::pair<size_t, uint64_t>> expected;
  std::vector<GraphSizes> key_sizes;
  std::vector<std::weak_ptr<const ExtractedGraph>> warm;
};

Status BuildChurn(const Sizes& s, uint64_t seed, size_t clients,
                  ChurnState& st) {
  st.data = std::make_unique<gen::GeneratedDatabase>(MakeDblp(s));
  Rng rows(RowOrderSeed(seed));
  GRAPHGEN_RETURN_NOT_OK(ShuffleLinkTables(st.data->db, {"AuthorPub"}, rows));
  for (size_t k = 0; k < s.churn_keys; ++k) {
    st.keys.push_back(WithNodesFilter(
        st.data->datalog, static_cast<int64_t>(s.dblp_authors) -
                              s.churn_step * static_cast<int64_t>(k)));
  }
  service::ServiceOptions o = SingleThreadedService(s.churn_cache_bytes);
  o.max_inflight_extractions = kChurnMaxInflight;
  st.svc = std::make_unique<service::GraphService>(&st.data->db, o);
  // Warm-up extracts every key once, from all clients at once, to record
  // each key's counts for the per-read check.
  st.expected.assign(st.keys.size(), {0, 0});
  st.key_sizes.assign(st.keys.size(), GraphSizes());
  st.warm.assign(st.keys.size(), {});
  std::vector<Status> status(clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&st, &status, clients, c] {
      try {
        for (size_t k = c; k < st.keys.size(); k += clients) {
          Result<service::GraphHandle> h = st.svc->Extract(st.keys[k]);
          if (!h.ok()) {
            status[c] = h.status();
            return;
          }
          st.expected[k] = {(*h)->graph->NumActiveVertices(),
                            (*h)->graph->CountStoredEdges()};
          st.key_sizes[k].Add(**h);
          st.warm[k] = *h;
        }
      } catch (const std::exception& e) {
        status[c] = Status::Internal(std::string("warm-up threw: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& st_c : status) GRAPHGEN_RETURN_NOT_OK(st_c);
  return Status::OK();
}

Outcome RunServeChurn(const Sizes& s, uint64_t seed, double seconds,
                      bool tracing) {
  Outcome out;
  out.clients = ThreadBudget();
  out.pipeline_threads = 1;
  std::unique_ptr<ChurnState> st;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    st.reset();
    WallTimer timer;
    st = std::make_unique<ChurnState>();
    const Status built = BuildChurn(s, seed, out.clients, *st);
    setup_s.push_back(timer.Seconds());
    if (!built.ok()) {
      out.errors.push_back("set-up failed: " + built.ToString());
      return out;
    }
  }
  out.datasets.push_back(
      DescribeDataset("MakeDblpLike", DblpParams(s, seed), st->data->db));
  out.datasets.back().params.emplace_back("keys", std::to_string(st->keys.size()));
  out.datasets.back().params.emplace_back("cache_budget_bytes",
                                          std::to_string(s.churn_cache_bytes));
  GraphSizes sizes;
  for (const GraphSizes& k : st->key_sizes) sizes.Merge(k);

  ServeCtx ctx;
  ctx.svc = st->svc.get();
  ctx.keys = st->keys;
  ctx.expected = st->expected;
  ctx.pr.threads = 1;
  ctx.tracing = tracing;
  for (size_t c = 0; c < out.clients; ++c) {
    out.client_state.emplace_back(ClientSeed(seed, c));
  }
  ctx.Prime(st->warm, out.client_state);
  const service::ServiceStats s0 = ctx.svc->Stats();
  const QueryCounters q0 = QueryCounters::Now();
  const double wall = RunClosedLoop(
      out.client_state, seconds, [&](Client& c, size_t ci, uint64_t i) {
        ServeRead(ctx, c, c.rng.NextBounded(ctx.keys.size()),
                  tracing && i % 2 == 1, RequestId(ci, i));
      });
  const double rss = PeakRssMb();
  const ServiceDelta delta = ServiceDelta::Between(s0, ctx.svc->Stats());
  ReportMetrics(setup_s, wall, rss, sizes, QueryCounters::Now().Since(q0),
                &delta, out);
  return out;
}

Outcome RunWorkload(const std::string& name, const Sizes& s, uint64_t seed,
                    double seconds, bool tracing) {
  if (name == "extract_expanded") return RunOneShot(false, s, seed, seconds, tracing);
  if (name == "extract_condensed") return RunOneShot(true, s, seed, seconds, tracing);
  if (name == "serve_live") return RunServeLive(s, seed, seconds, tracing);
  return RunServeChurn(s, seed, seconds, tracing);
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;  // required: the run length is BENCHMARK.json's
  std::string trace_path;
  std::string out_path;
  std::string git_sha = "unknown";
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      a->workload = v;
    } else if (const char* v = value("--seed=")) {
      char* end = nullptr;
      a->seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (const char* v = value("--seconds=")) {
      char* end = nullptr;
      a->seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a->seconds > 0) || a->seconds > 600) {
        return false;
      }
    } else if (const char* v = value("--trace=")) {
      a->trace_path = v;
    } else if (const char* v = value("--out=")) {
      a->out_path = v;
    } else if (const char* v = value("--git-sha=")) {
      a->git_sha = v;
    } else if (arg == "--smoke") {
      a->smoke = true;
    } else {
      return false;
    }
  }
  if (a->smoke) return true;
  return a->seconds > 0 &&
         std::find(std::begin(kWorkloads), std::end(kWorkloads), a->workload) !=
             std::end(kWorkloads);
}

void PinLibraryThreads(size_t threads) {
  setenv("GRAPHGEN_THREADS", std::to_string(threads).c_str(), 1);
}

bool Passed(const Outcome& o) {
  return o.errors.empty() && o.report.AllFinite() && o.attempted > 0;
}

void PrintProblems(const Outcome& o) {
  for (const std::string& e : o.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  for (const std::string& f : o.failures) std::fprintf(stderr, "operation failed: %s\n", f.c_str());
  if (!o.report.AllFinite()) std::fprintf(stderr, "CHECK FAILED: a metric is not finite\n");
}

int RunSmoke(const Args& a) {
  PinLibraryThreads(1);
  WallTimer total;
  bool ok = true;
  for (const char* w : kWorkloads) {
    WallTimer timer;
    const Outcome o = RunWorkload(w, SmokeSizes(), a.seed, 0.3, /*tracing=*/true);
    const bool pass = Passed(o) && o.failed == 0;
    std::printf("smoke %-18s %s  attempted=%llu failed=%llu  %.2fs\n", w,
                pass ? "ok" : "FAILED",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed), timer.Seconds());
    PrintProblems(o);
    ok = ok && pass;
  }
  std::printf("smoke %s in %.1fs\n", ok ? "passed" : "FAILED", total.Seconds());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: bench_graphgen --workload=<extract_expanded|"
                 "extract_condensed|serve_live|serve_churn> --seed=<n> "
                 "--seconds=<s> [--trace=<spans.json>] [--out=<record.json>] "
                 "[--git-sha=<sha>]\n"
                 "       bench_graphgen --smoke [--seed=<n>]\n");
    return 2;
  }
  if (a.smoke) return RunSmoke(a);

  const bool tracing = !a.trace_path.empty();
  const bool one_shot = a.workload.rfind("extract_", 0) == 0;
  PinLibraryThreads(one_shot ? ThreadBudget() : 1);
  benchrec::TraceClock();  // start the span epoch

  Outcome o = RunWorkload(a.workload, Sizes(), a.seed, a.seconds, tracing);
  const bool correct = Passed(o);

  benchrec::Environment env;
  env.git_sha = a.git_sha;
#ifdef __clang__
  env.compiler = "clang " __clang_version__;
#else
  env.compiler = "g++ " __VERSION__;
#endif
  env.build_type = GRAPHGEN_BENCH_BUILD_TYPE;
  env.nproc = std::thread::hardware_concurrency();
  env.client_threads = o.clients;
  env.pipeline_threads = o.pipeline_threads;
  env.simd_tier = simd::TierName();
  env.obs_enabled = obs::Enabled();
  env.seed = a.seed;

  std::printf("workload %s  seed %llu  %.0fs  %s  threads %zu client x %zu "
              "pipeline  simd %s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, tracing ? "traced" : "untraced", o.clients,
              o.pipeline_threads, env.simd_tier.c_str());
  for (const benchrec::Dataset& d : o.datasets) {
    std::printf("dataset %s:", d.generator.c_str());
    for (const auto& [k, v] : d.params) std::printf(" %s=%s", k.c_str(), v.c_str());
    for (const auto& [k, v] : d.rows) {
      std::printf(" |%s|=%llu", k.c_str(), static_cast<unsigned long long>(v));
    }
    std::printf("\n");
  }
  const MetricKind kind = tracing ? MetricKind::kPerLayer : MetricKind::kEndToEnd;
  std::printf("%s metrics:\n", tracing ? "per-layer" : "end-to-end");
  o.report.PrintText(kind);
  PrintProblems(o);

  if (tracing) {
    std::vector<const SpanLog*> logs;
    for (const Client& c : o.client_state) logs.push_back(&c.spans);
    if (!benchrec::WriteSpansJson(a.trace_path, logs)) {
      std::fprintf(stderr, "cannot write %s\n", a.trace_path.c_str());
      return 1;
    }
  }
  if (!a.out_path.empty()) {
    const std::string record =
        o.report.RecordJson(a.workload, a.seconds, tracing, env, o.datasets,
                            correct, o.attempted, o.failed, o.errors);
    FILE* f = std::fopen(a.out_path.c_str(), "w");
    bool written = f != nullptr && std::fputs(record.c_str(), f) >= 0;
    if (f != nullptr) written = std::fclose(f) == 0 && written;
    if (!written) {
      std::fprintf(stderr, "cannot write %s\n", a.out_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", o.report.ResultLine(correct, std::max<uint64_t>(o.attempted, 1),
                                          o.failed, kind).c_str());
  return correct ? 0 : 1;
}
