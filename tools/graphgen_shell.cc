// graphgen_shell — interactive front end for the graph service layer.
// Where graphgen_cli runs one extraction per process, the shell keeps a
// long-lived GraphService (named-graph registry + memory-budgeted
// extraction cache + worker pool), so an analysis session looks like the
// multi-analyst workflow of §3.1: extract several hidden graphs, keep the
// hot ones by name, re-extract for free from the cache, run algorithms.
//
//   $ graphgen_shell --dataset=dblp
//   graphgen> extract coauth
//   graphgen> run pagerank coauth
//   graphgen> list
//   graphgen> stats
//
// Run `help` inside the shell for the full command set.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algos/bfs.h"
#include "algos/clustering.h"
#include "algos/connected_components.h"
#include "algos/degree.h"
#include "algos/kcore.h"
#include "algos/pagerank.h"
#include "algos/triangles.h"
#include "common/faultpoints.h"
#include "common/memory.h"
#include "common/timer.h"
#include "gen/relational_generators.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "relational/csv_loader.h"
#include "service/graph_service.h"

#include "arg_parse.h"

namespace {

using namespace graphgen;

struct ShellState {
  rel::Database db;
  std::string default_query;  // canonical query of the loaded dataset
  std::unique_ptr<service::GraphService> svc;
  GraphGenOptions extract_options;
  size_t budget_bytes = size_t{256} << 20;
  size_t threads = 0;
};

std::vector<std::string> Tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

void PrintHelp() {
  std::puts(
      "Commands:\n"
      "  open <dblp|imdb|tpch|univ> [scale]  generate + serve a sample database\n"
      "  csv <Table> <file.csv>              load a CSV table into the database\n"
      "  append <Table> <file.csv>           append CSV rows to an existing\n"
      "                                      table; cached graphs delta-patch\n"
      "                                      on their next extraction\n"
      "  repr <auto|cdup|exp|dedup1|dedup2|bitmap1|bitmap2>\n"
      "                                      representation for new extractions\n"
      "  extract <name>                      extract the dataset's canonical graph\n"
      "  extract <name> @<file>              extract a Datalog program from a file\n"
      "  extract <name> <datalog...>         extract an inline Datalog program\n"
      "  run <algo> <name>                   degree|pagerank|components|kcore|\n"
      "                                      triangles|clustering|bfs\n"
      "  list                                registered graphs\n"
      "  drop <name>                         unregister a graph\n"
      "  profile <name>                      EXPLAIN ANALYZE tree of the last\n"
      "                                      cold extraction of that graph\n"
      "  stats                               service counters (cache, workers)\n"
      "                                      plus the full metrics registry\n"
      "  slowlog                             retained slow requests (threshold-\n"
      "                                      gated profiles, capped ring)\n"
      "  tables                              per-table storage: column types,\n"
      "                                      encodings, dictionary sizes, bytes\n"
      "  clear-cache                         drop all cached extractions\n"
      "  faults                              list registered fault points\n"
      "  faults arm <point> <spec>           arm one, e.g. p0.01!throw or n1\n"
      "                                      (trigger p<prob>|n<hit>, action\n"
      "                                      !fail|!throw|!stall)\n"
      "  faults disarm [<point>]             disarm one point, or all of them\n"
      "  help | quit");
}

bool ParseRepr(const std::string& name, Representation* out) {
  if (name == "auto") *out = Representation::kAuto;
  else if (name == "cdup") *out = Representation::kCDup;
  else if (name == "exp") *out = Representation::kExp;
  else if (name == "dedup1") *out = Representation::kDedup1;
  else if (name == "dedup2") *out = Representation::kDedup2;
  else if (name == "bitmap1") *out = Representation::kBitmap1;
  else if (name == "bitmap2") *out = Representation::kBitmap2;
  else return false;
  return true;
}

void ResetService(ShellState& state) {
  service::ServiceOptions options;
  options.cache_budget_bytes = state.budget_bytes;
  options.worker_threads = state.threads;
  state.svc = std::make_unique<service::GraphService>(&state.db, options);
}

void CmdOpen(ShellState& state, const std::vector<std::string>& args) {
  if (args.size() < 2) {
    std::puts("usage: open <dblp|imdb|tpch|univ> [scale]");
    return;
  }
  double s = 1.0;
  if (args.size() > 2) {
    const std::optional<double> scale = tools::ParseScale(args[2]);
    if (!scale.has_value()) {
      std::printf("bad scale '%s': want %s\n", args[2].c_str(),
                  tools::kScaleRange);
      return;
    }
    s = *scale;
  }
  gen::GeneratedDatabase generated;
  if (args[1] == "dblp") {
    generated = gen::MakeDblpLike(static_cast<size_t>(4000 * s),
                                  static_cast<size_t>(8000 * s), 4.0);
  } else if (args[1] == "imdb") {
    generated = gen::MakeImdbLike(static_cast<size_t>(4000 * s),
                                  static_cast<size_t>(2000 * s), 10.0);
  } else if (args[1] == "tpch") {
    generated = gen::MakeTpchLike(static_cast<size_t>(2000 * s),
                                  static_cast<size_t>(8000 * s),
                                  static_cast<size_t>(100 * s) + 20, 3.0);
  } else if (args[1] == "univ") {
    generated = gen::MakeUniversity(static_cast<size_t>(800 * s), 20,
                                    static_cast<size_t>(60 * s) + 10, 3.5);
  } else {
    std::printf("unknown dataset: %s\n", args[1].c_str());
    return;
  }
  state.db = std::move(generated.db);
  state.default_query = generated.datalog;
  ResetService(state);
  std::printf("%s\n(canonical query bound to `extract <name>`)\n",
              generated.description.c_str());
}

void CmdCsv(ShellState& state, const std::vector<std::string>& args) {
  if (args.size() != 3) {
    std::puts("usage: csv <Table> <file.csv>");
    return;
  }
  auto loaded = rel::LoadCsv(state.db, args[1], args[2]);
  if (!loaded.ok()) {
    std::printf("%s\n", loaded.status().ToString().c_str());
    return;
  }
  if (state.svc == nullptr) {
    ResetService(state);
  } else {
    // The table may have replaced existing data; cached extractions (and
    // their canonical keys) would otherwise serve graphs of the old rows.
    state.svc->ClearCache();
  }
  std::printf("loaded %s: %zu rows\n", args[1].c_str(), (*loaded)->NumRows());
}

void CmdAppend(ShellState& state, const std::vector<std::string>& args) {
  if (state.svc == nullptr) {
    std::puts("no database: use `open` or `csv` first");
    return;
  }
  if (args.size() != 3) {
    std::puts("usage: append <Table> <file.csv>");
    return;
  }
  std::ifstream in(args[2]);
  if (!in) {
    std::printf("cannot open %s\n", args[2].c_str());
    return;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = rel::ParseCsv(args[1], buffer.str());
  if (!parsed.ok()) {
    std::printf("%s\n", parsed.status().ToString().c_str());
    return;
  }
  std::vector<rel::Row> rows;
  rows.reserve(parsed->NumRows());
  for (size_t i = 0; i < parsed->NumRows(); ++i) rows.push_back(parsed->row(i));
  // Through the service so the append is serialized against in-flight
  // extractions and cached graphs see a consistent version vector.
  Status appended = state.svc->Append(args[1], rows);
  if (!appended.ok()) {
    std::printf("%s\n", appended.ToString().c_str());
    return;
  }
  std::printf("appended %zu rows to %s\n", rows.size(), args[1].c_str());
}

void CmdExtract(ShellState& state, const std::vector<std::string>& args,
                const std::string& line) {
  if (state.svc == nullptr) {
    std::puts("no database: use `open` or `csv` first");
    return;
  }
  if (args.size() < 2) {
    std::puts("usage: extract <name> [@file | datalog...]");
    return;
  }
  const std::string& name = args[1];
  std::string program;
  if (args.size() == 2) {
    program = state.default_query;
    if (program.empty()) {
      std::puts("no canonical query; pass a Datalog program or @file");
      return;
    }
  } else if (args[2][0] == '@') {
    std::ifstream in(args[2].substr(1));
    if (!in) {
      std::printf("cannot read %s\n", args[2].c_str() + 1);
      return;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    program = ss.str();
  } else {
    // Everything after the name is the program (rules end with '.').
    size_t pos = line.find(name, line.find("extract") + 7);
    program = line.substr(pos + name.size());
  }

  WallTimer timer;
  auto handle = state.svc->ExtractNamed(name, program, state.extract_options);
  if (!handle.ok()) {
    std::printf("%s\n", handle.status().ToString().c_str());
    return;
  }
  const Graph& g = *(*handle)->graph;
  GraphFootprint fp = g.MemoryFootprint();
  std::printf(
      "%s := %s graph, %zu vertices, %zu virtual nodes, %llu stored edges "
      "(%.1fms)\n     footprint %s (adjacency %s, properties %s, aux %s)\n",
      name.c_str(), RepresentationToString((*handle)->representation).data(),
      g.NumActiveVertices(), g.NumVirtualNodes(),
      static_cast<unsigned long long>(g.CountStoredEdges()), timer.Millis(),
      FormatBytes(fp.Total()).c_str(), FormatBytes(fp.adjacency_bytes).c_str(),
      FormatBytes(fp.property_bytes).c_str(),
      FormatBytes(fp.aux_bytes).c_str());
}

void CmdRun(ShellState& state, const std::vector<std::string>& args) {
  if (state.svc == nullptr) {
    std::puts("no database: use `open` or `csv` first");
    return;
  }
  if (args.size() < 3) {
    std::puts("usage: run <algo> <name> (see `help` for algorithms)");
    return;
  }
  auto handle = state.svc->Lookup(args[2]);
  if (!handle.ok()) {
    std::printf("%s\n", handle.status().ToString().c_str());
    return;
  }
  // Analytics run on the representation the service holds.
  const Graph& g = *(*handle)->graph;
  const std::string& algo = args[1];
  WallTimer timer;
  if (algo == "degree") {
    std::vector<uint64_t> d = ComputeDegrees(g);
    uint64_t max_d = 0;
    for (uint64_t x : d) max_d = std::max(max_d, x);
    std::printf("max degree %llu (%.1fms)\n",
                static_cast<unsigned long long>(max_d), timer.Millis());
  } else if (algo == "pagerank") {
    std::vector<double> pr = PageRank(g, {.iterations = 20});
    size_t best = 0;
    for (size_t u = 1; u < pr.size(); ++u) {
      if (pr[u] > pr[best]) best = u;
    }
    std::printf("top vertex %zu, rank %.5f (%.1fms)\n", best,
                pr.empty() ? 0.0 : pr[best], timer.Millis());
  } else if (algo == "components") {
    auto labels = ConnectedComponents(g);
    std::printf("%zu components (%.1fms)\n", CountComponents(labels),
                timer.Millis());
  } else if (algo == "kcore") {
    auto core = KCoreDecomposition(g);
    std::printf("degeneracy %u (%.1fms)\n", Degeneracy(core), timer.Millis());
  } else if (algo == "triangles") {
    uint64_t t = CountTriangles(g);
    std::printf("%llu triangles (%.1fms)\n",
                static_cast<unsigned long long>(t), timer.Millis());
  } else if (algo == "clustering") {
    std::printf("average clustering coefficient %.5f (%.1fms)\n",
                AverageClusteringCoefficient(g), timer.Millis());
  } else if (algo == "bfs") {
    NodeId source = 0;
    while (source < g.NumVertices() && !g.VertexExists(source)) ++source;
    auto dist = Bfs(g, source);
    uint32_t reached = 0, ecc = 0;
    for (uint32_t d : dist) {
      if (d != UINT32_MAX) {
        ++reached;
        ecc = std::max(ecc, d);
      }
    }
    std::printf("bfs from %u: reached %u vertices, eccentricity %u (%.1fms)\n",
                source, reached, ecc, timer.Millis());
  } else {
    std::printf("unknown algorithm: %s\n", algo.c_str());
  }
}

void CmdList(const ShellState& state) {
  if (state.svc == nullptr) {
    std::puts("no database: use `open` or `csv` first");
    return;
  }
  auto rows = state.svc->List();
  if (rows.empty()) {
    std::puts("(no registered graphs)");
    return;
  }
  std::printf("%-16s %-10s %10s %10s %12s %10s\n", "NAME", "REPR", "VERTICES",
              "VIRTUALS", "EDGES", "MEMORY");
  for (const auto& r : rows) {
    std::printf("%-16s %-10s %10zu %10zu %12llu %10s\n", r.name.c_str(),
                r.representation.c_str(), r.active_vertices, r.virtual_nodes,
                static_cast<unsigned long long>(r.stored_edges),
                FormatBytes(r.footprint_bytes).c_str());
  }
}

void CmdStats(const ShellState& state) {
  if (state.svc == nullptr) {
    std::puts("no database: use `open` or `csv` first");
    return;
  }
  service::ServiceStats s = state.svc->Stats();
  std::printf(
      "requests            %llu\n"
      "  cache hits        %llu\n"
      "  cold extractions  %llu\n"
      "  coalesced         %llu\n"
      "  failed            %llu\n"
      "    cancelled       %llu\n"
      "    deadline        %llu\n"
      "    overloaded      %llu\n"
      "    memory ceiling  %llu\n"
      "  stale served      %llu\n"
      "  slow (logged)     %llu\n"
      "cache               %llu graphs, %s / %s budget\n"
      "  evictions         %llu\n"
      "  uncacheable       %llu\n"
      "registry            %llu named graphs\n"
      "workers             %llu threads\n"
      "database            %s\n",
      static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.cold_extractions),
      static_cast<unsigned long long>(s.coalesced),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.deadline_exceeded),
      static_cast<unsigned long long>(s.overload_rejected),
      static_cast<unsigned long long>(s.resource_exhausted),
      static_cast<unsigned long long>(s.stale_served),
      static_cast<unsigned long long>(s.slow_requests),
      static_cast<unsigned long long>(s.cache_graphs),
      FormatBytes(s.cache_bytes).c_str(),
      s.cache_budget_bytes == 0 ? "unlimited"
                                : FormatBytes(s.cache_budget_bytes).c_str(),
      static_cast<unsigned long long>(s.evictions),
      static_cast<unsigned long long>(s.uncacheable),
      static_cast<unsigned long long>(s.named_graphs),
      static_cast<unsigned long long>(s.worker_threads),
      FormatBytes(state.db.MemoryBytes()).c_str());
  std::printf("\nservice metrics:\n%s",
              obs::FormatSnapshot(state.svc->MetricsSnapshot()).c_str());
  std::printf("\nengine metrics (process-wide):\n%s",
              obs::FormatSnapshot(obs::MetricsRegistry::Global().Snapshot())
                  .c_str());
}

void CmdProfile(const ShellState& state, const std::vector<std::string>& args) {
  if (state.svc == nullptr) {
    std::puts("no database: use `open` or `csv` first");
    return;
  }
  if (args.size() != 2) {
    std::puts("usage: profile <name>");
    return;
  }
  auto handle = state.svc->Lookup(args[1]);
  if (!handle.ok()) {
    std::printf("%s\n", handle.status().ToString().c_str());
    return;
  }
  const obs::QueryProfile& profile = (*handle)->stats.profile;
  if (profile.empty()) {
    std::puts(
        "(no profile: the graph was served from cache before profiling, or\n"
        " observability was disabled — unset GRAPHGEN_OBS_OFF and re-extract\n"
        " after `clear-cache`)");
    return;
  }
  std::printf("%s", profile.ToText().c_str());
}

void CmdSlowlog(const ShellState& state) {
  if (state.svc == nullptr) {
    std::puts("no database: use `open` or `csv` first");
    return;
  }
  auto slow = state.svc->SlowRequests();
  if (slow.empty()) {
    std::printf("(no slow requests: threshold %.3fs, capacity %zu)\n",
                state.svc->options().slow_request_seconds,
                state.svc->options().slow_log_capacity);
    return;
  }
  for (const service::SlowRequest& r : slow) {
    std::printf("#%llu  %.3fs  %s\n",
                static_cast<unsigned long long>(r.sequence), r.seconds,
                r.datalog.c_str());
    if (r.profile != nullptr) std::printf("%s", r.profile->ToText().c_str());
  }
}

// Storage introspection for the typed columnar layer: one block per
// table, one line per column with its declared type, physical encoding,
// dictionary cardinality, null count, and footprint.
void CmdTables(const ShellState& state) {
  const std::vector<std::string> names = state.db.TableNames();
  if (names.empty()) {
    std::puts("(no tables: use `open` or `csv` first)");
    return;
  }
  for (const std::string& name : names) {
    auto table = state.db.GetTable(name);
    if (!table.ok()) continue;
    const rel::Table& t = **table;
    std::printf("%s: %zu rows, %zu columns, %s\n", name.c_str(), t.NumRows(),
                t.NumColumns(), FormatBytes(t.MemoryBytes()).c_str());
    for (size_t c = 0; c < t.NumColumns(); ++c) {
      const rel::ColumnDef& def = t.schema().column(c);
      const rel::ColumnVector& col = t.column(c);
      std::string encoding(col.EncodingName());
      if (col.encoding() == rel::ColumnVector::Encoding::kDictString) {
        encoding += "(" + std::to_string(col.dict().size()) + " distinct)";
      }
      std::printf("  %-20s %-8s %-22s %8zu nulls %10s\n", def.name.c_str(),
                  std::string(rel::ValueTypeToString(def.type)).c_str(),
                  encoding.c_str(), col.null_count(),
                  FormatBytes(col.MemoryBytes()).c_str());
    }
  }
  std::printf("total database footprint: %s\n",
              FormatBytes(state.db.MemoryBytes()).c_str());
}

// Fault-injection control (the shell face of common/faultpoints.h):
//   faults                  list every registered point and its state
//   faults arm <name> <spec>  spec = p<prob>|n<hit>[!fail|!throw|!stall]
//   faults disarm [<name>]  one point, or everything when omitted
// Points register lazily the first time their code path executes, so an
// empty list just means no extraction has run yet; arming an unseen name
// is remembered and applied when the point first registers.
void CmdFaults(const std::vector<std::string>& args) {
  fault::FaultRegistry& registry = fault::FaultRegistry::Instance();
  if (args.empty() || args[0] == "list") {
    std::vector<fault::FaultPointInfo> points = registry.List();
    if (points.empty()) {
      std::puts(
          "(no fault points registered yet: they appear as their code "
          "paths first execute)");
      return;
    }
    std::printf("%-28s %-9s %-6s %-12s %8s %8s\n", "point", "state", "action",
                "trigger", "hits", "fires");
    for (const fault::FaultPointInfo& p : points) {
      const char* action = p.action == fault::Action::kFail    ? "fail"
                           : p.action == fault::Action::kThrow ? "throw"
                                                               : "stall";
      std::string trigger;
      if (p.armed) {
        trigger = p.countdown >= 0
                      ? "n" + std::to_string(p.countdown)
                      : "p" + std::to_string(p.probability);
      }
      std::printf("%-28s %-9s %-6s %-12s %8llu %8llu\n", p.name.c_str(),
                  p.armed ? "ARMED" : "disarmed", p.armed ? action : "-",
                  p.armed ? trigger.c_str() : "-",
                  static_cast<unsigned long long>(p.hits),
                  static_cast<unsigned long long>(p.fires));
    }
    return;
  }
  if (args[0] == "arm") {
    if (args.size() != 3) {
      std::puts("usage: faults arm <point> <spec>   e.g. faults arm "
                "query.scan p0.01!throw");
      return;
    }
    fault::FaultSpec spec;
    Status parsed = fault::FaultRegistry::ParseSpec(args[2], &spec);
    if (!parsed.ok()) {
      std::printf("bad spec: %s\n", parsed.ToString().c_str());
      return;
    }
    registry.Arm(args[1], spec);
    std::printf("armed %s (%s)\n", args[1].c_str(), args[2].c_str());
    return;
  }
  if (args[0] == "disarm") {
    if (args.size() >= 2) {
      registry.Disarm(args[1]);
      std::printf("disarmed %s\n", args[1].c_str());
    } else {
      registry.DisarmAll();
      std::puts("disarmed all fault points");
    }
    return;
  }
  std::puts("usage: faults [list] | faults arm <point> <spec> | "
            "faults disarm [<point>]");
}

int RunShell(ShellState& state, std::istream& in, bool interactive) {
  std::string line;
  for (;;) {
    if (interactive) {
      std::printf("graphgen> ");
      std::fflush(stdout);
    }
    if (!std::getline(in, line)) break;
    std::vector<std::string> args = Tokenize(line);
    if (args.empty()) continue;
    const std::string& cmd = args[0];
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "open") {
      CmdOpen(state, args);
    } else if (cmd == "append") {
      CmdAppend(state, args);
    } else if (cmd == "csv") {
      CmdCsv(state, args);
    } else if (cmd == "repr") {
      Representation r;
      if (args.size() == 2 && ParseRepr(args[1], &r)) {
        state.extract_options.representation = r;
        std::printf("representation := %s\n",
                    RepresentationToString(r).data());
      } else {
        std::puts("usage: repr <auto|cdup|exp|dedup1|dedup2|bitmap1|bitmap2>");
      }
    } else if (cmd == "extract") {
      CmdExtract(state, args, line);
    } else if (cmd == "run") {
      CmdRun(state, args);
    } else if (cmd == "list") {
      CmdList(state);
    } else if (cmd == "drop") {
      if (args.size() != 2 || state.svc == nullptr) {
        std::puts("usage: drop <name>");
      } else {
        Status st = state.svc->Drop(args[1]);
        std::printf("%s\n", st.ok() ? "dropped" : st.ToString().c_str());
      }
    } else if (cmd == "stats") {
      CmdStats(state);
    } else if (cmd == "profile") {
      CmdProfile(state, args);
    } else if (cmd == "slowlog") {
      CmdSlowlog(state);
    } else if (cmd == "tables") {
      CmdTables(state);
    } else if (cmd == "clear-cache") {
      if (state.svc != nullptr) state.svc->ClearCache();
    } else if (cmd == "faults") {
      CmdFaults({args.begin() + 1, args.end()});
    } else {
      std::printf("unknown command: %s (try `help`)\n", cmd.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ShellState state;
  std::string script;
  std::string dataset;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--dataset=")) {
      dataset = v;
    } else if (const char* v = value_of("--budget-mb=")) {
      const std::optional<size_t> budget = tools::ParseBudgetMb(v);
      if (!budget.has_value()) {
        std::fprintf(stderr, "bad --budget-mb '%s': want %s\n", v,
                     tools::kBudgetMbRange);
        return 2;
      }
      state.budget_bytes = *budget;
    } else if (const char* v = value_of("--threads=")) {
      state.threads = static_cast<size_t>(std::atol(v));
    } else if (const char* v = value_of("--script=")) {
      script = v;
    } else if (arg == "--help" || arg == "-h") {
      std::puts(
          "graphgen_shell [--dataset=dblp|imdb|tpch|univ] [--budget-mb=N]\n"
          "               [--threads=N] [--script=<file>]");
      PrintHelp();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }
  // Open the dataset only after every flag is parsed, so --budget-mb and
  // --threads apply regardless of argument order.
  if (!dataset.empty()) CmdOpen(state, {"open", dataset});
  if (!script.empty()) {
    std::ifstream file(script);
    if (!file) {
      std::fprintf(stderr, "cannot read %s\n", script.c_str());
      return 1;
    }
    return RunShell(state, file, /*interactive=*/false);
  }
  return RunShell(state, std::cin, /*interactive=*/true);
}
