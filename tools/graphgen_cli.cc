// graphgen_cli — command-line front end (the graphgenpy analogue of
// §3.4 "External Libraries"): load or generate a relational database,
// run a Datalog extraction query, pick a representation, optionally run
// an algorithm, and serialize the result for external tools.
//
// Usage examples:
//   graphgen_cli --dataset=dblp --repr=bitmap2 --algo=pagerank
//   graphgen_cli --csv=Author=authors.csv --csv=AuthorPub=ap.csv
//                --query=coauthors.dl --out=edges.txt
//   graphgen_cli --dataset=tpch --repr=auto --algo=components

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "algos/connected_components.h"
#include "algos/degree.h"
#include "algos/kcore.h"
#include "algos/pagerank.h"
#include "common/memory.h"
#include "common/timer.h"
#include "core/graphgen.h"
#include "core/serialization.h"
#include "gen/relational_generators.h"
#include "obs/profile.h"
#include "relational/csv_loader.h"

#include "arg_parse.h"

namespace {

using namespace graphgen;

struct CliOptions {
  std::string dataset;
  std::map<std::string, std::string> csv_tables;
  std::string query_file;
  std::string repr = "auto";
  std::string algo = "none";
  std::string out;
  std::string profile_out;
  double scale = 1.0;
  bool force_condensed = false;
};

void PrintUsage() {
  std::puts(
      "graphgen_cli — extract and analyze hidden graphs\n"
      "  --dataset=dblp|imdb|tpch|univ   use a generated sample database\n"
      "  --scale=<f>                     scale generated dataset sizes\n"
      "  --csv=<Table>=<file.csv>        load a CSV table (repeatable)\n"
      "  --query=<file>                  Datalog extraction program\n"
      "  --repr=auto|cdup|exp|dedup1|dedup2|bitmap1|bitmap2\n"
      "  --algo=none|degree|pagerank|components|kcore\n"
      "  --force-condensed               treat every join as large-output\n"
      "  --out=<file>                    serialize expanded edge list\n"
      "  --profile=<file.json>           write the extraction's EXPLAIN\n"
      "                                  ANALYZE profile as JSON and print\n"
      "                                  the operator tree");
}

// Returns 0 when `opts` is ready to run, else the exit status: 2 for a
// malformed argument value, 1 for any other argument error.
int ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--dataset=")) {
      opts->dataset = v;
    } else if (const char* v = value_of("--scale=")) {
      const std::optional<double> scale = tools::ParseScale(v);
      if (!scale.has_value()) {
        std::fprintf(stderr, "bad --scale '%s': want %s\n", v,
                     tools::kScaleRange);
        return 2;
      }
      opts->scale = *scale;
    } else if (const char* v = value_of("--csv=")) {
      std::string spec = v;
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "bad --csv spec: %s\n", v);
        return 1;
      }
      opts->csv_tables[spec.substr(0, eq)] = spec.substr(eq + 1);
    } else if (const char* v = value_of("--query=")) {
      opts->query_file = v;
    } else if (const char* v = value_of("--repr=")) {
      opts->repr = v;
    } else if (const char* v = value_of("--algo=")) {
      opts->algo = v;
    } else if (const char* v = value_of("--out=")) {
      opts->out = v;
    } else if (const char* v = value_of("--profile=")) {
      opts->profile_out = v;
    } else if (arg == "--force-condensed") {
      opts->force_condensed = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 1;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }
  return 0;
}

Result<Representation> ParseRepr(const std::string& name) {
  if (name == "auto") return Representation::kAuto;
  if (name == "cdup") return Representation::kCDup;
  if (name == "exp") return Representation::kExp;
  if (name == "dedup1") return Representation::kDedup1;
  if (name == "dedup2") return Representation::kDedup2;
  if (name == "bitmap1") return Representation::kBitmap1;
  if (name == "bitmap2") return Representation::kBitmap2;
  return Status::InvalidArgument("unknown representation: " + name);
}

int Run(const CliOptions& opts) {
  // 1. Assemble the database.
  rel::Database db;
  std::string default_query;
  if (!opts.dataset.empty()) {
    gen::GeneratedDatabase generated;
    const double s = opts.scale;
    if (opts.dataset == "dblp") {
      generated = gen::MakeDblpLike(static_cast<size_t>(4000 * s),
                                    static_cast<size_t>(8000 * s), 4.0);
    } else if (opts.dataset == "imdb") {
      generated = gen::MakeImdbLike(static_cast<size_t>(4000 * s),
                                    static_cast<size_t>(2000 * s), 10.0);
    } else if (opts.dataset == "tpch") {
      generated = gen::MakeTpchLike(static_cast<size_t>(2000 * s),
                                    static_cast<size_t>(8000 * s),
                                    static_cast<size_t>(100 * s) + 20, 3.0);
    } else if (opts.dataset == "univ") {
      generated = gen::MakeUniversity(static_cast<size_t>(800 * s), 20,
                                      static_cast<size_t>(60 * s) + 10, 3.5);
    } else {
      std::fprintf(stderr, "unknown dataset: %s\n", opts.dataset.c_str());
      return 1;
    }
    default_query = generated.datalog;
    db = std::move(generated.db);
    std::printf("Generated %s\n", generated.description.c_str());
  }
  for (const auto& [table, path] : opts.csv_tables) {
    auto loaded = rel::LoadCsv(db, table, path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "loading %s: %s\n", path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    std::printf("Loaded %s: %zu rows\n", table.c_str(),
                (*loaded)->NumRows());
  }
  if (db.TableNames().empty()) {
    std::fprintf(stderr, "no data: pass --dataset or --csv\n");
    PrintUsage();
    return 1;
  }

  // 2. The extraction query.
  std::string query = default_query;
  if (!opts.query_file.empty()) {
    std::ifstream in(opts.query_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", opts.query_file.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    query = ss.str();
  }
  if (query.empty()) {
    std::fprintf(stderr, "no query: pass --query with --csv data\n");
    return 1;
  }
  std::printf("Query:\n%s\n", query.c_str());

  // 3. Extract.
  auto repr = ParseRepr(opts.repr);
  if (!repr.ok()) {
    std::fprintf(stderr, "%s\n", repr.status().ToString().c_str());
    return 1;
  }
  GraphGenOptions options;
  options.representation = *repr;
  if (opts.force_condensed) options.extract.large_output_factor = 0.0;

  GraphGen engine(&db);
  WallTimer timer;
  auto extracted = engine.Extract(query, options);
  if (!extracted.ok()) {
    std::fprintf(stderr, "extraction failed: %s\n",
                 extracted.status().ToString().c_str());
    return 1;
  }
  const Graph& g = *extracted->graph;
  std::printf(
      "Extracted in %.1fms as %s: %zu vertices, %zu virtual nodes, "
      "%llu stored edges, %s\n",
      timer.Millis(), RepresentationToString(extracted->representation).data(),
      g.NumActiveVertices(), g.NumVirtualNodes(),
      static_cast<unsigned long long>(g.CountStoredEdges()),
      FormatBytes(g.MemoryBytes()).c_str());

  // 3b. Optional EXPLAIN ANALYZE export: print the operator tree and
  // round-trip the same profile through JSON for external tooling.
  if (!opts.profile_out.empty()) {
    const obs::QueryProfile& profile = extracted->stats.profile;
    if (profile.empty()) {
      std::fprintf(stderr,
                   "--profile requested but observability is disabled "
                   "(GRAPHGEN_OBS_OFF is set)\n");
      return 1;
    }
    std::printf("\nEXPLAIN ANALYZE:\n%s\n", profile.ToText().c_str());
    std::ofstream out(opts.profile_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opts.profile_out.c_str());
      return 1;
    }
    out << profile.ToJson() << '\n';
    if (!out.good()) {
      std::fprintf(stderr, "error writing %s\n", opts.profile_out.c_str());
      return 1;
    }
    std::printf("Profile JSON written to %s\n", opts.profile_out.c_str());
  }

  // 4. Optional analysis.
  timer.Restart();
  if (opts.algo == "degree") {
    std::vector<uint64_t> d = ComputeDegrees(g);
    uint64_t max_d = 0;
    for (uint64_t x : d) max_d = std::max(max_d, x);
    std::printf("Degree done in %.1fms (max degree %llu)\n", timer.Millis(),
                static_cast<unsigned long long>(max_d));
  } else if (opts.algo == "pagerank") {
    std::vector<double> pr = PageRank(g, {.iterations = 20});
    NodeId best = 0;
    for (NodeId u = 1; u < pr.size(); ++u) {
      if (pr[u] > pr[best]) best = u;
    }
    std::printf("PageRank done in %.1fms (top vertex %u, rank %.5f)\n",
                timer.Millis(), best, pr.empty() ? 0.0 : pr[best]);
  } else if (opts.algo == "components") {
    auto labels = ConnectedComponents(g);
    std::printf("Components done in %.1fms (%zu components)\n", timer.Millis(),
                CountComponents(labels));
  } else if (opts.algo == "kcore") {
    auto core = KCoreDecomposition(g);
    std::printf("K-core done in %.1fms (degeneracy %u)\n", timer.Millis(),
                Degeneracy(core));
  } else if (opts.algo != "none") {
    std::fprintf(stderr, "unknown algorithm: %s\n", opts.algo.c_str());
    return 1;
  }

  // 5. Optional serialization.
  if (!opts.out.empty()) {
    Status st = SerializeEdgeList(g, opts.out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("Edge list written to %s\n", opts.out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (const int status = ParseArgs(argc, argv, &opts); status != 0) {
    return status;
  }
  return Run(opts);
}
