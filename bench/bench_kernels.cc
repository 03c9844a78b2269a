// bench_kernels — the devirtualized traversal fast path, measured.
//
// Runs every graph algorithm twice on the same EXP (flat-CSR) graph:
// once behind an adapter that hides its flat adjacency, so kernels take
// the virtual ForEachNeighbor(std::function) path (triangles and
// clustering snapshot the graph with ExpandGraph first, and their
// function_ms includes that snapshot), and once on the NeighborSpan fast
// path, verifying both produce identical results. Also times the
// ExpandCondensed CSR build (the cold-extraction component) and the
// price of analyzing a condensed graph as it is served: PageRank on a
// BITMAP-2 build of the same storage against EXP's, and their ratio.
//
// Writes a JSON summary (default BENCH_kernels.json, override with
// --out=<path>). --smoke shrinks the dataset, runs one iteration of
// everything, and exits non-zero on any function/span result mismatch —
// the CI regression gate for optimized builds.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "algos/bfs.h"
#include "algos/clustering.h"
#include "algos/connected_components.h"
#include "algos/degree.h"
#include "algos/intersect.h"
#include "algos/kcore.h"
#include "algos/pagerank.h"
#include "algos/triangles.h"
#include "bench_util.h"
#include "common/timer.h"
#include "dedup/bitmap_algorithms.h"
#include "gen/condensed_generator.h"
#include "repr/expander.h"

namespace {

using namespace graphgen;

struct KernelRow {
  std::string name;
  double function_ms = 0;
  double span_ms = 0;
  bool match = true;
  double Speedup() const { return span_ms > 0 ? function_ms / span_ms : 0; }
};

using bench::MedianMs;

/// Forwards every Graph call to `inner` except HasFlatAdjacency(), which
/// reports false, so kernels run on it take the callback path.
class CallbackOnlyGraph : public Graph {
 public:
  explicit CallbackOnlyGraph(Graph& inner) : inner_(inner) {}

  std::string_view Name() const override { return inner_.Name(); }
  size_t NumVertices() const override { return inner_.NumVertices(); }
  size_t NumActiveVertices() const override {
    return inner_.NumActiveVertices();
  }
  bool VertexExists(NodeId v) const override { return inner_.VertexExists(v); }
  void ForEachVertex(const std::function<void(NodeId)>& fn) const override {
    inner_.ForEachVertex(fn);
  }
  void ForEachNeighbor(NodeId u,
                       const std::function<void(NodeId)>& fn) const override {
    inner_.ForEachNeighbor(u, fn);
  }
  std::unique_ptr<NeighborIterator> Neighbors(NodeId u) const override {
    return inner_.Neighbors(u);
  }
  bool HasFlatAdjacency() const override { return false; }
  std::span<const NodeId> NeighborSpan(NodeId u) const override {
    return inner_.NeighborSpan(u);
  }
  size_t OutDegree(NodeId u) const override { return inner_.OutDegree(u); }
  bool ExistsEdge(NodeId u, NodeId v) const override {
    return inner_.ExistsEdge(u, v);
  }
  Status AddEdge(NodeId u, NodeId v) override { return inner_.AddEdge(u, v); }
  Status DeleteEdge(NodeId u, NodeId v) override {
    return inner_.DeleteEdge(u, v);
  }
  NodeId AddVertex() override { return inner_.AddVertex(); }
  Status DeleteVertex(NodeId v) override { return inner_.DeleteVertex(v); }
  uint64_t CountExpandedEdges() const override {
    return inner_.CountExpandedEdges();
  }
  uint64_t CountStoredEdges() const override {
    return inner_.CountStoredEdges();
  }
  size_t NumVirtualNodes() const override { return inner_.NumVirtualNodes(); }
  GraphFootprint MemoryFootprint() const override {
    return inner_.MemoryFootprint();
  }

 private:
  Graph& inner_;
};

bool NearlyEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > 1e-12) return false;
  }
  return true;
}

// ------------------------- --gallop: intersection-threshold crossover sweep
//
// Times the two strategies of IntersectSortedForEach in isolation (linear
// merge vs gallop, bypassing the size heuristic) across skew ratios, to
// measure where the crossover actually sits on this machine — the source
// of the kGallopRatio constant in algos/intersect.h. Also times the
// bounds pre-check on disjoint inputs, where it short-circuits the whole
// intersection to two comparisons.

uint64_t MergeCountOnly(std::span<const NodeId> a, std::span<const NodeId> b) {
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

uint64_t GallopCountOnly(std::span<const NodeId> a, std::span<const NodeId> b) {
  uint64_t count = 0;
  const NodeId* lo = b.data();
  const NodeId* end = b.data() + b.size();
  for (NodeId x : a) {
    lo = std::lower_bound(lo, end, x);
    if (lo == end) break;
    if (*lo == x) {
      ++count;
      ++lo;
    }
  }
  return count;
}

std::vector<NodeId> RandomSorted(size_t n, NodeId universe, uint64_t seed) {
  std::vector<NodeId> v;
  v.reserve(n);
  uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  while (v.size() < n) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    v.push_back(static_cast<NodeId>(s % universe));
    if (v.size() == n) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }
  }
  return v;
}

int RunGallopSweep(int iters) {
  bench::PrintHeader("IntersectSortedForEach: merge vs gallop crossover");
  std::printf("configured kGallopRatio = %zu\n\n", detail::kGallopRatio);
  std::printf("%8s %8s %8s %12s %12s %9s %8s\n", "short", "long", "ratio",
              "merge (ms)", "gallop (ms)", "g/m", "winner");
  bench::PrintRule();
  constexpr size_t kShort = 256;
  constexpr size_t kPairs = 512;  // fresh pairs per timing pass (cache-cold-ish)
  for (size_t ratio = 1; ratio <= 256; ratio *= 2) {
    const size_t long_len = kShort * ratio;
    std::vector<std::vector<NodeId>> shorts(kPairs);
    std::vector<std::vector<NodeId>> longs(kPairs);
    for (size_t p = 0; p < kPairs; ++p) {
      const NodeId universe = static_cast<NodeId>(4 * long_len);
      shorts[p] = RandomSorted(kShort, universe, 2 * p + 1);
      longs[p] = RandomSorted(long_len, universe, 2 * p + 2);
    }
    uint64_t sink_m = 0;
    uint64_t sink_g = 0;
    const double merge_ms = bench::MedianMs(iters, [&] {
      for (size_t p = 0; p < kPairs; ++p) {
        sink_m += MergeCountOnly(shorts[p], longs[p]);
      }
    });
    const double gallop_ms = bench::MedianMs(iters, [&] {
      for (size_t p = 0; p < kPairs; ++p) {
        sink_g += GallopCountOnly(shorts[p], longs[p]);
      }
    });
    uint64_t check_m = 0;
    uint64_t check_g = 0;
    for (size_t p = 0; p < kPairs; ++p) {
      check_m += MergeCountOnly(shorts[p], longs[p]);
      check_g += GallopCountOnly(shorts[p], longs[p]);
    }
    if (check_m != check_g || sink_m < check_m || sink_g < check_g) {
      std::fprintf(stderr, "FAIL: merge/gallop counts disagree\n");
      return 1;
    }
    std::printf("%8zu %8zu %7zux %12.3f %12.3f %9.2f %8s\n", kShort, long_len,
                ratio, merge_ms, gallop_ms,
                merge_ms > 0 ? gallop_ms / merge_ms : 0,
                gallop_ms < merge_ms ? "gallop" : "merge");
  }

  // Bounds pre-check: disjoint inputs short-circuit to two compares.
  const size_t long_len = kShort * 64;
  std::vector<NodeId> lo_list = RandomSorted(kShort, 1 << 16, 11);
  std::vector<NodeId> hi_list = RandomSorted(long_len, 1 << 16, 12);
  for (NodeId& x : hi_list) x += 1 << 17;  // fully above lo_list
  uint64_t sink = 0;
  const double checked_ms = bench::MedianMs(iters, [&] {
    for (size_t rep = 0; rep < kPairs; ++rep) {
      detail::IntersectSortedForEach(lo_list, hi_list,
                                     [&](NodeId) { ++sink; });
    }
  });
  const double unchecked_ms = bench::MedianMs(iters, [&] {
    for (size_t rep = 0; rep < kPairs; ++rep) {
      sink += GallopCountOnly(lo_list, hi_list);
    }
  });
  std::printf(
      "\nbounds pre-check on disjoint %zu∩%zu: with %.4fms | without %.4fms "
      "(%.0fx) [sink %" PRIu64 "]\n",
      kShort, long_len, checked_ms, unchecked_ms,
      checked_ms > 0 ? unchecked_ms / checked_ms : 0, sink);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  bool smoke = false;
  bool gallop = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--gallop") == 0) gallop = true;
  }
  const double scale = smoke ? 0.05 : bench::BenchScale();
  const int iters = bench::ParseRepeat(argc, argv, smoke ? 1 : 5);
  if (gallop) return RunGallopSweep(iters);

  bench::PrintHeader("Kernel fast path: function-callback vs NeighborSpan");

  // A symmetric single-layer condensed graph with overlapping cliques —
  // the paper's co-occurrence shape, and a degree distribution skewed
  // enough to exercise the edge-balanced splitting.
  gen::CondensedGenOptions gopt;
  gopt.num_real = static_cast<size_t>(30000 * scale);
  gopt.num_virtual = static_cast<size_t>(9000 * scale);
  gopt.mean_size = 10.0;
  gopt.sd_size = 4.0;
  gopt.seed = 7;
  CondensedStorage storage = gen::GenerateCondensed(gopt);

  // Cold extraction: the parallel two-pass CSR expansion itself.
  double expand_ms = 0;
  ExpandedGraph exp;
  {
    ScopedTimer timer(&expand_ms, ScopedTimer::Unit::kMillis);
    exp = ExpandCondensed(storage);
  }
  std::printf("graph: %zu vertices, %" PRIu64
              " expanded edges | ExpandCondensed %.1fms\n\n",
              exp.NumVertices(), exp.CountStoredEdges(), expand_ms);

  const CallbackOnlyGraph fn(exp);
  std::vector<KernelRow> rows;

  {
    KernelRow r{.name = "pagerank"};
    std::vector<double> a;
    std::vector<double> b;
    const PageRankOptions opt{.iterations = 10};
    r.function_ms = MedianMs(iters, [&] { a = PageRank(fn, opt); });
    r.span_ms = MedianMs(iters, [&] { b = PageRank(exp, opt); });
    r.match = a == b;  // same summation order -> bitwise identical
    rows.push_back(r);
  }
  {
    KernelRow r{.name = "triangles"};
    uint64_t a = 0;
    uint64_t b = 0;
    r.function_ms = MedianMs(iters, [&] { a = CountTriangles(fn); });
    r.span_ms = MedianMs(iters, [&] { b = CountTriangles(exp); });
    r.match = a == b;
    rows.push_back(r);
  }
  {
    KernelRow r{.name = "connected_components"};
    std::vector<NodeId> a;
    std::vector<NodeId> b;
    r.function_ms = MedianMs(iters, [&] { a = ConnectedComponents(fn); });
    r.span_ms = MedianMs(iters, [&] { b = ConnectedComponents(exp); });
    r.match = a == b;
    rows.push_back(r);
  }
  {
    KernelRow r{.name = "bfs"};
    std::vector<uint32_t> a;
    std::vector<uint32_t> b;
    r.function_ms = MedianMs(iters, [&] { a = Bfs(fn, 0); });
    r.span_ms = MedianMs(iters, [&] { b = Bfs(exp, 0); });
    r.match = a == b;
    rows.push_back(r);
  }
  {
    KernelRow r{.name = "kcore"};
    std::vector<uint32_t> a;
    std::vector<uint32_t> b;
    r.function_ms = MedianMs(iters, [&] { a = KCoreDecomposition(fn); });
    r.span_ms = MedianMs(iters, [&] { b = KCoreDecomposition(exp); });
    r.match = a == b;
    rows.push_back(r);
  }
  {
    KernelRow r{.name = "degree"};
    std::vector<uint64_t> a;
    std::vector<uint64_t> b;
    r.function_ms = MedianMs(iters, [&] { a = ComputeDegrees(fn); });
    r.span_ms = MedianMs(iters, [&] { b = ComputeDegrees(exp); });
    r.match = a == b;
    rows.push_back(r);
  }
  {
    KernelRow r{.name = "clustering"};
    std::vector<double> a;
    std::vector<double> b;
    r.function_ms =
        MedianMs(iters, [&] { a = LocalClusteringCoefficients(fn); });
    r.span_ms = MedianMs(iters, [&] { b = LocalClusteringCoefficients(exp); });
    r.match = NearlyEqual(a, b);
    rows.push_back(r);
  }

  std::printf("%-22s %14s %12s %9s %7s\n", "kernel", "function (ms)",
              "span (ms)", "speedup", "match");
  bench::PrintRule();
  bool all_match = true;
  for (const KernelRow& r : rows) {
    all_match = all_match && r.match;
    std::printf("%-22s %14.2f %12.2f %8.2fx %7s\n", r.name.c_str(),
                r.function_ms, r.span_ms, r.Speedup(), r.match ? "yes" : "NO");
  }

  // Condensed analytics: the same PageRank on BITMAP-2, which aggregates
  // at virtual nodes, against EXP built from the same storage.
  Result<BitmapGraph> bitmap2 = BuildBitmap2(storage);
  if (!bitmap2.ok()) {
    std::fprintf(stderr, "BITMAP-2: %s\n", bitmap2.status().ToString().c_str());
    return 1;
  }
  const size_t bitmap2_bytes = bitmap2->MemoryBytes();
  const size_t exp_bytes = exp.MemoryBytes();
  PageRankOptions pr_opt{.iterations = 10};
  const double bitmap2_pagerank_ms =
      MedianMs(iters, [&] { (void)PageRank(*bitmap2, pr_opt); });
  const double exp_pagerank_ms =
      MedianMs(iters, [&] { (void)PageRank(exp, pr_opt); });
  const double ratio =
      exp_pagerank_ms > 0 ? bitmap2_pagerank_ms / exp_pagerank_ms : 0;
  std::printf(
      "\nPageRank on BITMAP-2 (%zu B) vs EXP (%zu B): %.1fms vs %.1fms "
      "(%.2fx)\n",
      bitmap2_bytes, exp_bytes, bitmap2_pagerank_ms, exp_pagerank_ms, ratio);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"kernels\",\n  \"scale\": %g,\n", scale);
    std::fprintf(f,
                 "  \"graph\": {\"vertices\": %zu, \"edges\": %" PRIu64
                 "},\n  \"expand_ms\": %.2f,\n",
                 exp.NumVertices(), exp.CountStoredEdges(), expand_ms);
    std::fprintf(f, "  \"kernels\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const KernelRow& r = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"function_ms\": %.3f, "
                   "\"span_ms\": %.3f, \"speedup\": %.2f}%s\n",
                   r.name.c_str(), r.function_ms, r.span_ms, r.Speedup(),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"condensed_pagerank\": {\"bitmap2_bytes\": %zu, "
                 "\"exp_bytes\": %zu, \"bitmap2_ms\": %.3f, "
                 "\"exp_ms\": %.3f, \"ratio\": %.2f}\n}\n",
                 bitmap2_bytes, exp_bytes, bitmap2_pagerank_ms,
                 exp_pagerank_ms, ratio);
    std::fclose(f);
    std::printf("\nJSON written to %s\n", out_path.c_str());
  }

  if (!all_match) {
    std::fprintf(stderr, "FAIL: span and function paths disagree\n");
    return 1;
  }
  return 0;
}
