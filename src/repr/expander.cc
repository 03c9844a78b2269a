#include "repr/expander.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace graphgen {

// Two-pass count-then-fill CSR build. Pass 1 measures each source's raw
// path-neighbor count (duplicates included) so one contiguous scratch
// adjacency can be carved into per-vertex ranges; pass 2 fills each range
// and sorts + uniques it in place, per thread and without allocation. The
// deduplicated ranges are then compacted into the final out-CSR.
ExpandedGraph ExpandCondensed(const CondensedStorage& storage) {
  static obs::Counter* const expands =
      obs::MetricsRegistry::Global().GetCounter("repr.expand_calls");
  static obs::Histogram* const expand_us =
      obs::MetricsRegistry::Global().GetHistogram("repr.expand_us");
  expands->Increment();
  ScopedTimer expand_timer(expand_us);
  const size_t n = storage.NumRealNodes();
  ExpandedGraph graph(n);

  // Pass 1: raw (duplicated) path-degree per source. Work per vertex is
  // proportional to its condensed out-fanout, so split by that weight.
  std::vector<uint64_t> raw_deg(n, 0);
  ParallelForRanges(
      BalancedRanges(n,
                     [&](size_t u) {
                       return uint64_t{1} +
                              storage.OutEdges(NodeRef::Real(
                                               static_cast<NodeId>(u)))
                                  .size();
                     }),
      [&](size_t begin, size_t end) {
        for (size_t u = begin; u < end; ++u) {
          if (storage.IsDeleted(static_cast<NodeId>(u))) continue;
          uint64_t count = 0;
          storage.ForEachPathNeighbor(static_cast<NodeId>(u),
                                      [&](NodeId) { ++count; });
          raw_deg[u] = count;
        }
      });

  FlatAdjacency raw = FlatAdjacency::FromDegrees(raw_deg);

  // Pass 2: fill each range, then sort + unique it in place; deg[u] is the
  // deduplicated degree. Ranges are disjoint, so threads never contend.
  std::vector<uint64_t> deg(n, 0);
  ParallelForRanges(
      BalancedRanges(n, [&](size_t u) { return uint64_t{1} + raw_deg[u]; }),
      [&](size_t begin, size_t end) {
        for (size_t u = begin; u < end; ++u) {
          if (raw_deg[u] == 0) continue;
          NodeId* dst = raw.neighbors.data() + raw.offsets[u];
          size_t k = 0;
          storage.ForEachPathNeighbor(static_cast<NodeId>(u),
                                      [&](NodeId v) { dst[k++] = v; });
          std::sort(dst, dst + k);
          deg[u] = static_cast<uint64_t>(std::unique(dst, dst + k) - dst);
        }
      });

  // Compact the deduplicated prefixes into the final out-CSR.
  FlatAdjacency out = FlatAdjacency::FromDegrees(deg);
  ParallelForRanges(
      BalancedRanges(n, [&](size_t u) { return uint64_t{1} + deg[u]; }),
      [&](size_t begin, size_t end) {
        for (size_t u = begin; u < end; ++u) {
          std::copy_n(raw.neighbors.data() + raw.offsets[u], deg[u],
                      out.neighbors.data() + out.offsets[u]);
        }
      });
  raw = FlatAdjacency();

  // Propagate lazy deletions at adoption time: ForEachPathNeighbor never
  // emits deleted endpoints, so the CSR is already scrubbed and the span
  // fast path stays available despite them.
  std::vector<uint8_t> deleted(n, 0);
  for (size_t u = 0; u < n; ++u) {
    deleted[u] = storage.IsDeleted(static_cast<NodeId>(u)) ? 1 : 0;
  }
  graph.AdoptCsr(std::move(out), std::move(deleted));
  // Copy vertex properties across.
  graph.properties() = storage.properties();
  return graph;
}

ExpandedGraph ExpandGraph(const Graph& g, size_t threads) {
  static obs::Counter* const builds =
      obs::MetricsRegistry::Global().GetCounter("repr.csr_builds");
  static obs::Histogram* const build_us =
      obs::MetricsRegistry::Global().GetHistogram("repr.csr_build_us");
  builds->Increment();
  ScopedTimer build_timer(build_us);
  const size_t n = g.NumVertices();

  // Single sweep per range: each worker drains its vertices' neighbor
  // callbacks into one thread-local buffer and records per-vertex degrees;
  // the buffers are then stitched into the contiguous CSR. This traverses
  // the (possibly expensive) source representation exactly once.
  std::vector<IndexRange> ranges = BalancedRanges(
      n, [](size_t) { return uint64_t{1}; }, threads);
  std::vector<std::vector<NodeId>> chunk_edges(ranges.size());
  std::vector<uint64_t> deg(n, 0);
  std::vector<uint8_t> deleted(n, 1);
  ParallelInvoke(ranges.size(), [&](size_t chunk) {
    const IndexRange r = ranges[chunk];
    std::vector<NodeId>& buf = chunk_edges[chunk];
    for (size_t u = r.begin; u < r.end; ++u) {
      const NodeId id = static_cast<NodeId>(u);
      if (!g.VertexExists(id)) continue;
      deleted[u] = 0;
      const size_t before = buf.size();
      g.ForEachNeighbor(id, [&](NodeId v) { buf.push_back(v); });
      deg[u] = buf.size() - before;
    }
  });

  FlatAdjacency adj = FlatAdjacency::FromDegrees(deg);
  // Stitch each chunk's buffer into its CSR slices and sort every range
  // (condensed representations may emit neighbors in hash order).
  ParallelInvoke(ranges.size(), [&](size_t chunk) {
    const IndexRange r = ranges[chunk];
    const NodeId* src = chunk_edges[chunk].data();
    for (size_t u = r.begin; u < r.end; ++u) {
      NodeId* dst = adj.neighbors.data() + adj.offsets[u];
      std::copy_n(src, deg[u], dst);
      std::sort(dst, dst + deg[u]);
      src += deg[u];
    }
  });
  // ForEachNeighbor never emits a deleted target, so the deletions are
  // pre-scrubbed and the snapshot keeps its flat adjacency.
  ExpandedGraph graph;
  graph.AdoptCsr(std::move(adj), std::move(deleted));
  return graph;
}

}  // namespace graphgen
