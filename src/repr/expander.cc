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
// deduplicated ranges are then compacted into the final out-CSR, and the
// in-CSR is its transpose.
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
  FlatAdjacency in = out.Transpose();

  // Propagate lazy deletions at adoption time: ForEachPathNeighbor never
  // emits deleted endpoints, so the CSR is already scrubbed and the span
  // fast path stays available despite them.
  std::vector<uint8_t> deleted(n, 0);
  for (size_t u = 0; u < n; ++u) {
    deleted[u] = storage.IsDeleted(static_cast<NodeId>(u)) ? 1 : 0;
  }
  graph.AdoptCsr(std::move(out), std::move(in), std::move(deleted));
  // Copy vertex properties across.
  graph.properties() = storage.properties();
  return graph;
}

}  // namespace graphgen
