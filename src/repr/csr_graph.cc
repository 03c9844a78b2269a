#include "repr/csr_graph.h"

#include <algorithm>

#include "common/memory.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace graphgen {

CsrGraph CsrGraph::Build(const Graph& g, size_t threads) {
  static obs::Counter* const builds =
      obs::MetricsRegistry::Global().GetCounter("repr.csr_builds");
  static obs::Histogram* const build_us =
      obs::MetricsRegistry::Global().GetHistogram("repr.csr_build_us");
  builds->Increment();
  ScopedTimer build_timer(build_us);
  CsrGraph out;
  const size_t n = g.NumVertices();
  out.exists_.assign(n, 0);
  if (n == 0) return out;

  // Single sweep per range: each worker drains its vertices' neighbor
  // callbacks into one thread-local buffer and records per-vertex degrees;
  // the buffers are then stitched into the contiguous CSR. This traverses
  // the (possibly expensive) condensed representation exactly once.
  std::vector<IndexRange> ranges = BalancedRanges(
      n, [](size_t) { return uint64_t{1}; }, threads);
  std::vector<std::vector<NodeId>> chunk_edges(ranges.size());
  std::vector<uint64_t> deg(n, 0);
  ParallelInvoke(ranges.size(), [&](size_t chunk) {
    const IndexRange r = ranges[chunk];
    std::vector<NodeId>& buf = chunk_edges[chunk];
    for (size_t u = r.begin; u < r.end; ++u) {
      const NodeId id = static_cast<NodeId>(u);
      if (!g.VertexExists(id)) continue;
      out.exists_[u] = 1;
      const size_t before = buf.size();
      g.ForEachNeighbor(id, [&](NodeId v) { buf.push_back(v); });
      deg[u] = buf.size() - before;
    }
  });

  for (size_t u = 0; u < n; ++u) out.num_active_ += out.exists_[u];
  out.adj_ = FlatAdjacency::FromDegrees(deg);
  // Stitch each chunk's buffer into its CSR slices and sort every range
  // (condensed representations may emit neighbors in hash order).
  ParallelInvoke(ranges.size(), [&](size_t chunk) {
    const IndexRange r = ranges[chunk];
    const NodeId* src = chunk_edges[chunk].data();
    for (size_t u = r.begin; u < r.end; ++u) {
      NodeId* dst = out.adj_.neighbors.data() + out.adj_.offsets[u];
      std::copy_n(src, deg[u], dst);
      std::sort(dst, dst + deg[u]);
      src += deg[u];
    }
  });
  return out;
}

bool CsrGraph::ExistsEdge(NodeId u, NodeId v) const {
  if (!VertexExists(u) || !VertexExists(v)) return false;
  std::span<const NodeId> s = adj_.Slice(u);
  return std::binary_search(s.begin(), s.end(), v);
}

Status CsrGraph::AddEdge(NodeId, NodeId) {
  return Status::Unsupported("CSR snapshot is immutable");
}

Status CsrGraph::DeleteEdge(NodeId, NodeId) {
  return Status::Unsupported("CSR snapshot is immutable");
}

Status CsrGraph::DeleteVertex(NodeId) {
  return Status::Unsupported("CSR snapshot is immutable");
}

GraphFootprint CsrGraph::MemoryFootprint() const {
  return {adj_.MemoryBytes(), 0, VectorBytes(exists_)};
}

}  // namespace graphgen
