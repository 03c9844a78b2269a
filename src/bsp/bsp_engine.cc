#include "bsp/bsp_engine.h"

#include <atomic>
#include <unordered_set>
#include <vector>

#include "common/parallel.h"
#include "common/timer.h"

namespace graphgen::bsp {

namespace {

// CAS-based atomic min for label propagation.
void AtomicMin(std::atomic<uint32_t>& slot, uint32_t value) {
  uint32_t current = slot.load(std::memory_order_relaxed);
  while (value < current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

// The BITMAP half of a virtual-node superstep: each source u in `sources`
// sends weight(u) along the out-edges of virtual node v that u's bitmap
// allows (every edge but u's own self edge when u has none); the per-edge
// sums land in acc. Returns the messages sent, one per out-edge.
template <typename T, typename Sources, typename Weight>
uint64_t ForwardThroughBitmaps(const BitmapGraph& g, uint32_t v,
                               const std::vector<NodeRef>& out,
                               const Sources& sources, Weight weight,
                               std::vector<std::atomic<T>>& acc) {
  std::vector<T> per_edge(out.size(), T{0});
  for (NodeId u : sources) {
    const T w = weight(u);
    const uint64_t* bm = g.FindBitmap(v, u);
    for (size_t i = 0; i < out.size(); ++i) {
      const bool allowed = bm != nullptr
                               ? TestBit(bm, i)
                               : !(out[i].is_real() && out[i].index() == u);
      if (allowed) per_edge[i] += w;
    }
  }
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i].is_real() && per_edge[i] != T{0}) {
      acc[out[i].index()].fetch_add(per_edge[i], std::memory_order_relaxed);
    }
  }
  return out.size();
}

}  // namespace

Status BspEngine::CheckSingleLayer() const {
  if (graph_.mode() != BspMode::kExpanded &&
      !graph_.storage()->IsSingleLayer()) {
    return Status::Unsupported(
        "the BSP engine supports single-layer condensed graphs only");
  }
  return Status::OK();
}

Result<BspRunStats> BspEngine::RunDegree(std::vector<uint64_t>* degrees) {
  GRAPHGEN_RETURN_NOT_OK(CheckSingleLayer());
  WallTimer timer;
  BspRunStats stats;
  stats.memory_bytes = graph_.MemoryBytes();

  if (graph_.mode() == BspMode::kExpanded) {
    const ExpandedGraph& g = *graph_.expanded();
    degrees->assign(g.NumVertices(), 0);
    ParallelFor(
        g.NumVertices(),
        [&](size_t begin, size_t end) {
          for (size_t u = begin; u < end; ++u) {
            (*degrees)[u] = g.OutDegree(static_cast<NodeId>(u));
          }
        },
        threads_);
    stats.supersteps = 1;
    stats.seconds = timer.Seconds();
    return stats;
  }

  const CondensedStorage& s = *graph_.storage();
  const size_t nr = s.NumRealNodes();
  const size_t nv = s.NumVirtualNodes();
  std::vector<std::atomic<uint64_t>> acc(nr);
  for (auto& a : acc) a.store(0, std::memory_order_relaxed);

  // Superstep 1: real vertices send "1" along their out-edges; direct
  // real->real messages land immediately.
  std::atomic<uint64_t> messages{0};
  ParallelFor(
      nr,
      [&](size_t begin, size_t end) {
        uint64_t local = 0;
        for (size_t u = begin; u < end; ++u) {
          if (s.IsDeleted(static_cast<NodeId>(u))) continue;
          for (NodeRef r : s.OutEdges(NodeRef::Real(static_cast<NodeId>(u)))) {
            ++local;
            if (r.is_real() && r.index() != u) {
              acc[r.index()].fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        messages.fetch_add(local, std::memory_order_relaxed);
      },
      threads_);

  // Superstep 2: virtual vertices aggregate and forward per-out-edge
  // combined counts.
  ParallelFor(
      nv,
      [&](size_t begin, size_t end) {
        uint64_t local = 0;
        std::unordered_set<NodeId> sources;
        for (size_t v = begin; v < end; ++v) {
          NodeRef vref = NodeRef::Virtual(static_cast<uint32_t>(v));
          const auto& out = s.OutEdges(vref);
          if (out.empty()) continue;
          sources.clear();
          for (NodeRef r : s.InEdges(vref)) {
            if (r.is_real()) sources.insert(r.index());
          }
          if (graph_.mode() == BspMode::kBitmap) {
            local += ForwardThroughBitmaps(
                *graph_.bitmap(), static_cast<uint32_t>(v), out, sources,
                [](NodeId) { return uint64_t{1}; }, acc);
          } else {
            const uint64_t agg = sources.size();
            for (NodeRef r : out) {
              ++local;
              if (!r.is_real()) continue;
              uint64_t contribution =
                  agg - (sources.contains(r.index()) ? 1 : 0);
              if (contribution > 0) {
                acc[r.index()].fetch_add(contribution,
                                         std::memory_order_relaxed);
              }
            }
          }
        }
        messages.fetch_add(local, std::memory_order_relaxed);
      },
      threads_);

  degrees->assign(nr, 0);
  for (size_t u = 0; u < nr; ++u) {
    (*degrees)[u] = acc[u].load(std::memory_order_relaxed);
  }
  stats.supersteps = 2;
  stats.messages = messages.load();
  stats.seconds = timer.Seconds();
  return stats;
}

Result<BspRunStats> BspEngine::RunPageRank(size_t iterations, double damping,
                                           std::vector<double>* ranks) {
  GRAPHGEN_RETURN_NOT_OK(CheckSingleLayer());
  BspRunStats stats;
  stats.memory_bytes = graph_.MemoryBytes();

  // Degrees are precomputed and stored as a vertex property (§6.4).
  std::vector<uint64_t> degrees;
  GRAPHGEN_ASSIGN_OR_RETURN(BspRunStats degree_stats, RunDegree(&degrees));
  (void)degree_stats;

  WallTimer timer;
  const size_t nr = graph_.mode() == BspMode::kExpanded
                        ? graph_.expanded()->NumVertices()
                        : graph_.storage()->NumRealNodes();
  size_t live = 0;
  for (size_t u = 0; u < nr; ++u) {
    bool exists = graph_.mode() == BspMode::kExpanded
                      ? graph_.expanded()->VertexExists(static_cast<NodeId>(u))
                      : !graph_.storage()->IsDeleted(static_cast<NodeId>(u));
    if (exists) ++live;
  }
  if (live == 0) {
    ranks->clear();
    return stats;
  }
  const double base = (1.0 - damping) / static_cast<double>(live);

  auto is_live = [&](size_t u) {
    return graph_.mode() == BspMode::kExpanded
               ? graph_.expanded()->VertexExists(static_cast<NodeId>(u))
               : !graph_.storage()->IsDeleted(static_cast<NodeId>(u));
  };
  std::vector<double> rank(nr, 0.0);
  for (size_t u = 0; u < nr; ++u) {
    if (is_live(u)) rank[u] = 1.0 / static_cast<double>(live);
  }
  std::vector<double> share(nr, 0.0);
  std::vector<std::atomic<double>> acc(nr);
  std::atomic<uint64_t> messages{0};

  for (size_t iter = 0; iter < iterations; ++iter) {
    for (auto& a : acc) a.store(0.0, std::memory_order_relaxed);
    // Dangling (degree-0) mass is redistributed over all live vertices so
    // rank keeps summing to 1; matches algos::PageRank exactly.
    double dangling = 0.0;
    for (size_t u = 0; u < nr; ++u) {
      if (degrees[u] == 0 && is_live(u)) dangling += rank[u];
    }
    const double dangling_term = dangling / static_cast<double>(live);
    ParallelFor(
        nr,
        [&](size_t begin, size_t end) {
          for (size_t u = begin; u < end; ++u) {
            share[u] =
                degrees[u] > 0 ? rank[u] / static_cast<double>(degrees[u]) : 0;
          }
        },
        threads_);

    if (graph_.mode() == BspMode::kExpanded) {
      const ExpandedGraph& g = *graph_.expanded();
      ParallelFor(
          nr,
          [&](size_t begin, size_t end) {
            uint64_t local = 0;
            for (size_t u = begin; u < end; ++u) {
              if (!g.VertexExists(static_cast<NodeId>(u))) continue;
              const double su = share[u];
              for (NodeId x : g.RawNeighbors(static_cast<NodeId>(u))) {
                acc[x].fetch_add(su, std::memory_order_relaxed);
                ++local;
              }
            }
            messages.fetch_add(local, std::memory_order_relaxed);
          },
          threads_);
      stats.supersteps += 1;
    } else {
      const CondensedStorage& s = *graph_.storage();
      // Superstep A: real -> virtual (direct edges land immediately).
      ParallelFor(
          nr,
          [&](size_t begin, size_t end) {
            uint64_t local = 0;
            for (size_t u = begin; u < end; ++u) {
              if (s.IsDeleted(static_cast<NodeId>(u))) continue;
              const double su = share[u];
              for (NodeRef r :
                   s.OutEdges(NodeRef::Real(static_cast<NodeId>(u)))) {
                ++local;
                if (r.is_real() && r.index() != u) {
                  acc[r.index()].fetch_add(su, std::memory_order_relaxed);
                }
              }
            }
            messages.fetch_add(local, std::memory_order_relaxed);
          },
          threads_);
      // Superstep B: virtual aggregation and forwarding.
      const size_t nv = s.NumVirtualNodes();
      ParallelFor(
          nv,
          [&](size_t begin, size_t end) {
            uint64_t local = 0;
            std::vector<NodeId> sources;
            for (size_t v = begin; v < end; ++v) {
              NodeRef vref = NodeRef::Virtual(static_cast<uint32_t>(v));
              const auto& out = s.OutEdges(vref);
              if (out.empty()) continue;
              sources.clear();
              for (NodeRef r : s.InEdges(vref)) {
                if (r.is_real()) sources.push_back(r.index());
              }
              if (graph_.mode() == BspMode::kBitmap) {
                local += ForwardThroughBitmaps(
                    *graph_.bitmap(), static_cast<uint32_t>(v), out, sources,
                    [&](NodeId u) { return share[u]; }, acc);
              } else {
                double agg = 0.0;
                std::unordered_set<NodeId> member(sources.begin(),
                                                  sources.end());
                for (NodeId u : sources) agg += share[u];
                for (NodeRef r : out) {
                  ++local;
                  if (!r.is_real()) continue;
                  double contribution =
                      agg - (member.contains(r.index()) ? share[r.index()] : 0);
                  if (contribution != 0.0) {
                    acc[r.index()].fetch_add(contribution,
                                             std::memory_order_relaxed);
                  }
                }
              }
            }
            messages.fetch_add(local, std::memory_order_relaxed);
          },
          threads_);
      stats.supersteps += 2;
    }

    ParallelFor(
        nr,
        [&](size_t begin, size_t end) {
          for (size_t u = begin; u < end; ++u) {
            if (!is_live(u)) continue;
            rank[u] = base + damping * (acc[u].load(std::memory_order_relaxed) +
                                        dangling_term);
          }
        },
        threads_);
  }

  stats.messages = messages.load();
  stats.seconds = timer.Seconds();
  *ranks = std::move(rank);
  return stats;
}

Result<BspRunStats> BspEngine::RunConnectedComponents(
    std::vector<NodeId>* labels) {
  GRAPHGEN_RETURN_NOT_OK(CheckSingleLayer());
  WallTimer timer;
  BspRunStats stats;
  stats.memory_bytes = graph_.MemoryBytes();

  const size_t nr = graph_.mode() == BspMode::kExpanded
                        ? graph_.expanded()->NumVertices()
                        : graph_.storage()->NumRealNodes();
  std::vector<std::atomic<uint32_t>> incoming(nr);
  std::vector<uint32_t> current(nr);
  for (size_t u = 0; u < nr; ++u) current[u] = static_cast<uint32_t>(u);
  std::atomic<uint64_t> messages{0};

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t u = 0; u < nr; ++u) {
      incoming[u].store(current[u], std::memory_order_relaxed);
    }
    if (graph_.mode() == BspMode::kExpanded) {
      const ExpandedGraph& g = *graph_.expanded();
      ParallelFor(
          nr,
          [&](size_t begin, size_t end) {
            uint64_t local = 0;
            for (size_t u = begin; u < end; ++u) {
              if (!g.VertexExists(static_cast<NodeId>(u))) continue;
              for (NodeId x : g.RawNeighbors(static_cast<NodeId>(u))) {
                AtomicMin(incoming[x], current[u]);
                ++local;
              }
            }
            messages.fetch_add(local, std::memory_order_relaxed);
          },
          threads_);
      stats.supersteps += 1;
    } else {
      // Duplicate-insensitive: bitmaps are ignored (C-DUP fast path).
      const CondensedStorage& s = *graph_.storage();
      ParallelFor(
          nr,
          [&](size_t begin, size_t end) {
            uint64_t local = 0;
            for (size_t u = begin; u < end; ++u) {
              if (s.IsDeleted(static_cast<NodeId>(u))) continue;
              for (NodeRef r :
                   s.OutEdges(NodeRef::Real(static_cast<NodeId>(u)))) {
                ++local;
                if (r.is_real()) AtomicMin(incoming[r.index()], current[u]);
              }
            }
            messages.fetch_add(local, std::memory_order_relaxed);
          },
          threads_);
      const size_t nv = s.NumVirtualNodes();
      ParallelFor(
          nv,
          [&](size_t begin, size_t end) {
            uint64_t local = 0;
            for (size_t v = begin; v < end; ++v) {
              NodeRef vref = NodeRef::Virtual(static_cast<uint32_t>(v));
              uint32_t agg = 0xFFFFFFFFu;
              for (NodeRef r : s.InEdges(vref)) {
                if (r.is_real()) agg = std::min(agg, current[r.index()]);
              }
              if (agg == 0xFFFFFFFFu) continue;
              for (NodeRef r : s.OutEdges(vref)) {
                ++local;
                if (r.is_real()) AtomicMin(incoming[r.index()], agg);
              }
            }
            messages.fetch_add(local, std::memory_order_relaxed);
          },
          threads_);
      stats.supersteps += 2;
    }
    for (size_t u = 0; u < nr; ++u) {
      uint32_t v = incoming[u].load(std::memory_order_relaxed);
      if (v < current[u]) {
        current[u] = v;
        changed = true;
      }
    }
  }

  labels->assign(current.begin(), current.end());
  stats.messages = messages.load();
  stats.seconds = timer.Seconds();
  return stats;
}

}  // namespace graphgen::bsp
