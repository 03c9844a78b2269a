#include "bsp/bsp_engine.h"

#include <atomic>
#include <span>
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
                               std::span<const NodeRef> out,
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
  if (graph_.mode() == BspMode::kExpanded) return Status::OK();
  const CondensedGraph& g = *graph_.condensed();
  for (uint32_t v = 0; v < g.NumVirtualNodes(); ++v) {
    for (NodeRef r : g.OutEdges(NodeRef::Virtual(v))) {
      if (r.is_virtual()) {
        return Status::Unsupported(
            "the BSP engine supports single-layer condensed graphs only");
      }
    }
  }
  return Status::OK();
}

FlatAdjacency BspEngine::VirtualSources() const {
  if (graph_.mode() == BspMode::kExpanded) return FlatAdjacency();
  const CondensedGraph& g = *graph_.condensed();
  const size_t nr = g.NumVertices();
  // Counting pass, then a scatter in ascending source order.
  std::vector<uint64_t> in_degree(g.NumVirtualNodes(), 0);
  for (NodeId u = 0; u < nr; ++u) {
    if (g.IsDeleted(u)) continue;
    for (NodeRef r : g.OutEdges(NodeRef::Real(u))) {
      if (r.is_virtual()) ++in_degree[r.index()];
    }
  }
  FlatAdjacency sources = FlatAdjacency::FromDegrees(in_degree);
  std::vector<uint64_t> cursor(sources.offsets.begin(),
                               sources.offsets.end() - 1);
  for (NodeId u = 0; u < nr; ++u) {
    if (g.IsDeleted(u)) continue;
    for (NodeRef r : g.OutEdges(NodeRef::Real(u))) {
      if (r.is_virtual()) sources.neighbors[cursor[r.index()]++] = u;
    }
  }
  return sources;
}

size_t BspEngine::RunMemoryBytes(const FlatAdjacency& sources) const {
  return graph_.MemoryBytes() +
         (graph_.mode() == BspMode::kExpanded ? 0 : sources.MemoryBytes());
}

Result<BspRunStats> BspEngine::RunDegree(std::vector<uint64_t>* degrees) {
  GRAPHGEN_RETURN_NOT_OK(CheckSingleLayer());
  WallTimer timer;
  const FlatAdjacency sources = VirtualSources();
  BspRunStats stats = Degree(sources, degrees);
  stats.memory_bytes = RunMemoryBytes(sources);
  stats.seconds = timer.Seconds();
  return stats;
}

BspRunStats BspEngine::Degree(const FlatAdjacency& sources,
                              std::vector<uint64_t>* degrees) {
  BspRunStats stats;

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
    return stats;
  }

  const CondensedGraph& s = *graph_.condensed();
  const size_t nr = s.NumVertices();
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
        std::unordered_set<NodeId> senders;
        for (size_t v = begin; v < end; ++v) {
          const NodeId vid = static_cast<NodeId>(v);
          const std::span<const NodeRef> out =
              s.OutEdges(NodeRef::Virtual(vid));
          if (out.empty()) continue;
          const std::span<const NodeId> in = sources.Slice(vid);
          senders.clear();
          senders.insert(in.begin(), in.end());
          if (graph_.mode() == BspMode::kBitmap) {
            local += ForwardThroughBitmaps(
                *graph_.bitmap(), vid, out, senders,
                [](NodeId) { return uint64_t{1}; }, acc);
          } else {
            const uint64_t agg = senders.size();
            for (NodeRef r : out) {
              ++local;
              if (!r.is_real()) continue;
              uint64_t contribution =
                  agg - (senders.contains(r.index()) ? 1 : 0);
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
  return stats;
}

Result<BspRunStats> BspEngine::RunPageRank(size_t iterations, double damping,
                                           std::vector<double>* ranks) {
  GRAPHGEN_RETURN_NOT_OK(CheckSingleLayer());
  const FlatAdjacency sources = VirtualSources();
  BspRunStats stats;
  stats.memory_bytes = RunMemoryBytes(sources);

  // Degrees are precomputed and stored as a vertex property (§6.4).
  std::vector<uint64_t> degrees;
  Degree(sources, &degrees);

  WallTimer timer;
  const size_t nr = graph_.NumReal();
  size_t live = 0;
  for (size_t u = 0; u < nr; ++u) {
    bool exists = graph_.mode() == BspMode::kExpanded
                      ? graph_.expanded()->VertexExists(static_cast<NodeId>(u))
                      : !graph_.condensed()->IsDeleted(static_cast<NodeId>(u));
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
               : !graph_.condensed()->IsDeleted(static_cast<NodeId>(u));
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
      const CondensedGraph& s = *graph_.condensed();
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
            for (size_t v = begin; v < end; ++v) {
              const NodeId vid = static_cast<NodeId>(v);
              const std::span<const NodeRef> out =
                  s.OutEdges(NodeRef::Virtual(vid));
              if (out.empty()) continue;
              const std::span<const NodeId> in = sources.Slice(vid);
              if (graph_.mode() == BspMode::kBitmap) {
                local += ForwardThroughBitmaps(
                    *graph_.bitmap(), vid, out, in,
                    [&](NodeId u) { return share[u]; }, acc);
              } else {
                double agg = 0.0;
                std::unordered_set<NodeId> member(in.begin(), in.end());
                for (NodeId u : in) agg += share[u];
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
  const FlatAdjacency sources = VirtualSources();
  BspRunStats stats;
  stats.memory_bytes = RunMemoryBytes(sources);

  const size_t nr = graph_.NumReal();
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
      const CondensedGraph& s = *graph_.condensed();
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
              const NodeId vid = static_cast<NodeId>(v);
              uint32_t agg = 0xFFFFFFFFu;
              for (NodeId u : sources.Slice(vid)) {
                agg = std::min(agg, current[u]);
              }
              if (agg == 0xFFFFFFFFu) continue;
              for (NodeRef r : s.OutEdges(NodeRef::Virtual(vid))) {
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
