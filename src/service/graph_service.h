#ifndef GRAPHGEN_SERVICE_GRAPH_SERVICE_H_
#define GRAPHGEN_SERVICE_GRAPH_SERVICE_H_

#include <array>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/parallel.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/graphgen.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "service/graph_cache.h"

namespace graphgen::service {

struct ServiceOptions {
  /// Budget for the extraction cache (summed representation-aware graph
  /// footprints, §3.1's "batches that fit in memory"). 0 = unlimited.
  size_t cache_budget_bytes = size_t{256} << 20;
  /// Worker threads serving ExtractAsync (0 = DefaultThreadCount()).
  size_t worker_threads = 0;
  /// Extraction options applied when a request does not pass its own.
  GraphGenOptions default_options;
  /// Cold extractions at least this slow land in the slow-request log
  /// with their full QueryProfile retained. <= 0 disables the log.
  double slow_request_seconds = 1.0;
  /// Ring-buffer capacity of the slow-request log (oldest evicted first).
  size_t slow_log_capacity = 32;
  /// Admission control: at most this many cold extractions run the
  /// pipeline concurrently (cache hits and coalesced waiters are never
  /// gated). 0 = unlimited (no admission control).
  size_t max_inflight_extractions = 0;
  /// How many extraction owners may wait in the FIFO admission queue
  /// before new arrivals are rejected with Status::Overloaded.
  size_t admission_queue_capacity = 16;
  /// Budget for the stale-graph store backing RequestOptions::allow_stale:
  /// every successful extraction is also remembered here, and a failing
  /// re-extraction of the same key can fall back to it. Survives
  /// ClearCache (that is its use case). 0 = unlimited.
  size_t stale_budget_bytes = size_t{64} << 20;
  /// Incremental extraction: capture the delta-patching state with every
  /// extraction, and advance behind-version cache entries by patching only
  /// the appended rows in (service.delta_patched) instead of a cold run.
  /// Non-append-safe changes (rebase, count rules, drift) fall back to a
  /// cold extraction (service.delta_fallback). Independent of this flag,
  /// every cache hit validates its version vector first — a mutated table
  /// never produces a stale hit (allow_stale keeps its meaning: it only
  /// answers *failing* re-extractions).
  bool incremental = true;
};

/// Per-request robustness knobs, orthogonal to GraphGenOptions (they
/// never enter the cache key: the same graph is the same graph whatever
/// deadline it was extracted under).
struct RequestOptions {
  /// Relative deadline for the whole request, including time spent queued
  /// for admission. <= 0 = none. Expiry surfaces as DeadlineExceeded.
  double deadline_seconds = 0;
  /// Transient-memory ceiling for the extraction pipeline (hash-join
  /// tables, DISTINCT sets, morsel buffers, assembly batches, CSR build
  /// arrays). 0 = unlimited. Tripping it surfaces as ResourceExhausted.
  size_t memory_limit_bytes = 0;
  /// When the pipeline fails (fault, deadline, memory, overload), serve
  /// the most recent successfully extracted graph for this key instead,
  /// if one exists. Counted in stats as stale_served.
  bool allow_stale = false;
  /// Cooperative cancellation: keep a copy, call RequestCancel(), and the
  /// request unwinds with Cancelled within a few morsel quanta.
  CancelToken cancel;
};

/// One row of List(): a graph the analyst has registered under a name.
struct NamedGraphInfo {
  std::string name;
  std::string representation;
  size_t active_vertices = 0;
  size_t virtual_nodes = 0;
  uint64_t stored_edges = 0;
  size_t footprint_bytes = 0;
};

/// Counters exposed by Stats() (monotonic except the gauge fields).
/// All fields are uint64_t so callers can print / diff them uniformly;
/// the snapshot is sourced from the service's MetricsRegistry in one pass.
struct ServiceStats {
  uint64_t requests = 0;          // Extract calls (sync + async)
  uint64_t cache_hits = 0;        // served from cache, no pipeline run
  uint64_t cold_extractions = 0;  // ran the full planner/executor pipeline
  uint64_t delta_patched = 0;     // behind-version entries advanced by patch
  uint64_t delta_fallback = 0;    // patch attempts that fell back to cold
  uint64_t coalesced = 0;         // waited on an identical in-flight request
  uint64_t failed = 0;            // requests that returned a non-OK status
  uint64_t evictions = 0;         // cache entries dropped for the budget
  uint64_t uncacheable = 0;       // graphs larger than the whole budget
  uint64_t slow_requests = 0;     // cold extractions over the slow threshold
  uint64_t cancelled = 0;         // failures: caller cancelled
  uint64_t deadline_exceeded = 0;  // failures: deadline passed
  uint64_t overload_rejected = 0;  // failures: admission queue full
  uint64_t resource_exhausted = 0;  // failures: memory ceiling tripped
  uint64_t stale_served = 0;      // failures answered from the stale store
  uint64_t inflight_extractions = 0;  // gauge: pipelines running now
  uint64_t admission_queued = 0;      // gauge: owners waiting for a slot
  uint64_t cache_bytes = 0;       // gauge: resident cache footprint
  uint64_t cache_graphs = 0;      // gauge: resident cache entries
  uint64_t named_graphs = 0;      // gauge: registry size
  uint64_t cache_budget_bytes = 0;
  uint64_t worker_threads = 0;
};

/// One retained slow request: what ran, how long it took, and the full
/// EXPLAIN ANALYZE profile captured while it ran (null when observability
/// was disabled during the extraction).
struct SlowRequest {
  std::string datalog;
  double seconds = 0;
  uint64_t sequence = 0;  // monotonically increasing admission order
  std::shared_ptr<const obs::QueryProfile> profile;
};

/// The serving layer of §3.1: a long-lived engine that owns a relational
/// database and answers repeated extraction/analysis requests from many
/// analysts. Wraps the one-shot GraphGen library call with
///  * a canonical-key extraction cache (GraphCache) so re-extracting the
///    same hidden graph is a lookup, not a pipeline run,
///  * single-flight coalescing — concurrent requests for the same key run
///    the pipeline once and share the result,
///  * a ThreadPool so different graphs extract concurrently, and
///  * a named-graph registry so analysts can pin, enumerate, and drop
///    result graphs independent of cache eviction.
/// All public methods are thread-safe. Returned GraphHandles are immutable
/// shared snapshots: safe to read from any thread, never invalidated by
/// eviction or Drop.
class GraphService {
 public:
  explicit GraphService(const rel::Database* db, ServiceOptions options = {});
  /// Mutable-database service: additionally enables Append(), the live
  /// ingest path that keeps cached graphs patchable.
  explicit GraphService(rel::Database* db, ServiceOptions options = {});
  ~GraphService();

  GraphService(const GraphService&) = delete;
  GraphService& operator=(const GraphService&) = delete;

  /// Extracts the hidden graph `datalog` describes (or returns the cached
  /// instance). Blocks until the graph is available. The RequestOptions
  /// overloads add per-request deadline / memory ceiling / cancellation /
  /// stale-fallback without affecting what gets cached.
  Result<GraphHandle> Extract(std::string_view datalog);
  Result<GraphHandle> Extract(std::string_view datalog,
                              const GraphGenOptions& options);
  Result<GraphHandle> Extract(std::string_view datalog,
                              const GraphGenOptions& options,
                              const RequestOptions& request);

  /// Appends rows to a table of the owned database, serialized against
  /// in-flight extractions (writer side of db_mu_): extractions and cache
  /// freshness checks always see either the pre- or the post-append state,
  /// never a half-applied batch. Requires the mutable-database
  /// constructor; read-only services return InvalidArgument. Cached graphs
  /// are NOT invalidated eagerly — the next Extract sees the version-vector
  /// mismatch and patches (or re-extracts) then.
  Status Append(const std::string& table, const std::vector<rel::Row>& rows)
      EXCLUDES(db_mu_);

  /// Queues the extraction on the worker pool and returns immediately.
  /// The future always resolves — a task that throws resolves it to
  /// ExecutionError rather than terminating the worker.
  std::future<Result<GraphHandle>> ExtractAsync(std::string datalog);
  std::future<Result<GraphHandle>> ExtractAsync(std::string datalog,
                                                GraphGenOptions options);
  std::future<Result<GraphHandle>> ExtractAsync(std::string datalog,
                                                GraphGenOptions options,
                                                RequestOptions request);

  /// Extract + bind the result to `name` (rebinding a taken name replaces
  /// the old graph, like shell variable assignment).
  Result<GraphHandle> ExtractNamed(const std::string& name,
                                   std::string_view datalog);
  Result<GraphHandle> ExtractNamed(const std::string& name,
                                   std::string_view datalog,
                                   const GraphGenOptions& options);
  Result<GraphHandle> ExtractNamed(const std::string& name,
                                   std::string_view datalog,
                                   const GraphGenOptions& options,
                                   const RequestOptions& request);

  /// Binds an externally produced graph. Fails with kAlreadyExists if the
  /// name is taken and `overwrite` is false.
  Status Register(const std::string& name, GraphHandle graph,
                  bool overwrite = false);
  Result<GraphHandle> Lookup(const std::string& name) const;
  Status Drop(const std::string& name);
  /// Registry contents sorted by name.
  std::vector<NamedGraphInfo> List() const;

  /// The handle's graph as a `shared_ptr<const Graph>` that shares the
  /// handle's ownership (an aliasing pointer), or null for a null handle.
  /// Nothing is built or cached: kernels run on the representation the
  /// service holds, condensed or not.
  std::shared_ptr<const Graph> FlatView(const GraphHandle& handle);

  /// Drops every cached graph (named graphs stay pinned). The stale
  /// store survives — it exists precisely to answer allow_stale requests
  /// after the cache is gone.
  void ClearCache();

  /// Re-budgets the extraction cache at runtime (ops lever: shrink under
  /// memory pressure, grow for a heavy analysis session). Shrinking
  /// evicts immediately — to empty if even one resident graph exceeds the
  /// new budget. 0 = unlimited. Named/pinned graphs are unaffected.
  void SetCacheBudget(size_t budget_bytes);

  ServiceStats Stats() const;

  /// The per-service metrics registry backing Stats(). Counters stay
  /// exact per instance (they are not shared with the process-global
  /// registry); gauges are refreshed by MetricsSnapshot()/Stats().
  obs::MetricsRegistry& metrics() { return registry_; }

  /// Registry snapshot with the gauge metrics (cache footprint, admission,
  /// registry size) refreshed first — the `stats` shell command
  /// and JSON exports read this.
  std::vector<obs::MetricValue> MetricsSnapshot() const;

  /// Retained slow requests, oldest first (bounded ring buffer; see
  /// ServiceOptions::slow_request_seconds / slow_log_capacity).
  std::vector<SlowRequest> SlowRequests() const;

  const rel::Database& db() const { return *db_; }
  const ServiceOptions& options() const { return options_; }

 private:
  /// A request being extracted right now; later arrivals with the same
  /// key block on `cv` instead of re-running the pipeline.
  struct Inflight {
    Mutex mu;
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    Status status GUARDED_BY(mu);
    GraphHandle graph GUARDED_BY(mu);
  };

  Result<GraphHandle> ExtractWithKey(std::string_view datalog,
                                     const GraphGenOptions& options,
                                     const RequestOptions& request);

  /// Admission control for cold-extraction owners: bounded concurrency
  /// with a FIFO wait queue. Returns OK once a slot is held (pair with
  /// ReleaseExtraction), Overloaded when the queue is full, or the
  /// context's Cancelled/DeadlineExceeded when the request dies queued.
  Status AdmitExtraction(const ExecContext& ctx) EXCLUDES(admit_mu_);
  void ReleaseExtraction() EXCLUDES(admit_mu_);
  /// True when `ticket` is at the head of the admission queue and a
  /// pipeline slot is free.
  bool AdmissionTurnLocked(uint64_t ticket) const REQUIRES(admit_mu_);

  /// Classifies a request failure into the per-cause counters and, when
  /// the request allows it, answers from the stale store instead.
  Result<GraphHandle> ResolveFailure(Status status, const std::string& key,
                                     const RequestOptions& request);

  /// True iff the cached entry still matches the database: per-table
  /// version-vector comparison when incremental state was captured, else
  /// the conservative whole-database tick check. Callers hold db_mu_
  /// (reader side) so Append cannot interleave with the comparison.
  bool IsFresh(const GraphHandle& handle) const REQUIRES_SHARED(db_mu_);

  const rel::Database* db_;
  /// Non-null only for the mutable-database constructor; Append's target.
  rel::Database* mutable_db_ = nullptr;
  const ServiceOptions options_;
  GraphGen engine_;
  GraphCache cache_;
  /// Last-known-good store for allow_stale: written on every successful
  /// extraction, read when a re-extraction of the same key fails.
  /// Deliberately not cleared by ClearCache.
  GraphCache stale_;

  /// Records one finished cold extraction: request-latency histogram plus
  /// slow-request retention. Takes mu_ internally.
  void RecordExtractionLatency(std::string_view datalog, double seconds,
                               const obs::QueryProfile& profile);

  /// Guards the single-flight table, the registry and the slow log.
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_
      GUARDED_BY(mu_);
  std::map<std::string, GraphHandle> names_ GUARDED_BY(mu_);

  /// Per-instance registry so a service's counters are exact for that
  /// instance (tests assert precise values); engine-level metrics live in
  /// obs::MetricsRegistry::Global(). Counter/gauge pointers are resolved
  /// once in the constructor — registry entries are never invalidated.
  obs::MetricsRegistry registry_;
  obs::Counter* requests_;
  obs::Counter* cache_hits_;
  obs::Counter* cold_extractions_;
  obs::Counter* delta_patched_;
  obs::Counter* delta_fallback_;
  /// One fallback counter per reason, indexed by PatchFallback - 1.
  std::array<obs::Counter*, planner::kNumPatchFallbacks>
      delta_fallback_by_reason_;
  obs::Counter* coalesced_;
  obs::Counter* failed_;
  obs::Counter* uncacheable_;
  obs::Counter* slow_requests_;
  obs::Counter* cancelled_;
  obs::Counter* deadline_exceeded_;
  obs::Counter* overload_rejected_;
  obs::Counter* resource_exhausted_;
  obs::Counter* stale_served_;
  obs::Gauge* inflight_gauge_;
  obs::Gauge* admission_queue_gauge_;
  obs::Gauge* cache_bytes_gauge_;
  obs::Gauge* cache_graphs_gauge_;
  obs::Gauge* cache_evictions_gauge_;
  obs::Gauge* named_graphs_gauge_;
  obs::Histogram* request_us_;

  /// Ring buffer, oldest at front.
  std::deque<SlowRequest> slow_log_ GUARDED_BY(mu_);
  uint64_t slow_sequence_ GUARDED_BY(mu_) = 0;

  /// Database consistency for live ingest: Append holds the writer side;
  /// extractions, patches, and freshness checks hold the reader side, so
  /// a pipeline never observes a half-applied batch. Lock ordering:
  /// db_mu_ is acquired *after* admission and never while holding mu_.
  mutable SharedMutex db_mu_;

  /// Admission state, under its own lock so queued owners never contend
  /// with cache lookups on mu_.
  mutable Mutex admit_mu_;
  CondVar admit_cv_;
  size_t inflight_extractions_ GUARDED_BY(admit_mu_) = 0;
  /// FIFO of waiting owner tickets.
  std::deque<uint64_t> admit_queue_ GUARDED_BY(admit_mu_);
  uint64_t admit_ticket_ GUARDED_BY(admit_mu_) = 0;

  // Last member: destroyed (and joined) first, so queued tasks finish
  // while the rest of the service is still alive.
  ThreadPool pool_;
};

}  // namespace graphgen::service

#endif  // GRAPHGEN_SERVICE_GRAPH_SERVICE_H_
