#include "service/graph_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/faultpoints.h"
#include "common/timer.h"
#include "service/cache_key.h"

namespace graphgen::service {

namespace {

/// The service-layer fault point lives in a helper so kThrow unwinds into
/// the owner's try block (the macro returns from its enclosing function,
/// which must not be ExtractWithKey itself — that would strand the
/// single-flight entry).
Status BeginExtractionFault() {
  GRAPHGEN_FAULT_POINT("service.extract.begin");
  return Status::OK();
}

}  // namespace

// The constructor lists one delta_fallback_by_reason_ counter per reason.
static_assert(planner::kNumPatchFallbacks == 8);

GraphService::GraphService(const rel::Database* db, ServiceOptions options)
    : db_(db),
      options_(std::move(options)),
      engine_(db),
      cache_(options_.cache_budget_bytes),
      stale_(options_.stale_budget_bytes),
      requests_(registry_.GetCounter("service.requests")),
      cache_hits_(registry_.GetCounter("service.cache_hits")),
      cold_extractions_(registry_.GetCounter("service.cold_extractions")),
      delta_patched_(registry_.GetCounter("service.delta_patched")),
      delta_fallback_(registry_.GetCounter("service.delta_fallback")),
      // planner::PatchFallback order, kNone excluded.
      delta_fallback_by_reason_{
          registry_.GetCounter("service.delta_fallback.no_captured_state"),
          registry_.GetCounter("service.delta_fallback.malformed_state"),
          registry_.GetCounter("service.delta_fallback.table_dropped"),
          registry_.GetCounter("service.delta_fallback.table_rebased"),
          registry_.GetCounter("service.delta_fallback.table_shrank"),
          registry_.GetCounter("service.delta_fallback.multi_nodes_delta"),
          registry_.GetCounter("service.delta_fallback.count_rule_touched"),
          registry_.GetCounter("service.delta_fallback.segmentation_drift")},
      coalesced_(registry_.GetCounter("service.coalesced")),
      failed_(registry_.GetCounter("service.failed")),
      uncacheable_(registry_.GetCounter("service.uncacheable")),
      slow_requests_(registry_.GetCounter("service.slow_requests")),
      cancelled_(registry_.GetCounter("service.cancelled")),
      deadline_exceeded_(registry_.GetCounter("service.deadline_exceeded")),
      overload_rejected_(registry_.GetCounter("service.overload_rejected")),
      resource_exhausted_(registry_.GetCounter("service.resource_exhausted")),
      stale_served_(registry_.GetCounter("service.stale_served")),
      inflight_gauge_(registry_.GetGauge("service.inflight_extractions")),
      admission_queue_gauge_(registry_.GetGauge("service.admission_queued")),
      cache_bytes_gauge_(registry_.GetGauge("service.cache_bytes")),
      cache_graphs_gauge_(registry_.GetGauge("service.cache_graphs")),
      cache_evictions_gauge_(registry_.GetGauge("service.cache_evictions")),
      named_graphs_gauge_(registry_.GetGauge("service.named_graphs")),
      request_us_(registry_.GetHistogram("service.extract_us")),
      pool_(options_.worker_threads) {}

GraphService::GraphService(rel::Database* db, ServiceOptions options)
    : GraphService(static_cast<const rel::Database*>(db), std::move(options)) {
  mutable_db_ = db;
}

GraphService::~GraphService() = default;

Status GraphService::Append(const std::string& table,
                            const std::vector<rel::Row>& rows) {
  if (mutable_db_ == nullptr) {
    return Status::InvalidArgument(
        "service database is read-only (constructed from a const Database)");
  }
  WriterMutexLock lock(db_mu_);
  return mutable_db_->AppendRows(table, rows);
}

bool GraphService::IsFresh(const GraphHandle& handle) const {
  if (handle->incremental != nullptr) {
    for (const auto& [name, basis] : handle->incremental->basis) {
      auto now = db_->VersionOf(name);
      if (!now.ok() || now->version != basis.version ||
          now->rows != basis.rows) {
        return false;
      }
    }
    return true;
  }
  return handle->db_tick == db_->CurrentTick();
}

Result<GraphHandle> GraphService::Extract(std::string_view datalog) {
  return ExtractWithKey(datalog, options_.default_options, RequestOptions{});
}

Result<GraphHandle> GraphService::Extract(std::string_view datalog,
                                          const GraphGenOptions& options) {
  return ExtractWithKey(datalog, options, RequestOptions{});
}

Result<GraphHandle> GraphService::Extract(std::string_view datalog,
                                          const GraphGenOptions& options,
                                          const RequestOptions& request) {
  return ExtractWithKey(datalog, options, request);
}

std::future<Result<GraphHandle>> GraphService::ExtractAsync(
    std::string datalog) {
  return ExtractAsync(std::move(datalog), options_.default_options,
                      RequestOptions{});
}

std::future<Result<GraphHandle>> GraphService::ExtractAsync(
    std::string datalog, GraphGenOptions options) {
  return ExtractAsync(std::move(datalog), std::move(options),
                      RequestOptions{});
}

std::future<Result<GraphHandle>> GraphService::ExtractAsync(
    std::string datalog, GraphGenOptions options, RequestOptions request) {
  auto promise = std::make_shared<std::promise<Result<GraphHandle>>>();
  std::future<Result<GraphHandle>> future = promise->get_future();
  // The task must never throw (ThreadPool workers don't catch): anything
  // escaping ExtractWithKey resolves the future to ExecutionError so the
  // caller's get() always returns.
  pool_.Submit([this, promise, datalog = std::move(datalog),
                options = std::move(options), request = std::move(request)] {
    try {
      promise->set_value(ExtractWithKey(datalog, options, request));
    } catch (const std::exception& e) {
      promise->set_value(Result<GraphHandle>(Status::ExecutionError(
          std::string("async extraction threw: ") + e.what())));
    } catch (...) {
      promise->set_value(Result<GraphHandle>(
          Status::ExecutionError("async extraction threw a non-exception")));
    }
  });
  return future;
}

Result<GraphHandle> GraphService::ResolveFailure(
    Status status, const std::string& key, const RequestOptions& request) {
  failed_->Increment();
  switch (status.code()) {
    case StatusCode::kCancelled: cancelled_->Increment(); break;
    case StatusCode::kDeadlineExceeded: deadline_exceeded_->Increment(); break;
    case StatusCode::kOverloaded: overload_rejected_->Increment(); break;
    case StatusCode::kResourceExhausted:
      resource_exhausted_->Increment();
      break;
    default: break;
  }
  if (request.allow_stale && !key.empty()) {
    if (GraphHandle stale = stale_.Get(key)) {
      stale_served_->Increment();
      return stale;
    }
  }
  return status;
}

bool GraphService::AdmissionTurnLocked(uint64_t ticket) const {
  return inflight_extractions_ < options_.max_inflight_extractions &&
         !admit_queue_.empty() && admit_queue_.front() == ticket;
}

Status GraphService::AdmitExtraction(const ExecContext& ctx) {
  MutexLock lock(admit_mu_);
  const size_t max = options_.max_inflight_extractions;
  if (max == 0) {
    ++inflight_extractions_;
    return Status::OK();
  }
  if (inflight_extractions_ < max && admit_queue_.empty()) {
    ++inflight_extractions_;
    return Status::OK();
  }
  if (admit_queue_.size() >= options_.admission_queue_capacity) {
    return Status::Overloaded(
        "extraction rejected: " + std::to_string(inflight_extractions_) +
        " in flight, " + std::to_string(admit_queue_.size()) +
        " queued (capacity " +
        std::to_string(options_.admission_queue_capacity) + ")");
  }
  const uint64_t ticket = admit_ticket_++;
  admit_queue_.push_back(ticket);
  while (!AdmissionTurnLocked(ticket) && ctx.Check().ok()) {
    // Deadlines are honored while queued; a cancel-only context is polled
    // because nothing kicks the cv when a caller raises the flag.
    if (ctx.has_deadline) {
      admit_cv_.WaitUntil(admit_mu_, ctx.deadline);
      if (ctx.DeadlineExpired()) break;
    } else if (ctx.cancel.cancellable()) {
      admit_cv_.WaitFor(admit_mu_, std::chrono::milliseconds(20));
    } else {
      admit_cv_.Wait(admit_mu_);
    }
  }
  if (!AdmissionTurnLocked(ticket)) {
    auto it = std::find(admit_queue_.begin(), admit_queue_.end(), ticket);
    if (it != admit_queue_.end()) admit_queue_.erase(it);
    admit_cv_.NotifyAll();  // our slot in line opened up
    Status st = ctx.Check();
    return st.ok() ? Status::DeadlineExceeded(
                         "request expired while queued for admission")
                   : st;
  }
  admit_queue_.pop_front();
  ++inflight_extractions_;
  admit_cv_.NotifyAll();
  return Status::OK();
}

void GraphService::ReleaseExtraction() {
  {
    MutexLock lock(admit_mu_);
    --inflight_extractions_;
  }
  admit_cv_.NotifyAll();
}

Result<GraphHandle> GraphService::ExtractWithKey(
    std::string_view datalog, const GraphGenOptions& options,
    const RequestOptions& request) {
  requests_->Increment();
  auto key = CanonicalCacheKey(datalog, options);
  if (!key.ok()) return ResolveFailure(key.status(), "", request);

  // Request lifecycle context threaded through the whole pipeline. The
  // deadline clock starts here, so admission queueing counts against it.
  ExecContext ctx;
  ctx.cancel = request.cancel;
  ctx.SetDeadlineAfter(request.deadline_seconds);
  if (request.memory_limit_bytes > 0) {
    ctx.budget = std::make_shared<MemoryBudget>(request.memory_limit_bytes);
  }

  // Cache lookup + version-vector freshness check (the staleness hole:
  // serving a cached graph after its tables changed). A behind-version
  // entry is NOT a hit — it becomes the patch basis for the owner below.
  GraphHandle basis;
  std::shared_ptr<Inflight> flight;
  bool owner = false;
  for (bool settled = false; !settled;) {
    GraphHandle cached;
    {
      MutexLock lock(mu_);
      cached = cache_.Get(*key);
    }
    if (cached != nullptr) {
      bool fresh;
      {
        ReaderMutexLock db_lock(db_mu_);
        fresh = IsFresh(cached);
      }
      if (fresh) {
        cache_hits_->Increment();
        return cached;
      }
    }
    basis = std::move(cached);

    MutexLock lock(mu_);
    auto it = inflight_.find(*key);
    if (it != inflight_.end()) {
      flight = it->second;
      coalesced_->Increment();
      settled = true;
    } else if (cache_.Get(*key) == basis) {
      flight = std::make_shared<Inflight>();
      inflight_[*key] = flight;
      owner = true;
      settled = true;
    }
    // Otherwise an owner published this key between the lookup above and
    // this lock (the freshness check cannot run under mu_): look again
    // rather than extract it a second time.
  }

  if (!owner) {
    Status flight_status;
    GraphHandle flight_graph;
    {
      MutexLock wait_lock(flight->mu);
      while (!flight->done) flight->cv.Wait(flight->mu);
      flight_status = flight->status;
      flight_graph = flight->graph;
    }
    // Copied out first: ResolveFailure reads the stale store (its own
    // lock), which a coalesced waiter has no business holding this flight
    // lock across.
    if (!flight_status.ok()) {
      return ResolveFailure(flight_status, *key, request);
    }
    return flight_graph;
  }

  // This thread runs the pipeline; everyone else with this key waits. An
  // escaping exception (std::bad_alloc on a huge graph) must still reach
  // the cleanup below, or the stranded inflight_ entry would deadlock
  // every later request for this key — convert it to a Status instead.
  // Admission gates the owner only: cache hits and coalesced waiters cost
  // no pipeline slot. A rejected owner publishes Overloaded to its
  // waiters — the same single-flight failure semantics as any other
  // pipeline error (nothing cached, key immediately retryable).
  GraphHandle handle;
  Status status;
  bool served_by_patch = false;
  WallTimer extract_timer;
  status = AdmitExtraction(ctx);
  if (status.ok()) {
    try {
      status = BeginExtractionFault();
      if (status.ok()) status = ctx.Check();
      if (status.ok()) {
        // Share the service pool with the extraction pipeline so
        // independent Datalog rules fan out onto idle workers. RunBatch
        // lets this thread participate, so running on a pool worker
        // (ExtractAsync) can never deadlock.
        GraphGenOptions run_options = options;
        run_options.extract.pool = &pool_;
        run_options.extract.ctx = ctx;
        run_options.capture_incremental =
            run_options.capture_incremental || options_.incremental;
        // Reader side of db_mu_ for the whole pipeline: Append cannot
        // land a batch between the patch's version snapshot and its
        // delta scans (acquired after admission; see db_mu_ ordering).
        ReaderMutexLock db_lock(db_mu_);
        if (basis != nullptr && options_.incremental) {
          // Behind-version entry: advance it by delta patching. Soft
          // fallbacks run the cold pipeline below; hard failures
          // (cancel, deadline, memory, execution) fail the request.
          Result<PatchOutcome> outcome =
              engine_.PatchExtracted(*basis, run_options);
          if (!outcome.ok()) {
            status = outcome.status();
          } else if (outcome->patched) {
            delta_patched_->Increment();
            handle = std::make_shared<const ExtractedGraph>(
                std::move(outcome->graph));
            served_by_patch = true;
          } else {
            delta_fallback_->Increment();
            const size_t reason = static_cast<size_t>(outcome->fallback);
            delta_fallback_by_reason_[reason - 1]->Increment();
          }
        }
        if (status.ok() && handle == nullptr) {
          Result<ExtractedGraph> extracted =
              engine_.Extract(datalog, run_options);
          status = extracted.status();
          if (extracted.ok()) {
            handle =
                std::make_shared<const ExtractedGraph>(std::move(*extracted));
          }
        }
      }
    } catch (const std::exception& e) {
      handle = nullptr;
      status =
          Status::ExecutionError(std::string("extraction threw: ") + e.what());
    } catch (...) {
      handle = nullptr;
      status = Status::ExecutionError("extraction threw an unknown exception");
    }
    ReleaseExtraction();
  }
  const double extract_seconds = extract_timer.Seconds();
  if (handle != nullptr && !served_by_patch) {
    cold_extractions_->Increment();
    RecordExtractionLatency(datalog, extract_seconds, handle->stats.profile);
  }
  {
    MutexLock lock(mu_);
    inflight_.erase(*key);
    if (handle != nullptr) {
      if (!cache_.Put(*key, handle)) uncacheable_->Increment();
      // Remember the success for allow_stale fallbacks; failures never
      // touch either store. Best-effort: a graph too large for the stale
      // budget just isn't retained, the request still succeeds.
      (void)stale_.Put(*key, handle);
    }
  }
  {
    MutexLock flight_lock(flight->mu);
    flight->done = true;
    flight->status = status;
    flight->graph = handle;
  }
  flight->cv.NotifyAll();
  if (!status.ok()) return ResolveFailure(status, *key, request);
  return handle;
}

Result<GraphHandle> GraphService::ExtractNamed(const std::string& name,
                                               std::string_view datalog) {
  return ExtractNamed(name, datalog, options_.default_options,
                      RequestOptions{});
}

Result<GraphHandle> GraphService::ExtractNamed(
    const std::string& name, std::string_view datalog,
    const GraphGenOptions& options) {
  return ExtractNamed(name, datalog, options, RequestOptions{});
}

Result<GraphHandle> GraphService::ExtractNamed(
    const std::string& name, std::string_view datalog,
    const GraphGenOptions& options, const RequestOptions& request) {
  GRAPHGEN_ASSIGN_OR_RETURN(GraphHandle handle,
                            ExtractWithKey(datalog, options, request));
  GRAPHGEN_RETURN_NOT_OK(Register(name, handle, /*overwrite=*/true));
  return handle;
}

Status GraphService::Register(const std::string& name, GraphHandle graph,
                              bool overwrite) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must not be empty");
  }
  if (graph == nullptr || graph->graph == nullptr) {
    return Status::InvalidArgument("cannot register a null graph");
  }
  MutexLock lock(mu_);
  if (!overwrite && names_.count(name) > 0) {
    return Status::AlreadyExists("graph '" + name + "' is already registered");
  }
  names_[name] = std::move(graph);
  return Status::OK();
}

Result<GraphHandle> GraphService::Lookup(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = names_.find(name);
  if (it == names_.end()) {
    return Status::NotFound("no graph named '" + name + "'");
  }
  return it->second;
}

Status GraphService::Drop(const std::string& name) {
  MutexLock lock(mu_);
  if (names_.erase(name) == 0) {
    return Status::NotFound("no graph named '" + name + "'");
  }
  return Status::OK();
}

std::vector<NamedGraphInfo> GraphService::List() const {
  // Snapshot the registry, then compute per-graph stats (CountStoredEdges
  // walks adjacency lists) without holding mu_ — handles are immutable.
  std::vector<std::pair<std::string, GraphHandle>> snapshot;
  {
    MutexLock lock(mu_);
    snapshot.assign(names_.begin(), names_.end());
  }
  std::vector<NamedGraphInfo> out;
  out.reserve(snapshot.size());
  for (const auto& [name, handle] : snapshot) {
    NamedGraphInfo info;
    info.name = name;
    info.representation = RepresentationToString(handle->representation);
    info.active_vertices = handle->graph->NumActiveVertices();
    info.virtual_nodes = handle->graph->NumVirtualNodes();
    info.stored_edges = handle->graph->CountStoredEdges();
    info.footprint_bytes = handle->FootprintBytes();
    out.push_back(std::move(info));
  }
  return out;
}

void GraphService::ClearCache() { cache_.Clear(); }

void GraphService::SetCacheBudget(size_t budget_bytes) {
  cache_.SetBudget(budget_bytes);
}

std::shared_ptr<const Graph> GraphService::FlatView(const GraphHandle& handle) {
  if (handle == nullptr) return nullptr;
  return std::shared_ptr<const Graph>(handle, handle->graph.get());
}

void GraphService::RecordExtractionLatency(std::string_view datalog,
                                           double seconds,
                                           const obs::QueryProfile& profile) {
  request_us_->RecordSeconds(seconds);
  if (options_.slow_request_seconds <= 0 || options_.slow_log_capacity == 0 ||
      seconds < options_.slow_request_seconds) {
    return;
  }
  slow_requests_->Increment();
  SlowRequest entry;
  entry.datalog = std::string(datalog);
  entry.seconds = seconds;
  // The profile is empty (not captured) when observability was off during
  // the extraction; retain the slow request anyway — the timing and query
  // text are still actionable.
  if (!profile.empty()) {
    entry.profile = std::make_shared<const obs::QueryProfile>(profile);
  }
  MutexLock lock(mu_);
  entry.sequence = slow_sequence_++;
  slow_log_.push_back(std::move(entry));
  while (slow_log_.size() > options_.slow_log_capacity) slow_log_.pop_front();
}

std::vector<SlowRequest> GraphService::SlowRequests() const {
  MutexLock lock(mu_);
  return {slow_log_.begin(), slow_log_.end()};
}

std::vector<obs::MetricValue> GraphService::MetricsSnapshot() const {
  // Gauges mirror derived state (cache footprint, map sizes); refresh them
  // from the source of truth so the snapshot is current.
  {
    MutexLock lock(mu_);
    named_graphs_gauge_->Set(static_cast<int64_t>(names_.size()));
  }
  {
    MutexLock lock(admit_mu_);
    inflight_gauge_->Set(static_cast<int64_t>(inflight_extractions_));
    admission_queue_gauge_->Set(static_cast<int64_t>(admit_queue_.size()));
  }
  const GraphCache::StatsSnapshot cache_stats = cache_.Stats();
  cache_bytes_gauge_->Set(static_cast<int64_t>(cache_stats.bytes));
  cache_graphs_gauge_->Set(static_cast<int64_t>(cache_stats.entries));
  cache_evictions_gauge_->Set(static_cast<int64_t>(cache_stats.evictions));
  return registry_.Snapshot();
}

ServiceStats GraphService::Stats() const {
  // Compatibility view over the registry: one consistent, uniformly
  // uint64_t snapshot (the counters are this instance's own, so they are
  // exact once its requests have quiesced).
  ServiceStats stats;
  stats.requests = requests_->Value();
  stats.cache_hits = cache_hits_->Value();
  stats.cold_extractions = cold_extractions_->Value();
  stats.delta_patched = delta_patched_->Value();
  stats.delta_fallback = delta_fallback_->Value();
  stats.coalesced = coalesced_->Value();
  stats.failed = failed_->Value();
  stats.uncacheable = uncacheable_->Value();
  stats.slow_requests = slow_requests_->Value();
  stats.cancelled = cancelled_->Value();
  stats.deadline_exceeded = deadline_exceeded_->Value();
  stats.overload_rejected = overload_rejected_->Value();
  stats.resource_exhausted = resource_exhausted_->Value();
  stats.stale_served = stale_served_->Value();
  {
    MutexLock lock(mu_);
    stats.named_graphs = names_.size();
  }
  {
    MutexLock lock(admit_mu_);
    stats.inflight_extractions = inflight_extractions_;
    stats.admission_queued = admit_queue_.size();
  }
  const GraphCache::StatsSnapshot cache_stats = cache_.Stats();
  stats.evictions = cache_stats.evictions;
  stats.cache_bytes = cache_stats.bytes;
  stats.cache_graphs = cache_stats.entries;
  stats.cache_budget_bytes = cache_stats.budget_bytes;
  stats.worker_threads = pool_.NumThreads();
  return stats;
}

}  // namespace graphgen::service
