#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "algos/pagerank.h"
#include "common/cancel.h"
#include "common/faultpoints.h"
#include "gen/relational_generators.h"
#include "repr/expander.h"
#include "service/cache_key.h"
#include "service/graph_cache.h"
#include "service/graph_service.h"

namespace graphgen {
namespace {

const char* kStudentQuery =
    "Nodes(ID, Name) :- Student(ID, Name).\n"
    "Edges(ID1, ID2) :- TookCourse(ID1, C), TookCourse(ID2, C).";
const char* kBipartiteQuery =
    "Nodes(ID, Name) :- Instructor(ID, Name).\n"
    "Nodes(ID, Name) :- Student(ID, Name).\n"
    "Edges(ID1, ID2) :- TaughtCourse(ID1, C), TookCourse(ID2, C).";

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { data_ = gen::MakeUniversity(40, 6, 12, 2.5); }

  GraphGenOptions CDupOptions() const {
    GraphGenOptions o;
    o.representation = Representation::kCDup;
    o.extract.large_output_factor = 0.0;
    o.extract.preprocess = false;
    return o;
  }

  gen::GeneratedDatabase data_;
};

TEST_F(ServiceTest, CacheHitReturnsSameInstance) {
  service::GraphService svc(&data_.db);
  auto first = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Same program with different whitespace/formatting: the canonical key
  // is built from the parsed AST, so this must be a hit.
  std::string reformatted =
      "Nodes(ID,Name):-Student(ID,Name).  "
      "Edges(ID1,ID2):-TookCourse(ID1,C),TookCourse(ID2,C).";
  auto second = svc.Extract(reformatted, CDupOptions());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->get(), second->get());  // literally the same graph

  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cold_extractions, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST_F(ServiceTest, DifferentOptionsAreDifferentEntries) {
  service::GraphService svc(&data_.db);
  GraphGenOptions exp = CDupOptions();
  exp.representation = Representation::kExp;
  auto cdup = svc.Extract(kStudentQuery, CDupOptions());
  auto expanded = svc.Extract(kStudentQuery, exp);
  ASSERT_TRUE(cdup.ok());
  ASSERT_TRUE(expanded.ok());
  EXPECT_NE(cdup->get(), expanded->get());
  EXPECT_EQ((*cdup)->representation, Representation::kCDup);
  EXPECT_EQ((*expanded)->representation, Representation::kExp);
  EXPECT_EQ(svc.Stats().cold_extractions, 2u);
}

TEST_F(ServiceTest, IrrelevantOptionsDoNotChangeTheKey) {
  GraphGenOptions a;
  a.representation = Representation::kCDup;
  a.dedup1_algorithm = Dedup1Algorithm::kNaiveRealFirst;
  a.dedup.seed = 7;
  a.extract.threads = 3;
  GraphGenOptions b;
  b.representation = Representation::kCDup;
  b.dedup1_algorithm = Dedup1Algorithm::kGreedyVirtualFirst;
  b.dedup.seed = 99;
  b.extract.threads = 8;
  // C-DUP never runs a dedup pass, so those knobs cannot affect the graph.
  EXPECT_EQ(service::OptionsFingerprint(a), service::OptionsFingerprint(b));

  GraphGenOptions d1 = a;
  d1.representation = Representation::kDedup1;
  GraphGenOptions d2 = b;
  d2.representation = Representation::kDedup1;
  EXPECT_NE(service::OptionsFingerprint(d1), service::OptionsFingerprint(d2));
}

TEST_F(ServiceTest, MalformedProgramFailsBeforeExtraction) {
  service::GraphService svc(&data_.db);
  auto result = svc.Extract("garbage(");
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_EQ(svc.Stats().failed, 1u);
  EXPECT_EQ(svc.Stats().cold_extractions, 0u);
}

TEST_F(ServiceTest, LruEvictionUnderTightBudget) {
  // Measure both graphs' footprints with an unlimited cache first.
  size_t fp_student = 0, fp_bipartite = 0;
  {
    service::GraphService probe(&data_.db);
    auto a = probe.Extract(kStudentQuery, CDupOptions());
    auto b = probe.Extract(kBipartiteQuery, CDupOptions());
    ASSERT_TRUE(a.ok() && b.ok());
    fp_student = (*a)->FootprintBytes();
    fp_bipartite = (*b)->FootprintBytes();
    ASSERT_GT(fp_student, 0u);
    ASSERT_GT(fp_bipartite, 0u);
  }

  // Budget fits either graph alone but not both together.
  service::ServiceOptions options;
  options.cache_budget_bytes = fp_student + fp_bipartite - 1;
  service::GraphService svc(&data_.db, options);

  auto student = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(student.ok());
  auto bipartite = svc.Extract(kBipartiteQuery, CDupOptions());
  ASSERT_TRUE(bipartite.ok());

  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.evictions, 1u);  // the student graph was pushed out
  EXPECT_EQ(stats.cache_graphs, 1u);
  EXPECT_LE(stats.cache_bytes, options.cache_budget_bytes);

  // The evicted handle is still alive for its holder...
  EXPECT_EQ((*student)->graph->NumVertices(), 40u);
  // ...but re-requesting it is a cold extraction, not a hit.
  auto again = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(again.ok());
  EXPECT_NE(student->get(), again->get());
  EXPECT_EQ(svc.Stats().cold_extractions, 3u);
  EXPECT_EQ(svc.Stats().cache_hits, 0u);
}

TEST_F(ServiceTest, OversizedGraphIsNotCached) {
  service::ServiceOptions options;
  options.cache_budget_bytes = 1;  // nothing fits
  service::GraphService svc(&data_.db, options);
  auto a = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(a.ok());
  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.uncacheable, 1u);
  EXPECT_EQ(stats.cache_graphs, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST_F(ServiceTest, NamedRegistryLifecycle) {
  service::GraphService svc(&data_.db);
  auto handle = svc.ExtractNamed("students", kStudentQuery, CDupOptions());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  auto looked_up = svc.Lookup("students");
  ASSERT_TRUE(looked_up.ok());
  EXPECT_EQ(handle->get(), looked_up->get());

  // Strict Register refuses to clobber; ExtractNamed rebinds.
  EXPECT_EQ(svc.Register("students", *handle).code(),
            StatusCode::kAlreadyExists);
  auto rebound = svc.ExtractNamed("students", kBipartiteQuery, CDupOptions());
  ASSERT_TRUE(rebound.ok());
  EXPECT_EQ(svc.Lookup("students")->get(), rebound->get());

  auto rows = svc.List();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "students");
  EXPECT_EQ(rows[0].active_vertices, 46u);
  EXPECT_GT(rows[0].footprint_bytes, 0u);

  EXPECT_TRUE(svc.Drop("students").ok());
  EXPECT_EQ(svc.Drop("students").code(), StatusCode::kNotFound);
  EXPECT_EQ(svc.Lookup("students").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(svc.List().empty());

  // The dropped name never invalidated the client's handle.
  EXPECT_EQ((*rebound)->graph->NumActiveVertices(), 46u);
}

TEST_F(ServiceTest, NamedGraphSurvivesCacheEviction) {
  service::ServiceOptions options;
  options.cache_budget_bytes = 1;  // evict/reject everything immediately
  service::GraphService svc(&data_.db, options);
  auto handle = svc.ExtractNamed("pinned", kStudentQuery, CDupOptions());
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(svc.Stats().cache_graphs, 0u);
  auto looked_up = svc.Lookup("pinned");
  ASSERT_TRUE(looked_up.ok());
  EXPECT_EQ(looked_up->get(), handle->get());
  EXPECT_EQ((*looked_up)->graph->NumVertices(), 40u);
}

TEST_F(ServiceTest, AsyncExtractionDeliversThroughFutures) {
  service::ServiceOptions options;
  options.worker_threads = 4;
  service::GraphService svc(&data_.db, options);
  auto f1 = svc.ExtractAsync(kStudentQuery, CDupOptions());
  auto f2 = svc.ExtractAsync(kBipartiteQuery, CDupOptions());
  auto f3 = svc.ExtractAsync(kStudentQuery, CDupOptions());
  auto r1 = f1.get();
  auto r2 = f2.get();
  auto r3 = f3.get();
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_EQ((*r1)->graph->NumVertices(), 40u);
  EXPECT_EQ((*r2)->graph->NumVertices(), 46u);
  EXPECT_EQ(r1->get(), r3->get());  // same key, shared instance

  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.cold_extractions, 2u);
  EXPECT_EQ(stats.cache_hits + stats.coalesced, 1u);
}

// FlatView is the served graph itself, whatever the representation: it
// builds and caches nothing, so the view outlives the eviction of the
// cached graph, and kernels on a condensed view agree with its expanded
// snapshot. Each representation gets a fresh service, so each is cached
// before it is evicted.
TEST_F(ServiceTest, FlatViewIsTheServedGraph) {
  for (Representation r : {Representation::kCDup, Representation::kBitmap2,
                           Representation::kExp}) {
    SCOPED_TRACE(std::string(RepresentationToString(r)));
    service::GraphService svc(&data_.db);
    GraphGenOptions o = CDupOptions();
    o.representation = r;
    auto handle = svc.Extract(kStudentQuery, o);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ASSERT_EQ(svc.Stats().cache_graphs, 1u);
    std::shared_ptr<const Graph> view = svc.FlatView(*handle);
    EXPECT_EQ(view.get(), (*handle)->graph.get());

    const std::vector<double> expected =
        PageRank(ExpandGraph(*(*handle)->graph));
    handle->reset();  // the view alone keeps the graph alive
    svc.SetCacheBudget(1);
    svc.ClearCache();
    ASSERT_EQ(svc.Stats().cache_graphs, 0u);
    const std::vector<double> ranks = PageRank(*view);
    ASSERT_EQ(ranks.size(), expected.size());
    for (size_t v = 0; v < ranks.size(); ++v) {
      EXPECT_NEAR(ranks[v], expected[v], 1e-9) << "vertex " << v;
    }
  }
}

// N threads extract a mix of cached and uncached programs concurrently
// through both the sync and async paths while names are rebound and
// dropped. Run with -DGRAPHGEN_SANITIZE=thread to verify race freedom.
TEST_F(ServiceTest, ConcurrentStress) {
  constexpr size_t kThreads = 8;
  constexpr int kItersPerThread = 25;

  service::ServiceOptions options;
  options.worker_threads = 4;
  service::GraphService svc(&data_.db, options);

  std::vector<GraphGenOptions> variants;
  variants.push_back(CDupOptions());
  {
    GraphGenOptions exp = CDupOptions();
    exp.representation = Representation::kExp;
    variants.push_back(exp);
  }
  const std::vector<std::pair<std::string, size_t>> programs = {
      {kStudentQuery, 40u}, {kBipartiteQuery, 46u}};

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const auto& [program, vertices] = programs[(t + i) % programs.size()];
        const GraphGenOptions& opts = variants[i % variants.size()];
        Result<service::GraphHandle> result =
            (i % 3 == 0) ? svc.ExtractAsync(program, opts).get()
                         : svc.Extract(program, opts);
        if (!result.ok() || (*result)->graph->NumVertices() != vertices) {
          ++failures;
          continue;
        }
        // Exercise the registry from every thread too.
        std::string name = "g" + std::to_string(t);
        if (!svc.Register(name, *result, /*overwrite=*/true).ok()) ++failures;
        auto looked_up = svc.Lookup(name);
        if (!looked_up.ok()) ++failures;
        // Drop races with other iterations re-registering the same name;
        // either outcome is valid in this stress test.
        if (i % 10 == 9) (void)svc.Drop(name);
        svc.List();
        svc.Stats();
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.requests, kThreads * kItersPerThread);
  EXPECT_EQ(stats.failed, 0u);
  // Every request either hit the cache, ran the pipeline, or piggybacked
  // on an identical in-flight extraction — nothing fell through.
  EXPECT_EQ(stats.cache_hits + stats.cold_extractions + stats.coalesced,
            stats.requests);
  // 2 programs x 2 option variants, each extracted exactly once (budget is
  // unlimited, so nothing was ever evicted and re-extracted).
  EXPECT_EQ(stats.cold_extractions, 4u);
}

TEST_F(ServiceTest, FootprintMatchesMemoryBytesAcrossRepresentations) {
  GraphGen engine(&data_.db);
  for (Representation r :
       {Representation::kCDup, Representation::kExp, Representation::kDedup1,
        Representation::kDedup2, Representation::kBitmap1,
        Representation::kBitmap2}) {
    GraphGenOptions o = CDupOptions();
    o.representation = r;
    auto extracted = engine.Extract(kStudentQuery, o);
    ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
    GraphFootprint fp = extracted->graph->MemoryFootprint();
    EXPECT_EQ(fp.Total(), extracted->graph->MemoryBytes())
        << RepresentationToString(r);
    EXPECT_GT(fp.adjacency_bytes, 0u) << RepresentationToString(r);
  }
}

TEST(GraphCacheTest, LruOrderAndBudget) {
  auto make_graph = [](size_t vertices) {
    auto g = std::make_shared<ExtractedGraph>();
    g->graph = std::make_unique<ExpandedGraph>(vertices);
    return std::static_pointer_cast<const ExtractedGraph>(g);
  };
  auto a = make_graph(10);
  auto b = make_graph(10);
  auto c = make_graph(10);
  const size_t each = a->FootprintBytes();
  ASSERT_GT(each, 0u);

  service::GraphCache cache(2 * each);
  EXPECT_TRUE(cache.Put("a", a));
  EXPECT_TRUE(cache.Put("b", b));
  EXPECT_EQ(cache.size(), 2u);

  // Touch "a" so "b" becomes the LRU victim when "c" arrives.
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_TRUE(cache.Put("c", c));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);

  // An entry larger than the whole budget is rejected outright.
  service::GraphCache tiny(1);
  EXPECT_FALSE(tiny.Put("a", a));
  EXPECT_EQ(tiny.size(), 0u);

  // Budget 0 = unlimited.
  service::GraphCache unlimited(0);
  EXPECT_TRUE(unlimited.Put("a", a));
  EXPECT_TRUE(unlimited.Put("b", b));
  EXPECT_TRUE(unlimited.Put("c", c));
  EXPECT_EQ(unlimited.size(), 3u);
  EXPECT_EQ(unlimited.evictions(), 0u);
}

TEST(GraphCacheTest, SetBudgetEvictsToEmptyWhenLastEntryExceedsIt) {
  auto make_graph = [](size_t vertices) {
    auto g = std::make_shared<ExtractedGraph>();
    g->graph = std::make_unique<ExpandedGraph>(vertices);
    return std::static_pointer_cast<const ExtractedGraph>(g);
  };
  auto a = make_graph(10);
  auto b = make_graph(10);
  const size_t each = a->FootprintBytes();
  ASSERT_GT(each, 0u);

  service::GraphCache cache(4 * each);
  EXPECT_TRUE(cache.Put("a", a));
  EXPECT_TRUE(cache.Put("b", b));
  EXPECT_EQ(cache.size(), 2u);

  // Shrinking to one entry's footprint evicts the LRU entry only.
  cache.SetBudget(each);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.budget_bytes(), each);
  EXPECT_EQ(cache.Get("a"), nullptr);  // "a" was least recently used
  EXPECT_NE(cache.Get("b"), nullptr);

  // Shrinking below the single remaining entry must evict it too — a
  // resident graph must never stay pinned over-budget forever.
  cache.SetBudget(each - 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.Get("b"), nullptr);

  // Growing the budget back admits new entries again.
  cache.SetBudget(2 * each);
  EXPECT_TRUE(cache.Put("a", a));
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(ServiceTest, SetCacheBudgetReleasesResidentGraphs) {
  service::GraphService svc(&data_.db);
  auto g = svc.Extract(kStudentQuery);
  ASSERT_TRUE(g.ok());
  ASSERT_GT(svc.Stats().cache_bytes, 0u);
  // Clients holding the handle keep the graph alive; the cache lets go.
  svc.SetCacheBudget(1);
  EXPECT_EQ(svc.Stats().cache_bytes, 0u);
  EXPECT_GT((*g)->graph->NumVertices(), 0u);
}

// ------------------------------------------------------------- robustness

/// ServiceTest plus a quiet fault registry around every test: these tests
/// arm process-global fault points and must never leak armed state.
class RobustServiceTest : public ServiceTest {
 protected:
  void SetUp() override {
    ServiceTest::SetUp();
    fault::FaultRegistry::Instance().DisarmAll();
  }
  void TearDown() override { fault::FaultRegistry::Instance().DisarmAll(); }

  static fault::FaultSpec OnHit(uint64_t n, fault::Action action) {
    fault::FaultSpec spec;
    spec.fire_on_hit = n;
    spec.action = action;
    return spec;
  }

  /// Spins until `pred` holds (the stalled-owner tests synchronize on
  /// fault-point fire counters and service stats, not sleeps).
  template <typename Pred>
  static bool WaitFor(Pred pred, double seconds = 5.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }
};

TEST_F(RobustServiceTest, CancelledBeforeStartSurfacesAndCounts) {
  service::GraphService svc(&data_.db);
  service::RequestOptions request;
  request.cancel = CancelToken::Cancellable();
  request.cancel.RequestCancel();
  auto result = svc.Extract(kStudentQuery, CDupOptions(), request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.failed, 1u);
  // Nothing half-extracted was cached; a clean retry works.
  EXPECT_EQ(stats.cache_graphs, 0u);
  EXPECT_TRUE(svc.Extract(kStudentQuery, CDupOptions()).ok());
}

TEST_F(RobustServiceTest, ExpiredDeadlineSurfacesAndCounts) {
  service::GraphService svc(&data_.db);
  service::RequestOptions request;
  request.deadline_seconds = 1e-9;
  auto result = svc.Extract(kStudentQuery, CDupOptions(), request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(svc.Stats().deadline_exceeded, 1u);
  EXPECT_TRUE(svc.Extract(kStudentQuery, CDupOptions()).ok());
}

TEST_F(RobustServiceTest, MemoryCeilingSurfacesAndCounts) {
  obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("query.mem_limit_hits");
  const uint64_t hits_before = hits->Value();

  service::GraphService svc(&data_.db);
  service::RequestOptions request;
  request.memory_limit_bytes = 1;  // nothing fits
  auto result = svc.Extract(kStudentQuery, CDupOptions(), request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(svc.Stats().resource_exhausted, 1u);
  EXPECT_GT(hits->Value(), hits_before);
  // The ceiling is per-request: the next unlimited request succeeds.
  EXPECT_TRUE(svc.Extract(kStudentQuery, CDupOptions()).ok());
}

TEST_F(RobustServiceTest, AsyncInjectedThrowResolvesTheFuture) {
  service::GraphService svc(&data_.db);
  // A std::bad_alloc out of the scan must resolve the future with
  // ExecutionError instead of terminating a pool worker.
  fault::FaultRegistry::Instance().Arm(
      "query.scan", OnHit(1, fault::Action::kThrow));
  auto future = svc.ExtractAsync(kStudentQuery, CDupOptions());
  Result<service::GraphHandle> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);

  // Same contract when the throw happens at the service boundary itself.
  fault::FaultRegistry::Instance().Arm(
      "service.extract.begin", OnHit(1, fault::Action::kThrow));
  result = svc.ExtractAsync(kStudentQuery, CDupOptions()).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);

  // The pool and the cache survived both.
  EXPECT_TRUE(svc.Extract(kStudentQuery, CDupOptions()).ok());
}

TEST_F(RobustServiceTest, SingleFlightFailureHygiene) {
  fault::FaultRegistry& registry = fault::FaultRegistry::Instance();
  // The pool must fit the stalled owner plus both waiters at once —
  // DefaultThreadCount() can be 1 on a small CI box.
  service::ServiceOptions opts;
  opts.worker_threads = 4;
  service::GraphService svc(&data_.db, opts);

  // The owner stalls at the service boundary while waiters pile onto its
  // flight; when released it dies in the parser. Everyone must see the
  // SAME terminal Status, the key must not be poisoned, and nothing may
  // be cached.
  const uint64_t fires0 = registry.fires("service.extract.begin");
  registry.Arm("service.extract.begin", OnHit(1, fault::Action::kStall));
  registry.Arm("extract.parse", OnHit(1, fault::Action::kFail));

  auto owner = svc.ExtractAsync(kStudentQuery, CDupOptions());
  ASSERT_TRUE(WaitFor([&] {
    return registry.fires("service.extract.begin") > fires0;
  })) << "owner never reached the stall point";

  // Two waiters coalesce onto the stalled owner's flight.
  auto w1 = svc.ExtractAsync(kStudentQuery, CDupOptions());
  auto w2 = svc.ExtractAsync(kStudentQuery, CDupOptions());
  ASSERT_TRUE(WaitFor([&] { return svc.Stats().coalesced >= 2; }))
      << "waiters never coalesced";

  // Release the stall ONLY — the parse fault must stay armed.
  registry.Disarm("service.extract.begin");

  Result<service::GraphHandle> ro = owner.get();
  Result<service::GraphHandle> r1 = w1.get();
  Result<service::GraphHandle> r2 = w2.get();
  ASSERT_FALSE(ro.ok());
  ASSERT_FALSE(r1.ok());
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(ro.status().message().find("extract.parse"), std::string::npos)
      << ro.status().ToString();
  EXPECT_EQ(ro.status().message(), r1.status().message());
  EXPECT_EQ(ro.status().message(), r2.status().message());

  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.failed, 3u);       // owner + both waiters
  EXPECT_EQ(stats.cache_graphs, 0u); // the failure was not cached
  EXPECT_EQ(stats.coalesced, 2u);

  // The key is immediately retryable once the fault clears.
  registry.DisarmAll();
  auto retry = svc.Extract(kStudentQuery, CDupOptions());
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(RobustServiceTest, AdmissionRejectsWhenSaturated) {
  fault::FaultRegistry& registry = fault::FaultRegistry::Instance();
  service::ServiceOptions opts;
  opts.max_inflight_extractions = 1;
  opts.admission_queue_capacity = 0;  // no waiting: reject outright
  service::GraphService svc(&data_.db, opts);

  const uint64_t fires0 = registry.fires("service.extract.begin");
  registry.Arm("service.extract.begin", OnHit(1, fault::Action::kStall));
  auto owner = svc.ExtractAsync(kStudentQuery, CDupOptions());
  ASSERT_TRUE(WaitFor([&] {
    return registry.fires("service.extract.begin") > fires0;
  })) << "owner never reached the stall point";

  // A different graph cannot coalesce; with the one slot held and no
  // queue, it must bounce immediately.
  auto rejected = svc.Extract(kBipartiteQuery, CDupOptions());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(svc.Stats().overload_rejected, 1u);

  registry.Disarm("service.extract.begin");
  Result<service::GraphHandle> ro = owner.get();
  EXPECT_TRUE(ro.ok()) << ro.status().ToString();
  // With the slot free again the rejected graph extracts fine.
  EXPECT_TRUE(svc.Extract(kBipartiteQuery, CDupOptions()).ok());
}

TEST_F(RobustServiceTest, QueuedRequestHonorsItsDeadline) {
  fault::FaultRegistry& registry = fault::FaultRegistry::Instance();
  service::ServiceOptions opts;
  opts.max_inflight_extractions = 1;
  opts.admission_queue_capacity = 4;
  service::GraphService svc(&data_.db, opts);

  const uint64_t fires0 = registry.fires("service.extract.begin");
  registry.Arm("service.extract.begin", OnHit(1, fault::Action::kStall));
  auto owner = svc.ExtractAsync(kStudentQuery, CDupOptions());
  ASSERT_TRUE(WaitFor([&] {
    return registry.fires("service.extract.begin") > fires0;
  })) << "owner never reached the stall point";

  // Queued behind the stalled owner; the deadline covers queue time, so
  // it must expire in the queue rather than wait forever.
  service::RequestOptions request;
  request.deadline_seconds = 0.05;
  auto expired = svc.Extract(kBipartiteQuery, CDupOptions(), request);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(svc.Stats().deadline_exceeded, 1u);

  registry.Disarm("service.extract.begin");
  EXPECT_TRUE(owner.get().ok());
}

TEST_F(RobustServiceTest, StaleFallbackServesLastKnownGood) {
  fault::FaultRegistry& registry = fault::FaultRegistry::Instance();
  service::GraphService svc(&data_.db);

  auto good = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(good.ok());
  // Drop the primary cache; only the stale store remembers the graph.
  svc.ClearCache();

  // Re-extraction now fails — without allow_stale that propagates...
  registry.Arm("extract.parse", OnHit(1, fault::Action::kFail));
  auto hard = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_FALSE(hard.ok());
  EXPECT_EQ(svc.Stats().stale_served, 0u);

  // ...with allow_stale the last-known-good instance is served instead.
  registry.Arm("extract.parse", OnHit(1, fault::Action::kFail));
  service::RequestOptions request;
  request.allow_stale = true;
  auto stale = svc.Extract(kStudentQuery, CDupOptions(), request);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(stale->get(), good->get());  // literally the old graph
  EXPECT_EQ(svc.Stats().stale_served, 1u);

  // allow_stale on a healthy pipeline changes nothing.
  auto fresh = svc.Extract(kBipartiteQuery, CDupOptions(), request);
  EXPECT_TRUE(fresh.ok());
}

// ---------------------------------------------------------------------------
// Incremental serving: version-vector freshness, delta patching, fallbacks.

class IncrementalServiceTest : public ServiceTest {
 protected:
  static std::vector<rel::Row> NewStudents(int64_t base, size_t n) {
    std::vector<rel::Row> rows;
    for (size_t i = 0; i < n; ++i) {
      const int64_t id = base + static_cast<int64_t>(i);
      rows.push_back(
          {rel::Value(id), rel::Value("student_" + std::to_string(id))});
    }
    return rows;
  }

  static std::vector<rel::Row> NewEnrollments(
      const std::vector<std::pair<int64_t, int64_t>>& pairs) {
    std::vector<rel::Row> rows;
    for (const auto& [sid, course] : pairs) {
      rows.push_back({rel::Value(sid), rel::Value(course)});
    }
    return rows;
  }
};

// The staleness hole this PR closes: a cached graph whose tables have
// since changed must never be served as a hit, even with incremental
// serving disabled (the conservative db-tick path).
TEST_F(IncrementalServiceTest, MutatedTableIsNotServedStale) {
  service::ServiceOptions opts;
  opts.incremental = false;
  service::GraphService svc(&data_.db, opts);

  auto before = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const size_t vertices_before = (*before)->graph->NumVertices();

  ASSERT_TRUE(svc.Append("Student", NewStudents(1000, 3)).ok());
  ASSERT_TRUE(svc
                  .Append("TookCourse", NewEnrollments({{1000, 0},
                                                        {1001, 0},
                                                        {1002, 1}}))
                  .ok());

  auto after = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(before->get(), after->get());
  EXPECT_EQ((*after)->graph->NumVertices(), vertices_before + 3);

  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cold_extractions, 2u);
  EXPECT_EQ(stats.delta_patched, 0u);

  // Unchanged database: the refreshed entry is a plain hit again.
  auto hit = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(after->get(), hit->get());
  EXPECT_EQ(svc.Stats().cache_hits, 1u);
}

// With incremental serving on (the default), a behind-version entry is
// advanced by the delta path instead of a cold re-extraction, and the
// patched graph matches what a cold run over the full data produces.
TEST_F(IncrementalServiceTest, BehindVersionEntryIsDeltaPatched) {
  service::GraphService svc(&data_.db);

  auto before = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_NE((*before)->incremental, nullptr)
      << "service extractions must capture incremental state";

  ASSERT_TRUE(svc.Append("Student", NewStudents(2000, 2)).ok());
  ASSERT_TRUE(svc
                  .Append("TookCourse", NewEnrollments({{2000, 2},
                                                        {2001, 2},
                                                        {0, 3}}))
                  .ok());

  auto patched = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  EXPECT_NE(before->get(), patched->get());

  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.delta_patched, 1u);
  EXPECT_EQ(stats.delta_fallback, 0u);
  EXPECT_EQ(stats.cold_extractions, 1u);  // the patch is not a cold run

  // Parity with a cold extraction over the grown database.
  service::GraphService witness(&data_.db);
  auto fresh = witness.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*patched)->graph->NumVertices(), (*fresh)->graph->NumVertices());
  EXPECT_EQ((*patched)->stats.condensed_edges, (*fresh)->stats.condensed_edges);
  EXPECT_EQ((*patched)->stats.virtual_nodes, (*fresh)->stats.virtual_nodes);
  EXPECT_EQ((*patched)->stats.real_nodes, (*fresh)->stats.real_nodes);

  // The patched entry replaced the stale one and is fresh now.
  auto hit = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(patched->get(), hit->get());
  EXPECT_EQ(svc.Stats().cache_hits, 1u);
}

// A rebased table (arbitrary mutation, not an append) cannot be patched:
// the entry is invalidated and re-extracted cold, counted as a fallback.
TEST_F(IncrementalServiceTest, RebasedTableFallsBackToColdExtraction) {
  service::GraphService svc(&data_.db);

  auto before = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // GetMutableTable stamps a rebase: contents may have changed arbitrarily.
  auto table = data_.db.GetMutableTable("TookCourse");
  ASSERT_TRUE(table.ok());
  (*table)->AppendUnchecked({rel::Value(int64_t{1}), rel::Value(int64_t{4})});

  auto after = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(before->get(), after->get());

  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.delta_patched, 0u);
  EXPECT_EQ(stats.delta_fallback, 1u);
  EXPECT_EQ(stats.cold_extractions, 2u);
  // The total splits by reason.
  obs::MetricsRegistry& m = svc.metrics();
  EXPECT_EQ(m.GetCounter("service.delta_fallback.table_rebased")->Value(), 1u);
  EXPECT_EQ(m.GetCounter("service.delta_fallback.table_shrank")->Value(), 0u);
}

// Appends through the service are serialized against in-flight
// extractions by db_mu_: concurrent ingest and extraction must always
// produce a successful, internally-consistent result (TSan-checked).
TEST_F(IncrementalServiceTest, ConcurrentIngestAndExtractIsSafe) {
  service::GraphService svc(&data_.db);

  constexpr int kWaves = 8;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread ingest([&] {
    for (int w = 0; w < kWaves; ++w) {
      const int64_t base = 3000 + w * 10;
      if (!svc.Append("Student", NewStudents(base, 2)).ok() ||
          !svc.Append("TookCourse",
                      NewEnrollments({{base, w % 6}, {base + 1, w % 6}}))
               .ok()) {
        failures.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        auto result = svc.Extract(kStudentQuery, CDupOptions());
        if (!result.ok()) failures.fetch_add(1);
      }
    });
  }
  ingest.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced: one more extraction sees all appended rows.
  auto final = svc.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(final.ok()) << final.status().ToString();
  service::GraphService witness(&data_.db);
  auto fresh = witness.Extract(kStudentQuery, CDupOptions());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*final)->graph->NumVertices(), (*fresh)->graph->NumVertices());
  EXPECT_EQ((*final)->stats.condensed_edges, (*fresh)->stats.condensed_edges);
}

// Appending to a service built over a const database is refused.
TEST_F(IncrementalServiceTest, ReadOnlyServiceRefusesAppends) {
  const rel::Database& ro = data_.db;
  service::GraphService svc(&ro);
  Status status = svc.Append("Student", NewStudents(5000, 1));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(RobustServiceTest, RobustnessCountersAreExported) {
  service::GraphService svc(&data_.db);
  service::RequestOptions request;
  request.deadline_seconds = 1e-9;
  (void)svc.Extract(kStudentQuery, CDupOptions(), request);

  bool saw_deadline = false, saw_cancelled = false, saw_overload = false,
       saw_stale = false, saw_inflight = false;
  for (const obs::MetricValue& m : svc.MetricsSnapshot()) {
    if (m.name == "service.deadline_exceeded") {
      saw_deadline = true;
      EXPECT_EQ(m.counter, 1u);
    }
    if (m.name == "service.cancelled") saw_cancelled = true;
    if (m.name == "service.overload_rejected") saw_overload = true;
    if (m.name == "service.stale_served") saw_stale = true;
    if (m.name == "service.inflight_extractions") {
      saw_inflight = true;
      EXPECT_EQ(m.gauge, 0);  // nothing running now
    }
  }
  EXPECT_TRUE(saw_deadline);
  EXPECT_TRUE(saw_cancelled);
  EXPECT_TRUE(saw_overload);
  EXPECT_TRUE(saw_stale);
  EXPECT_TRUE(saw_inflight);
}

}  // namespace
}  // namespace graphgen
