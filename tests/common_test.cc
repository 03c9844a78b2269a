#include <gtest/gtest.h>

#include "common/mark_set.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"

namespace graphgen {
namespace {

double benchmark_sink_ = 0;  // defeats optimization in TimerTest

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "Parse error: bad token");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::PlanError("x").code(), StatusCode::kPlanError);
  EXPECT_EQ(Status::ExecutionError("x").code(), StatusCode::kExecutionError);
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).ValueOrDie();
  EXPECT_EQ(s, "hello");
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalRoughMoments) {
  Rng rng(11);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextNormal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(13);
  size_t low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    uint64_t v = rng.NextZipf(1000, 1.1);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1000u);
    if (v <= 10) ++low;
  }
  // Zipf concentrates mass on small values.
  EXPECT_GT(low, n / 4);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ParallelTest, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(10000);
  for (auto& h : hits) h.store(0);
  ParallelFor(hits.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, SmallInputRunsInline) {
  int calls = 0;
  ParallelFor(10, [&](size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelTest, InvokeRunsEachThread) {
  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) h.store(0);
  ParallelInvoke(4, [&](size_t t) { hits[t].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// A caller passing the size of an empty range list must not get fn(0),
// which would index past the list.
TEST(ParallelInvokeTest, ZeroThreadsRunsNothing) {
  int calls = 0;
  ParallelInvoke(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelInvoke(1, [&](size_t t) { calls += t == 0 ? 1 : 100; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelTest, BalancedRangesCoverEverything) {
  // Heavily skewed weights: index 0 owns almost all the mass.
  const size_t n = 5000;
  auto weight = [](size_t i) { return i == 0 ? uint64_t{1} << 20 : 1; };
  std::vector<IndexRange> ranges = BalancedRanges(n, weight, 4);
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(ranges.front().begin, 0u);
  EXPECT_EQ(ranges.back().end, n);
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].begin, ranges[i - 1].end);  // contiguous, disjoint
  }
  // The hub must not drag half the uniform tail into its range.
  EXPECT_LE(ranges.front().end, 2u);
}

TEST(ParallelTest, BalancedRangesCollapseWhenLight) {
  std::vector<IndexRange> ranges =
      BalancedRanges(100, [](size_t) { return uint64_t{1}; }, 8);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].end, 100u);
  EXPECT_TRUE(BalancedRanges(0, [](size_t) { return uint64_t{1}; }).empty());
}

TEST(ParallelTest, ForRangesRunsEachRangeOnce) {
  const size_t n = 40000;
  std::vector<IndexRange> ranges =
      BalancedRanges(n, [](size_t) { return uint64_t{1}; }, 4);
  EXPECT_GT(ranges.size(), 1u);
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ParallelForRanges(ranges, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.NumThreads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, RunBatchRunsEveryTask) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.RunBatch(std::move(tasks));  // returns only when all tasks ran
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RunBatchHandlesEmptyAndSingle) {
  ThreadPool pool(2);
  pool.RunBatch({});
  std::atomic<int> count{0};
  std::vector<std::function<void()>> one;
  one.push_back([&count] { count.fetch_add(1); });
  pool.RunBatch(std::move(one));
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, RunBatchFromInsidePoolTaskDoesNotDeadlock) {
  // The extraction pipeline fans out per-rule queries on the same pool
  // that runs the extraction request. With a single worker, the nested
  // batch can only finish because the submitting task drains it itself.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.Submit([&pool, &count] {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) {
      tasks.push_back([&count] { count.fetch_add(1); });
    }
    pool.RunBatch(std::move(tasks));
  });
  pool.Wait();
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue is drained
  EXPECT_EQ(count.load(), 50);
}

TEST(MarkSetTest, InsertReportsNewVersusMarked) {
  MarkSet marks(10);
  EXPECT_EQ(marks.size(), 10u);
  EXPECT_FALSE(marks.Contains(3));
  EXPECT_TRUE(marks.Insert(3));
  EXPECT_FALSE(marks.Insert(3));
  EXPECT_TRUE(marks.Contains(3));
  EXPECT_FALSE(marks.Contains(4));
  EXPECT_TRUE(marks.Insert(9));
}

TEST(MarkSetTest, ClearForgetsEveryMark) {
  MarkSet marks(64);
  for (size_t i = 0; i < 64; i += 2) ASSERT_TRUE(marks.Insert(i));
  marks.Clear();
  for (size_t i = 0; i < 64; ++i) EXPECT_FALSE(marks.Contains(i)) << i;
  EXPECT_TRUE(marks.Insert(0));
  EXPECT_TRUE(marks.Insert(1));
}

TEST(MarkSetTest, GrowKeepsMarksAndAddsUnmarkedSlots) {
  MarkSet marks(4);
  marks.Insert(2);
  marks.Grow(100);
  EXPECT_EQ(marks.size(), 100u);
  EXPECT_TRUE(marks.Contains(2));
  EXPECT_FALSE(marks.Contains(99));
  marks.Grow(10);  // never shrinks
  EXPECT_EQ(marks.size(), 100u);
}

// With an 8-bit stamp the epoch wraps every 255 clears. A slot marked in
// the epoch before the wrap, or left from 256 clears ago, must not read
// as marked afterwards.
TEST(MarkSetTest, EpochWrapRefillsTheArray) {
  BasicMarkSet<uint8_t> marks(8);
  marks.Insert(5);  // epoch 1
  for (int i = 0; i < 253; ++i) marks.Clear();
  marks.Insert(6);  // epoch 254
  marks.Clear();    // epoch 255
  marks.Insert(7);
  EXPECT_TRUE(marks.Contains(7));
  marks.Clear();  // wraps: refilled, epoch 1 again
  for (size_t i = 0; i < 8; ++i) EXPECT_FALSE(marks.Contains(i)) << i;
  EXPECT_TRUE(marks.Insert(5));
  EXPECT_FALSE(marks.Contains(7));
  marks.Clear();
  EXPECT_FALSE(marks.Contains(5));
}

TEST(MarkSetTest, NestedLeasesAreDistinct) {
  MarkSetLease outer(16);
  outer->Insert(3);
  {
    MarkSetLease inner(32);
    EXPECT_NE(&*inner, &*outer);
    EXPECT_GE(inner->size(), 32u);
    EXPECT_FALSE(inner->Contains(3));
    inner->Insert(4);
  }
  EXPECT_TRUE(outer->Contains(3));
  EXPECT_FALSE(outer->Contains(4));
  MarkSetLease again(8);  // the inner set, lent again and cleared
  EXPECT_FALSE(again->Contains(4));
}

TEST(MemoryTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.00 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00 MB");
}

TEST(MemoryTest, VectorBytesUsesCapacity) {
  std::vector<uint64_t> v;
  v.reserve(100);
  EXPECT_EQ(VectorBytes(v), 100 * sizeof(uint64_t));
}

TEST(MemoryTest, RssIsPositiveOnLinux) {
  EXPECT_GT(CurrentRssBytes(), 0u);
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  double a = t.Seconds();
  EXPECT_GE(a, 0.0);
  double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  benchmark_sink_ = x;
  EXPECT_GE(t.Seconds(), a);
}

}  // namespace
}  // namespace graphgen
