#include "common/cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "fused_join_input.h"
#include "gen/relational_generators.h"
#include "obs/metrics.h"
#include "planner/extractor.h"

namespace graphgen {
namespace {

TEST(CancelTokenTest, NullTokenNeverCancels) {
  CancelToken token;
  EXPECT_FALSE(token.cancellable());
  EXPECT_FALSE(token.CancelRequested());
  token.RequestCancel();  // no-op, must not crash
  EXPECT_FALSE(token.CancelRequested());
}

TEST(CancelTokenTest, CopiesShareTheFlag) {
  CancelToken token = CancelToken::Cancellable();
  CancelToken copy = token;
  EXPECT_TRUE(copy.cancellable());
  EXPECT_FALSE(copy.CancelRequested());
  token.RequestCancel();
  EXPECT_TRUE(copy.CancelRequested());
}

TEST(MemoryBudgetTest, ChargesReleasesAndPeak) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.TryCharge(600, "a").ok());
  EXPECT_EQ(budget.used(), 600u);
  // Over-limit charge is refused and rolled back.
  Status over = budget.TryCharge(500, "b");
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.used(), 600u);
  EXPECT_TRUE(budget.TryCharge(400, "c").ok());
  EXPECT_EQ(budget.used(), 1000u);
  EXPECT_EQ(budget.peak(), 1000u);
  budget.Release(400);
  EXPECT_EQ(budget.used(), 600u);
  EXPECT_EQ(budget.peak(), 1000u);  // peak is sticky
}

TEST(MemoryBudgetTest, LimitZeroTracksButNeverFails) {
  MemoryBudget budget(0);
  EXPECT_TRUE(budget.TryCharge(size_t{1} << 40, "huge").ok());
  EXPECT_EQ(budget.peak(), size_t{1} << 40);
}

TEST(ExecContextTest, CheckOrderingAndDeadline) {
  ExecContext ctx;
  EXPECT_TRUE(ctx.Check().ok());  // inert default

  ctx.cancel = CancelToken::Cancellable();
  ctx.SetDeadlineAfter(-1.0);  // <= 0 = none
  EXPECT_FALSE(ctx.has_deadline);
  ctx.SetDeadlineAfter(1e-9);
  EXPECT_TRUE(ctx.has_deadline);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);

  // Cancellation wins over an expired deadline.
  ctx.cancel.RequestCancel();
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

TEST(ExecContextTest, ChargeWithoutBudgetIsFree) {
  ExecContext ctx;
  EXPECT_TRUE(ctx.Charge(size_t{1} << 50, "anything").ok());
  ctx.Release(size_t{1} << 50);  // no-op
}

TEST(ExecContextTest, FailedChargeBumpsGlobalCounter) {
  obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("query.mem_limit_hits");
  const uint64_t before = hits->Value();
  ExecContext ctx;
  ctx.budget = std::make_shared<MemoryBudget>(10);
  EXPECT_EQ(ctx.Charge(100, "too big").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(hits->Value(), before + 1);
}

TEST(ScopedChargeTest, RefundsOnScopeExitAndGrow) {
  ExecContext ctx;
  ctx.budget = std::make_shared<MemoryBudget>(1000);
  {
    ScopedCharge charge;
    ASSERT_TRUE(charge.Acquire(ctx, 300, "scratch").ok());
    EXPECT_EQ(ctx.budget->used(), 300u);
    // Grow folds bytes charged through the same context into the lease.
    ASSERT_TRUE(ctx.Charge(200, "more").ok());
    charge.Grow(200);
    EXPECT_EQ(ctx.budget->used(), 500u);
  }
  EXPECT_EQ(ctx.budget->used(), 0u);  // one refund for both
}

TEST(AbortSlotTest, FirstFailureWins) {
  AbortSlot slot;
  EXPECT_FALSE(slot.Failed());
  EXPECT_TRUE(slot.Take().ok());
  slot.Fail(Status::Cancelled("first"));
  slot.Fail(Status::Internal("second"));
  EXPECT_TRUE(slot.Failed());
  EXPECT_EQ(slot.Take().code(), StatusCode::kCancelled);
  EXPECT_EQ(slot.Take().message(), "first");
}

TEST(AbortSlotTest, ContinueParksContextFailures) {
  AbortSlot slot;
  ExecContext ctx;
  ctx.cancel = CancelToken::Cancellable();
  EXPECT_TRUE(slot.Continue(ctx));
  ctx.cancel.RequestCancel();
  EXPECT_FALSE(slot.Continue(ctx));
  EXPECT_EQ(slot.Take().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------- pipeline

const char* kCoEnrollment =
    "Nodes(ID, Name) :- Student(ID, Name).\n"
    "Edges(ID1, ID2) :- TookCourse(ID1, C), TookCourse(ID2, C).";

planner::ExtractOptions PipelineOptions() {
  planner::ExtractOptions o;
  o.large_output_factor = 0.0;
  o.preprocess = false;
  return o;
}

class PipelineCancelTest : public ::testing::Test {
 protected:
  void SetUp() override { data_ = gen::MakeUniversity(500, 20, 100, 8.0); }
  gen::GeneratedDatabase data_;
};

TEST_F(PipelineCancelTest, PreCancelledExtractionUnwinds) {
  planner::ExtractOptions options = PipelineOptions();
  options.ctx.cancel = CancelToken::Cancellable();
  options.ctx.cancel.RequestCancel();
  auto result = planner::ExtractFromQuery(data_.db, kCoEnrollment, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(PipelineCancelTest, ExpiredDeadlineUnwinds) {
  planner::ExtractOptions options = PipelineOptions();
  options.ctx.SetDeadlineAfter(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto result = planner::ExtractFromQuery(data_.db, kCoEnrollment, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(PipelineCancelTest, MemoryCeilingSurfacesAsResourceExhausted) {
  planner::ExtractOptions options = PipelineOptions();
  options.ctx.budget = std::make_shared<MemoryBudget>(size_t{8} << 10);
  auto result = planner::ExtractFromQuery(data_.db, kCoEnrollment, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
}

// The fused join→DISTINCT branch under a ceiling: expanding the Hub
// co-membership graph in the database runs a self-join past the fusion
// threshold. 4 MB fits the scans and the join build but not the fused
// DISTINCT sets, which must refuse the request cleanly.
TEST(FusedPipelineCancelTest, MemoryCeilingSurfacesAsResourceExhausted) {
  rel::Database db;
  testing::PutHubTables(db, testing::HubKey::kInt64);
  planner::ExtractOptions options = PipelineOptions();
  options.large_output_factor = 1e18;
  options.ctx.budget = std::make_shared<MemoryBudget>(size_t{4} << 20);
  auto result =
      planner::ExtractFromQuery(db, testing::kHubCoMembership, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("fused DISTINCT"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(PipelineCancelTest, GenerousBudgetSucceedsAndTracksPeak) {
  planner::ExtractOptions options = PipelineOptions();
  options.ctx.budget = std::make_shared<MemoryBudget>(size_t{4} << 30);
  auto result = planner::ExtractFromQuery(data_.db, kCoEnrollment, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(options.ctx.budget->peak(), 0u);
  EXPECT_LE(options.ctx.budget->peak(), options.ctx.budget->limit());

  // A budget never changes the extracted graph: compare against a run
  // without one.
  auto plain =
      planner::ExtractFromQuery(data_.db, kCoEnrollment, PipelineOptions());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(planner::DiffExtraction(*result, *plain), "");
}

// Mid-flight cancellation latency: a deliberately heavy self-join (about
// 25M candidate pairs) is cancelled shortly after it starts; the morsel
// polls must unwind it orders of magnitude before it would finish. The
// wall guard is intentionally generous — sanitizer builds on loaded CI
// machines still pass it easily, a hung pipeline never does.
TEST(CancelLatencyTest, MidFlightCancellationUnwindsQuickly) {
  // ~100 courses x (10000*40/100)^2 enrollment pairs each = ~1.6e9
  // candidates; runs for seconds uncancelled, so a 5ms cancel lands
  // mid-join.
  gen::GeneratedDatabase data = gen::MakeUniversity(10000, 40, 100, 40.0);
  planner::ExtractOptions options = PipelineOptions();
  options.ctx.cancel = CancelToken::Cancellable();
  CancelToken token = options.ctx.cancel;

  std::atomic<int64_t> cancel_ns{0};
  std::thread canceller([token, &cancel_ns] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cancel_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count(),
                    std::memory_order_release);
    token.RequestCancel();
  });
  auto result = planner::ExtractFromQuery(data.db, kCoEnrollment, options);
  const int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  canceller.join();
  const double after_cancel =
      (now_ns - cancel_ns.load(std::memory_order_acquire)) * 1e-9;

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_LT(after_cancel, 10.0) << "cancellation latency out of bounds";
}

}  // namespace
}  // namespace graphgen
