#include "common/faultpoints.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fused_join_input.h"
#include "gen/relational_generators.h"
#include "service/graph_service.h"

namespace graphgen {
namespace {

using fault::Action;
using fault::FaultRegistry;
using fault::FaultSpec;

// Every test starts and ends with a quiet registry — fault state is
// process-global and must never leak between tests.
class FaultRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Instance().DisarmAll(); }
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }
};

TEST_F(FaultRegistryTest, ParseSpecAcceptsTriggersAndActions) {
  FaultSpec spec;
  ASSERT_TRUE(FaultRegistry::ParseSpec("p0.25", &spec).ok());
  EXPECT_DOUBLE_EQ(spec.probability, 0.25);
  EXPECT_EQ(spec.fire_on_hit, 0u);
  EXPECT_EQ(spec.action, Action::kFail);

  ASSERT_TRUE(FaultRegistry::ParseSpec("n3!throw", &spec).ok());
  EXPECT_EQ(spec.fire_on_hit, 3u);
  EXPECT_EQ(spec.action, Action::kThrow);

  ASSERT_TRUE(FaultRegistry::ParseSpec("p1!stall", &spec).ok());
  EXPECT_EQ(spec.action, Action::kStall);

  EXPECT_FALSE(FaultRegistry::ParseSpec("", &spec).ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("x5", &spec).ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p0", &spec).ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p1.5", &spec).ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("n0", &spec).ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p0.5!explode", &spec).ok());
}

Status HitTestPoint() {
  GRAPHGEN_FAULT_POINT("test.registry.point");
  return Status::OK();
}

TEST_F(FaultRegistryTest, HitCountFiresExactlyOnce) {
  FaultSpec spec;
  spec.fire_on_hit = 2;
  FaultRegistry::Instance().Arm("test.registry.point", spec);
  EXPECT_TRUE(HitTestPoint().ok());        // hit 1: no fire
  Status fired = HitTestPoint();           // hit 2: fires
  ASSERT_FALSE(fired.ok());
  EXPECT_NE(fired.message().find("test.registry.point"), std::string::npos);
  EXPECT_TRUE(HitTestPoint().ok());        // hit 3: countdown exhausted
  EXPECT_EQ(FaultRegistry::Instance().fires("test.registry.point"), 1u);
  EXPECT_GE(FaultRegistry::Instance().hits("test.registry.point"), 3u);
}

TEST_F(FaultRegistryTest, ArmBeforeRegistrationIsPending) {
  // The site for this name has never executed; Arm must still stick.
  FaultSpec spec;
  spec.fire_on_hit = 1;
  FaultRegistry::Instance().Arm("test.registry.pending", spec);
  Status fired = [] {
    GRAPHGEN_FAULT_POINT("test.registry.pending");
    return Status::OK();
  }();
  EXPECT_FALSE(fired.ok());
}

TEST_F(FaultRegistryTest, DisarmedPointIsFreeAndQuiet) {
  EXPECT_TRUE(HitTestPoint().ok());
  FaultSpec spec;
  spec.fire_on_hit = 1;
  FaultRegistry::Instance().Arm("test.registry.point", spec);
  FaultRegistry::Instance().Disarm("test.registry.point");
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(HitTestPoint().ok());
}

TEST_F(FaultRegistryTest, ProbabilityIsSeededAndBounded) {
  FaultRegistry::Instance().SetSeed(42);
  FaultSpec spec;
  spec.probability = 0.5;
  FaultRegistry::Instance().Arm("test.registry.point", spec);
  int fails = 0;
  for (int i = 0; i < 400; ++i) {
    if (!HitTestPoint().ok()) ++fails;
  }
  // p=0.5 over 400 draws: all-or-nothing would mean the RNG is broken.
  EXPECT_GT(fails, 100);
  EXPECT_LT(fails, 300);
}

TEST_F(FaultRegistryTest, ListReportsArmedState) {
  EXPECT_TRUE(HitTestPoint().ok());  // ensure registered
  FaultSpec spec;
  spec.probability = 0.125;
  spec.action = Action::kThrow;
  FaultRegistry::Instance().Arm("test.registry.point", spec);
  bool found = false;
  for (const fault::FaultPointInfo& info : FaultRegistry::Instance().List()) {
    if (info.name != "test.registry.point") continue;
    found = true;
    EXPECT_TRUE(info.armed);
    EXPECT_EQ(info.action, Action::kThrow);
    EXPECT_DOUBLE_EQ(info.probability, 0.125);
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------- fault sweep

const char* kCoEnrollment =
    "Nodes(ID, Name) :- Student(ID, Name).\n"
    "Edges(ID1, ID2) :- TookCourse(ID1, C), TookCourse(ID2, C).";
// COUNT constraint reaches the extract.edges.count path.
const char* kCoEnrollmentCounted =
    "Nodes(ID, Name) :- Student(ID, Name).\n"
    "Edges(ID1, ID2) :- TookCourse(ID1, C), TookCourse(ID2, C), "
    "COUNT(C) >= 2.";

struct SweepVariant {
  const char* datalog;
  GraphGenOptions options;
};

std::vector<SweepVariant> SweepVariants() {
  auto base = [] {
    GraphGenOptions o;
    o.representation = Representation::kCDup;
    o.extract.large_output_factor = 0.0;
    o.extract.threads = 2;
    return o;
  };
  std::vector<SweepVariant> variants;
  // Condensed extraction, preprocess on.
  variants.push_back({kCoEnrollment, base()});
  // COUNT-constrained rule (extract.edges.count).
  variants.push_back({kCoEnrollmentCounted, base()});
  // The Hub co-membership graph expanded in the database: its self-join
  // crosses the fusion threshold, so the DISTINCT takes the fused branch.
  {
    GraphGenOptions o = base();
    o.extract.large_output_factor = 1e18;
    variants.push_back({testing::kHubCoMembership, o});
  }
  return variants;
}

class FaultSweepTest : public FaultRegistryTest {
 protected:
  void SetUp() override {
    FaultRegistryTest::SetUp();
    data_ = gen::MakeUniversity(60, 8, 16, 3.0);
    testing::PutHubTables(data_.db, testing::HubKey::kInt64);
  }
  gen::GeneratedDatabase data_;
};

// The acceptance sweep: warm every code path so all reachable fault
// points register, then arm each one at a time (hit-count mode) and
// prove the failure surfaces as a clean non-OK Status — no crash, no
// hang, no torn service state — and that the very next clean request
// succeeds. Iterates to fixpoint: firing one point can unlock a path
// that registers another.
TEST_F(FaultSweepTest, EveryRegisteredPointFailsCleanly) {
  service::GraphService svc(&data_.db);
  const std::vector<SweepVariant> variants = SweepVariants();

  // Warm-up: register every reachable point.
  for (const SweepVariant& v : variants) {
    auto warm = svc.Extract(v.datalog, v.options);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    svc.ClearCache();
  }

  FaultRegistry& registry = FaultRegistry::Instance();
  std::set<std::string> swept;
  for (int round = 0; round < 8; ++round) {
    bool progressed = false;
    for (const std::string& name : registry.Names()) {
      if (name.rfind("test.", 0) == 0) continue;  // registry unit fixtures
      if (swept.count(name) > 0) continue;
      swept.insert(name);
      progressed = true;

      bool fired_somewhere = false;
      for (const SweepVariant& v : variants) {
        svc.ClearCache();
        const uint64_t fires_before = registry.fires(name);
        FaultSpec spec;
        spec.fire_on_hit = 1;
        registry.Arm(name, spec);
        auto result = svc.Extract(v.datalog, v.options);
        registry.Disarm(name);
        if (registry.fires(name) > fires_before) {
          fired_somewhere = true;
          EXPECT_FALSE(result.ok())
              << name << " fired but the request still succeeded";
          // The injected failure must carry the point's name.
          EXPECT_NE(result.status().message().find(name), std::string::npos)
              << result.status().ToString();
          // Nothing half-done may be cached, and the key must be
          // immediately retryable.
          svc.ClearCache();
          auto retry = svc.Extract(v.datalog, v.options);
          EXPECT_TRUE(retry.ok())
              << name << " left the service broken: "
              << retry.status().ToString();
          break;
        }
        EXPECT_TRUE(result.ok())
            << name << " did not fire yet the request failed: "
            << result.status().ToString();
      }
      EXPECT_TRUE(fired_somewhere)
          << name << " was registered but never reached by any sweep variant";
    }
    if (!progressed) break;
  }
  // Sanity: the sweep actually covered the pipeline.
  EXPECT_GE(swept.size(), 10u) << "suspiciously few fault points registered";
}

// Same sweep with Action::kThrow: an injected std::bad_alloc at any point
// must surface as ExecutionError (caught at the pool-task or service
// boundary), never terminate, and leave the service serviceable.
TEST_F(FaultSweepTest, EveryRegisteredPointThrowsCleanly) {
  service::GraphService svc(&data_.db);
  const std::vector<SweepVariant> variants = SweepVariants();
  for (const SweepVariant& v : variants) {
    auto warm = svc.Extract(v.datalog, v.options);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    svc.ClearCache();
  }

  FaultRegistry& registry = FaultRegistry::Instance();
  for (const std::string& name : registry.Names()) {
    if (name.rfind("test.", 0) == 0) continue;
    for (const SweepVariant& v : variants) {
      svc.ClearCache();
      const uint64_t fires_before = registry.fires(name);
      FaultSpec spec;
      spec.fire_on_hit = 1;
      spec.action = Action::kThrow;
      registry.Arm(name, spec);
      auto result = svc.Extract(v.datalog, v.options);
      registry.Disarm(name);
      if (registry.fires(name) > fires_before) {
        EXPECT_FALSE(result.ok()) << name;
        EXPECT_EQ(result.status().code(), StatusCode::kExecutionError)
            << name << ": " << result.status().ToString();
        break;
      }
      EXPECT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    }
  }
  // The pool and caches survived every injected throw.
  svc.ClearCache();
  auto after = svc.Extract(kCoEnrollment, SweepVariants()[0].options);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

// ExtractNamed goes through the same pipeline: an injected failure must
// surface as its Status and must NOT bind the name.
TEST_F(FaultSweepTest, ExtractNamedFailsCleanlyAndBindsNothing) {
  service::GraphService svc(&data_.db);
  const SweepVariant v = SweepVariants()[0];
  FaultSpec spec;
  spec.fire_on_hit = 1;
  FaultRegistry::Instance().Arm("extract.parse", spec);
  auto result = svc.ExtractNamed("broken", v.datalog, v.options);
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(svc.Lookup("broken").ok());
  FaultRegistry::Instance().Disarm("extract.parse");
  auto retry = svc.ExtractNamed("broken", v.datalog, v.options);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(svc.Lookup("broken").ok());
}

// Fuzz: every point armed at once with a fixed-seed probability mix of
// fail and throw actions; requests race through sync and async paths.
// Each request either succeeds or returns a clean Status, and after
// disarming, the service works — run under ASan in CI.
TEST_F(FaultSweepTest, RandomizedFaultStormNeverWedgesTheService) {
  service::GraphService svc(&data_.db);
  const std::vector<SweepVariant> variants = SweepVariants();
  for (const SweepVariant& v : variants) {
    auto warm = svc.Extract(v.datalog, v.options);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    svc.ClearCache();
  }

  FaultRegistry& registry = FaultRegistry::Instance();
  registry.SetSeed(0xfeedULL);
  size_t idx = 0;
  for (const std::string& name : registry.Names()) {
    if (name.rfind("test.", 0) == 0) continue;
    FaultSpec spec;
    spec.probability = 0.05;
    spec.action = (idx++ % 2 == 0) ? Action::kFail : Action::kThrow;
    registry.Arm(name, spec);
  }

  int failures = 0;
  for (int i = 0; i < 30; ++i) {
    const SweepVariant& v = variants[i % variants.size()];
    svc.ClearCache();
    Result<service::GraphHandle> result =
        (i % 3 == 0) ? svc.ExtractAsync(v.datalog, v.options).get()
                     : svc.Extract(v.datalog, v.options);
    if (!result.ok()) {
      ++failures;
      // Only injected failure shapes are acceptable.
      EXPECT_TRUE(result.status().code() == StatusCode::kInternal ||
                  result.status().code() == StatusCode::kExecutionError)
          << result.status().ToString();
    }
  }
  registry.DisarmAll();
  svc.ClearCache();
  auto after = svc.Extract(kCoEnrollment, variants[0].options);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
  // With ~15 armed points at p=0.05 across 30 storms, silence would mean
  // the faults never actually armed.
  EXPECT_GT(failures, 0);
}

}  // namespace
}  // namespace graphgen
