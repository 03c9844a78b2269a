#include <gtest/gtest.h>

#include <atomic>

#include "repr/cdup_graph.h"
#include "test_util.h"
#include "vertexcentric/vertex_centric.h"

namespace graphgen {
namespace {

using testing::MakeFigure1Graph;

// Counts supersteps and halts after a fixed number of rounds.
class CountingExecutor : public Executor {
 public:
  explicit CountingExecutor(size_t rounds) : rounds_(rounds) {}

  void Compute(VertexContext& ctx) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (ctx.superstep() + 1 >= rounds_) ctx.VoteToHalt();
  }

  uint64_t calls() const { return calls_.load(); }

 private:
  size_t rounds_;
  std::atomic<uint64_t> calls_{0};
};

TEST(VertexCentricTest, RunsUntilAllHalt) {
  CDupGraph g(MakeFigure1Graph());
  CountingExecutor exec(3);
  VertexCentric vc(&g);
  auto stats = vc.Run(&exec);
  EXPECT_EQ(stats.supersteps, 3u);
  EXPECT_EQ(exec.calls(), 3u * 5u);
}

TEST(VertexCentricTest, MaxSuperstepsCapsRun) {
  CDupGraph g(MakeFigure1Graph());
  CountingExecutor exec(100);
  VertexCentric vc(&g);
  auto stats = vc.Run(&exec, 4);
  EXPECT_EQ(stats.supersteps, 4u);
}

TEST(VertexCentricTest, SkipsDeletedVertices) {
  CDupGraph g(MakeFigure1Graph());
  ASSERT_TRUE(g.DeleteVertex(2).ok());
  CountingExecutor exec(1);
  VertexCentric vc(&g);
  vc.Run(&exec);
  EXPECT_EQ(exec.calls(), 4u);
}

TEST(VertexCentricTest, HaltedVerticesStayHalted) {
  CDupGraph g(MakeFigure1Graph());

  // Vertex 0 halts in step 0; everyone else in step 1.
  class PartialHalt : public Executor {
   public:
    void Compute(VertexContext& ctx) override {
      calls.fetch_add(1);
      if (ctx.id() == 0 || ctx.superstep() >= 1) ctx.VoteToHalt();
    }
    std::atomic<uint64_t> calls{0};
  };
  PartialHalt exec;
  VertexCentric vc(&g);
  auto stats = vc.Run(&exec);
  EXPECT_EQ(stats.supersteps, 2u);
  EXPECT_EQ(exec.calls.load(), 5u + 4u);
}

TEST(VertexCentricTest, AfterSuperstepCanTerminate) {
  CDupGraph g(MakeFigure1Graph());
  class StopAfterOne : public Executor {
   public:
    void Compute(VertexContext&) override {}
    bool AfterSuperstep(size_t) override { return false; }
  };
  StopAfterOne exec;
  VertexCentric vc(&g);
  auto stats = vc.Run(&exec);
  EXPECT_EQ(stats.supersteps, 1u);
}

TEST(VertexCentricTest, NeighborAccessIsGasStyle) {
  CDupGraph g(MakeFigure1Graph());
  // Sum of neighbor ids via direct neighbor access.
  class SumNeighbors : public Executor {
   public:
    explicit SumNeighbors(std::vector<uint64_t>* out) : out_(out) {}
    void Compute(VertexContext& ctx) override {
      uint64_t sum = 0;
      ctx.VisitNeighbors([&](NodeId v) { sum += v; });
      (*out_)[ctx.id()] = sum;
      ctx.VoteToHalt();
    }
    std::vector<uint64_t>* out_;
  };
  std::vector<uint64_t> sums(5, 0);
  SumNeighbors exec(&sums);
  VertexCentric vc(&g);
  vc.Run(&exec);
  EXPECT_EQ(sums[0], 1u + 2u + 3u);
  EXPECT_EQ(sums[4], 3u);
}

}  // namespace
}  // namespace graphgen
