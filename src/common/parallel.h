#ifndef GRAPHGEN_COMMON_PARALLEL_H_
#define GRAPHGEN_COMMON_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace graphgen {

/// Number of worker threads used by ParallelFor (defaults to hardware
/// concurrency; override with the GRAPHGEN_THREADS environment variable).
size_t DefaultThreadCount();

/// Runs fn(begin, end) over disjoint chunks of [0, n) on multiple threads
/// and joins. Falls back to a single inline call when n is small or
/// `threads` <= 1. Used by the preprocessing step (§4.2 Step 6), BITMAP-2
/// deduplication, and the vertex-centric framework.
void ParallelFor(size_t n,
                 const std::function<void(size_t begin, size_t end)>& fn,
                 size_t threads = 0);

/// Runs fn(thread_index) on `threads` threads and joins; zero threads run
/// nothing, one runs fn(0) on the caller.
void ParallelInvoke(size_t threads, const std::function<void(size_t)>& fn);

/// A contiguous index range [begin, end).
struct IndexRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Splits [0, n) into at most `threads` contiguous ranges whose *total
/// weight* is approximately equal, where weight(i) is the cost of index i
/// (e.g. a vertex's degree). Equal-index chunking stalls on skewed degree
/// distributions — one chunk owning the hubs runs long while the rest sit
/// idle — so the CSR kernels split by cumulative edge count instead.
/// Collapses to a single range when the total weight is too small to be
/// worth fanning out. The returned ranges always cover [0, n) exactly.
std::vector<IndexRange> BalancedRanges(
    size_t n, const std::function<uint64_t(size_t)>& weight,
    size_t threads = 0);

/// Runs fn(begin, end) for each precomputed range, one thread per range
/// (inline when there is at most one range). Pair with BalancedRanges for
/// edge-balanced data parallelism.
void ParallelForRanges(const std::vector<IndexRange>& ranges,
                       const std::function<void(size_t begin, size_t end)>& fn);

/// A fixed-size pool of persistent worker threads draining a FIFO task
/// queue. Unlike ParallelFor/ParallelInvoke (spawn-join helpers for data
/// parallelism), the pool serves long-lived request workloads: the graph
/// service submits one task per extraction request and clients block on
/// their own future, not on the whole batch.
class ThreadPool {
 public:
  /// Starts `threads` workers (0 = DefaultThreadCount()).
  explicit ThreadPool(size_t threads = 0);
  /// Drains outstanding tasks, then stops and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; it runs on some worker thread. Must not be called
  /// after destruction has begun.
  void Submit(std::function<void()> task);

  /// Runs every task to completion, using idle pool workers
  /// opportunistically while the *calling thread also participates*.
  /// Because the caller drains the batch itself when no worker is free,
  /// RunBatch never deadlocks — even when invoked from inside a pool task
  /// (the extraction pipeline fans out per-rule queries on the same pool
  /// that runs the extraction request). Tasks must not throw.
  void RunBatch(std::vector<std::function<void()>> tasks);

  /// Blocks until the queue is empty and every worker is idle.
  void Wait();

  size_t NumThreads() const { return workers_.size(); }
  /// Tasks enqueued but not yet started (approximate; racy by nature).
  size_t QueueDepth() const;

 private:
  void WorkerLoop();

  mutable Mutex mu_;
  CondVar work_available_;
  CondVar all_idle_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t active_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  /// Written only by the constructor before any concurrency exists; read
  /// freely afterwards (NumThreads, RunBatch's helper sizing).
  std::vector<std::thread> workers_;
};

}  // namespace graphgen

#endif  // GRAPHGEN_COMMON_PARALLEL_H_
