#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

namespace graphgen {

size_t DefaultThreadCount() {
  static size_t cached = [] {
    if (const char* env = std::getenv("GRAPHGEN_THREADS")) {
      long v = std::atol(env);
      if (v > 0) return static_cast<size_t>(v);
    }
    size_t hw = std::thread::hardware_concurrency();
    return hw == 0 ? size_t{4} : hw;
  }();
  return cached;
}

void ParallelFor(size_t n,
                 const std::function<void(size_t, size_t)>& fn,
                 size_t threads) {
  if (threads == 0) threads = DefaultThreadCount();
  constexpr size_t kMinChunk = 1024;
  if (threads <= 1 || n < 2 * kMinChunk) {
    fn(0, n);
    return;
  }
  threads = std::min(threads, (n + kMinChunk - 1) / kMinChunk);
  const size_t chunk = (n + threads - 1) / threads;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    size_t begin = t * chunk;
    size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    workers.emplace_back([&fn, begin, end] { fn(begin, end); });
  }
  for (auto& w : workers) w.join();
}

std::vector<IndexRange> BalancedRanges(
    size_t n, const std::function<uint64_t(size_t)>& weight, size_t threads) {
  if (n == 0) return {};
  if (threads == 0) threads = DefaultThreadCount();
  // Below this total weight the spawn/join cost outweighs the win; the
  // threshold mirrors ParallelFor's kMinChunk scale.
  constexpr uint64_t kMinTotalWeight = 2048;
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) total += weight(i);
  if (threads <= 1 || total < 2 * kMinTotalWeight) return {{0, n}};

  std::vector<IndexRange> ranges;
  ranges.reserve(threads);
  // Cut whenever the open range's weight reaches an even share of the
  // weight *not yet assigned* — recomputed per cut, so a single hub that
  // swallows most of the total still leaves the tail evenly split across
  // the remaining slots instead of serialized into one range.
  uint64_t remaining = total;
  uint64_t acc = 0;
  size_t begin = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += weight(i);
    const size_t slots_left = threads - ranges.size();
    if (slots_left > 1 && i + 1 < n &&
        acc >= (remaining + slots_left - 1) / slots_left) {
      ranges.push_back({begin, i + 1});
      begin = i + 1;
      remaining -= acc;
      acc = 0;
    }
  }
  ranges.push_back({begin, n});
  return ranges;
}

void ParallelForRanges(
    const std::vector<IndexRange>& ranges,
    const std::function<void(size_t begin, size_t end)>& fn) {
  if (ranges.empty()) return;
  if (ranges.size() == 1) {
    fn(ranges[0].begin, ranges[0].end);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(ranges.size());
  for (const IndexRange& r : ranges) {
    workers.emplace_back([&fn, r] { fn(r.begin, r.end); });
  }
  for (auto& w : workers) w.join();
}

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) threads = DefaultThreadCount();
  workers_.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  work_available_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_available_.NotifyOne();
}

void ThreadPool::RunBatch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {
    tasks[0]();
    return;
  }
  // Shared by the caller and any helpers; helpers that start after the
  // batch has drained see next >= size and return immediately, so the
  // state must outlive this call (shared_ptr).
  struct BatchState {
    std::vector<std::function<void()>> tasks;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    Mutex mu;
    CondVar cv;
  };
  auto state = std::make_shared<BatchState>();
  state->tasks = std::move(tasks);
  const size_t total = state->tasks.size();
  auto drain = [state, total] {
    for (;;) {
      const size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      state->tasks[i]();
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        MutexLock lock(state->mu);
        state->cv.NotifyAll();
      }
    }
  };
  const size_t helpers = std::min(workers_.size(), total - 1);
  for (size_t h = 0; h < helpers; ++h) Submit(drain);
  drain();
  MutexLock lock(state->mu);
  while (state->done.load(std::memory_order_acquire) != total) {
    state->cv.Wait(state->mu);
  }
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (!queue_.empty() || active_ != 0) all_idle_.Wait(mu_);
}

size_t ThreadPool::QueueDepth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_available_.Wait(mu_);
      // Drain the queue before honoring stop so submitted work completes.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    // An exception escaping a thread body would terminate the process and
    // strand active_, hanging Wait(). Tasks report failure through their
    // own channel (the service's promise/Status), so drop anything thrown.
    try {
      task();
    } catch (...) {
    }
    {
      MutexLock lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) all_idle_.NotifyAll();
    }
  }
}

void ParallelInvoke(size_t threads, const std::function<void(size_t)>& fn) {
  if (threads == 0) return;
  if (threads == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&fn, t] { fn(t); });
  }
  for (auto& w : workers) w.join();
}

}  // namespace graphgen
