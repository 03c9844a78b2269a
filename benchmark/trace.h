#ifndef GRAPHGEN_BENCHMARK_TRACE_H_
#define GRAPHGEN_BENCHMARK_TRACE_H_

// Span recording for the traced run of bench_graphgen. The harness opens
// one span around each public call it makes into a layer; spans stay in
// memory (one log per client thread, so recording takes no lock) and are
// written out as JSON when the run ends. A layer's self time is its span's
// duration minus the time its child spans cover.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "record.h"

namespace graphgen::benchrec {

/// Seconds since the first call in this process (a shared epoch keeps the
/// spans of all client threads on one time axis).
inline double TraceClock() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// The spans one client thread recorded. Not thread-safe by design.
class SpanLog {
 public:
  struct Span {
    const char* name;  // a string literal
    double start_s;
    double end_s;
    int32_t parent;  // index in this log, -1 for a root
    uint64_t request;
  };

  int32_t Begin(const char* name, int32_t parent, uint64_t request) {
    spans_.push_back({name, TraceClock(), 0.0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) { spans_[static_cast<size_t>(id)].end_s = TraceClock(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Opens a span for its scope; a null log makes it a no-op (untraced
/// requests run the same code with log == nullptr).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int32_t parent, uint64_t request)
      : log_(log), id_(log == nullptr ? -1 : log->Begin(name, parent, request)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { End(); }

  /// Closes the span early (idempotent).
  void End() {
    if (log_ != nullptr) log_->End(id_);
    log_ = nullptr;
  }
  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Per-layer timing samples: each observation's duration and self time.
class LayerTimes {
 public:
  void Add(const std::string& name, double seconds, double self_seconds) {
    Entry& e = entries_[name];
    e.ms.push_back(seconds * 1e3);
    e.busy_s += self_seconds;
  }

  /// Folds every span of `log` in, self time = duration - child time.
  void AddSpans(const SpanLog& log) {
    const auto& spans = log.spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const auto& s : spans) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double d = spans[i].end_s - spans[i].start_s;
      Add(spans[i].name, d, d - child[i]);
    }
  }

  void Merge(const LayerTimes& other) {
    for (const auto& [name, e] : other.entries_) {
      Entry& mine = entries_[name];
      mine.ms.insert(mine.ms.end(), e.ms.begin(), e.ms.end());
      mine.busy_s += e.busy_s;
    }
  }

  /// Adds `<name>.p50_ms` and `<name>.busy_s` to `report`; zeros when the
  /// layer never ran on this workload.
  void AddTo(const std::string& name, Report& report) const {
    auto it = entries_.find(name);
    const std::vector<double> none;
    const std::vector<double>& ms = it == entries_.end() ? none : it->second.ms;
    const double busy = it == entries_.end() ? 0.0 : it->second.busy_s;
    report.Add(name + ".p50_ms", "ms", Percentile(ms, 50), ms.size(),
               MetricKind::kPerLayer);
    report.Add(name + ".busy_s", "s", busy, ms.size(), MetricKind::kPerLayer);
  }

 private:
  struct Entry {
    std::vector<double> ms;
    double busy_s = 0.0;
  };
  std::map<std::string, Entry> entries_;
};

/// Writes every client's spans as one JSON document with process-unique
/// span ids. Returns false when the file cannot be written.
inline bool WriteSpansJson(const std::string& path,
                           const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"clock\": \"steady, seconds since process start\", \"spans\": [");
  int64_t base = 0;
  bool first = true;
  for (size_t c = 0; c < logs.size(); ++c) {
    const auto& spans = logs[c]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      const std::string parent =
          s.parent < 0 ? "null" : std::to_string(base + s.parent);
      std::fprintf(f,
                   "%s\n  {\"id\": %lld, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %s, \"request\": %llu, "
                   "\"client\": %zu}",
                   first ? "" : ",", static_cast<long long>(base + static_cast<int64_t>(i)),
                   s.name, s.start_s, s.end_s, parent.c_str(),
                   static_cast<unsigned long long>(s.request), c);
      first = false;
    }
    base += static_cast<int64_t>(spans.size());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace graphgen::benchrec

#endif  // GRAPHGEN_BENCHMARK_TRACE_H_
