#ifndef GRAPHGEN_BENCHMARK_RECORD_H_
#define GRAPHGEN_BENCHMARK_RECORD_H_

// Result emitter and quantile helper for the benchmark of record
// (bench_graphgen). One run produces one record: the environment it ran
// in, the identity of the generated inputs, and one entry per metric with
// its unit and sample count. The same metrics are printed as text lines
// and, last, as the one-line JSON result the benchmark contract asks for.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace graphgen::benchrec {

/// Nearest-rank percentile (p in (0, 100]) of an unsorted sample; 0 for
/// an empty one.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double exact = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t rank = std::clamp<size_t>(static_cast<size_t>(exact), 1, v.size());
  return v[rank - 1];
}

/// How many samples of a size-`n` sample rank above its p-th percentile. A
/// percentile is trustworthy only with at least 10 samples beyond it.
inline size_t SamplesAbove(size_t n, double p) {
  if (n == 0) return 0;
  const double exact = std::ceil(p / 100.0 * static_cast<double>(n));
  return n - std::clamp<size_t>(static_cast<size_t>(exact), 1, n);
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

/// Every digit the double carries; callers reject non-finite values first.
inline std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

enum class MetricKind { kEndToEnd, kPerLayer };

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Observations behind the value (requests for a percentile, set-up
  /// repeats for setup_s, 1 for a deterministic size).
  uint64_t samples = 0;
  MetricKind kind = MetricKind::kEndToEnd;
};

/// Generator and parameters of one input, plus the row counts it produced.
struct Dataset {
  std::string generator;
  std::vector<std::pair<std::string, std::string>> params;
  std::vector<std::pair<std::string, uint64_t>> rows;
};

struct Environment {
  std::string git_sha;
  std::string compiler;
  std::string build_type;
  unsigned nproc = 0;
  size_t client_threads = 0;
  size_t pipeline_threads = 0;
  std::string simd_tier;
  bool obs_enabled = true;
  uint64_t seed = 0;
};

class Report {
 public:
  void Add(std::string name, std::string unit, double value, uint64_t samples,
           MetricKind kind) {
    metrics_.push_back({std::move(name), std::move(unit), value, samples, kind});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// True when every value is finite (a NaN would make the result line
  /// unparsable as JSON).
  bool AllFinite() const {
    return std::all_of(metrics_.begin(), metrics_.end(),
                       [](const Metric& m) { return std::isfinite(m.value); });
  }

  /// "name  value unit  (n=samples)" lines for the metrics of one kind.
  void PrintText(MetricKind kind) const {
    for (const Metric& m : metrics_) {
      if (m.kind != kind) continue;
      std::printf("  %-34s %16.6g %-8s (n=%llu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    }
  }

  /// The benchmark contract's last stdout line: the metrics of one kind.
  std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                         MetricKind kind) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (m.kind != kind) continue;
      if (!first) out += ", ";
      first = false;
      out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
             ", \"unit\": " + JsonString(m.unit) + "}";
    }
    return out + "}}";
  }

  /// The full record: environment, datasets, verdict and every metric.
  std::string RecordJson(const std::string& workload, double seconds,
                         bool traced, const Environment& env,
                         const std::vector<Dataset>& datasets, bool correct,
                         uint64_t attempted, uint64_t failed,
                         const std::vector<std::string>& errors) const {
    std::string out = "{\n  \"benchmark\": \"graphgen\",\n";
    out += "  \"workload\": " + JsonString(workload) + ",\n";
    out += "  \"seed\": " + std::to_string(env.seed) + ",\n";
    out += "  \"seconds\": " + JsonNumber(seconds) + ",\n";
    out += std::string("  \"traced\": ") + (traced ? "true" : "false") + ",\n";
    out += "  \"environment\": {\"git_sha\": " + JsonString(env.git_sha) +
           ", \"compiler\": " + JsonString(env.compiler) +
           ", \"build_type\": " + JsonString(env.build_type) +
           ", \"nproc\": " + std::to_string(env.nproc) +
           ", \"client_threads\": " + std::to_string(env.client_threads) +
           ", \"pipeline_threads\": " + std::to_string(env.pipeline_threads) +
           ", \"simd_tier\": " + JsonString(env.simd_tier) +
           ", \"obs_enabled\": " + (env.obs_enabled ? "true" : "false") +
           ", \"seed\": " + std::to_string(env.seed) + "},\n";
    out += "  \"datasets\": [";
    for (size_t i = 0; i < datasets.size(); ++i) {
      const Dataset& d = datasets[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"generator\": " + JsonString(d.generator) + ", \"params\": {";
      for (size_t j = 0; j < d.params.size(); ++j) {
        out += (j == 0 ? "" : ", ") + JsonString(d.params[j].first) + ": " +
               JsonString(d.params[j].second);
      }
      out += "}, \"rows\": {";
      for (size_t j = 0; j < d.rows.size(); ++j) {
        out += (j == 0 ? "" : ", ") + JsonString(d.rows[j].first) + ": " +
               std::to_string(d.rows[j].second);
      }
      out += "}}";
    }
    out += "\n  ],\n";
    out += std::string("  \"correct\": ") + (correct ? "true" : "false") +
           ",\n  \"attempted\": " + std::to_string(attempted) +
           ",\n  \"failed\": " + std::to_string(failed) + ",\n  \"errors\": [";
    for (size_t i = 0; i < errors.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonString(errors[i]);
    }
    out += "],\n  \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    " + JsonString(m.name) + ": {\"value\": " +
             JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) +
             ", \"samples\": " + std::to_string(m.samples) + ", \"kind\": " +
             (m.kind == MetricKind::kEndToEnd ? "\"end_to_end\""
                                              : "\"per_layer\"") +
             "}";
    }
    return out + "\n  }\n}\n";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace graphgen::benchrec

#endif  // GRAPHGEN_BENCHMARK_RECORD_H_
