#ifndef GRAPHGEN_TOOLS_ARG_PARSE_H_
#define GRAPHGEN_TOOLS_ARG_PARSE_H_

// Strict parsing of the numeric arguments graphgen_cli and graphgen_shell
// take from users: a value that is malformed, not finite or out of range
// is rejected instead of being cast into a size.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

namespace graphgen::tools {

// The whole of `text` as a finite double, or nullopt.
inline std::optional<double> ParseFinite(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

inline constexpr const char* kScaleRange = "a finite number in (0, 1000]";

// A sample-dataset scale factor in (0, 1000], or nullopt.
inline std::optional<double> ParseScale(const std::string& text) {
  const std::optional<double> v = ParseFinite(text);
  if (!v.has_value() || !(*v > 0.0 && *v <= 1000.0)) return std::nullopt;
  return v;
}

inline constexpr const char* kBudgetMbRange = "a number of MiB in [0, 2^44)";

// A cache budget given in MiB, as bytes: finite, not negative and
// representable as size_t; nullopt otherwise.
inline std::optional<size_t> ParseBudgetMb(const std::string& text) {
  const std::optional<double> v = ParseFinite(text);
  if (!v.has_value() || *v < 0.0) return std::nullopt;
  const double bytes = *v * static_cast<double>(1 << 20);
  if (!(bytes < static_cast<double>(SIZE_MAX))) return std::nullopt;
  return static_cast<size_t>(bytes);
}

}  // namespace graphgen::tools

#endif  // GRAPHGEN_TOOLS_ARG_PARSE_H_
