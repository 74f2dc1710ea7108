#pragma once
// Quantiles and the named-metric list every run prints.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace e2e {

/// Nearest-rank q-quantile (0 < q <= 1); +inf samples sort last, so a
/// failed request counts as missing every latency limit.  0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t at = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(at), v.end());
  return v[at];
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

/// The result line: one JSON object, printed last on stdout.
inline void print_result(bool correct, unsigned long long attempted,
                         unsigned long long failed, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no infinity; a latency quantile that landed on a failed
    // request prints as the largest double.
    const double v = std::isfinite(m.value) ? m.value
                                            : std::numeric_limits<double>::max();
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace e2e
