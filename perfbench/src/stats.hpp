// The benchmark's arithmetic: percentiles, residuals, ratios with their
// bases, and span self time. Kept free of the library so selftest.cpp can
// pin every rule on hand-computed inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it. Returns 0 for an empty set.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(v.size()));
  return v[static_cast<size_t>(rank - 1)];
}

// A tail percentile is only reported with at least ten samples beyond it:
// p90 needs 100 samples, p99 needs 1000.
inline bool tail_supported(size_t samples, double p) {
  return static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-9;
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

// A ratio is always carried with its base so a report can print both.
// An empty base reads 0: the ratio was not measured.
struct Ratio {
  double num = 0;
  double den = 0;
  double value() const { return den == 0 ? 0.0 : num / den; }
  std::string base() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.6g/%.6g", num, den);
    return buf;
  }
};

// The end-to-end time not accounted for by the layer calls timed on the
// same input; signed, so a layer sum above the whole shows as negative.
inline double residual(double whole, const std::vector<double>& parts) {
  double s = 0;
  for (double p : parts) s += p;
  return whole - s;
}

// Relative change of `traced` against `base`, in percent (signed).
inline double overhead_pct(double traced, double base) {
  return base == 0 ? 0.0 : (traced / base - 1.0) * 100.0;
}

// Self time of span i: its duration minus the union of its direct
// children's intervals clipped to it. Children on one thread never overlap,
// but clipping and merging keep the rule exact for any input.
struct SpanTimes {
  double start = 0, end = 0;
  int32_t parent = -1;
};

inline std::vector<double> self_times(const std::vector<SpanTimes>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    const int32_t p = spans[i].parent;
    if (p < 0 || static_cast<size_t>(p) >= spans.size()) continue;
    const double lo = std::max(spans[i].start, spans[p].start);
    const double hi = std::min(spans[i].end, spans[p].end);
    if (hi > lo) kids[p].push_back({lo, hi});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : k) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

}  // namespace perfbench
