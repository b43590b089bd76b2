// Shared plumbing of the benchmark driver: run configuration, the result
// record every workload fills, and small timing helpers.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;  // flip one recorded answer before it is checked
  std::string trace_out;
};

// Metric names and units match BENCHMARK.json; run.py picks the contract
// subset out of the full list.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t samples;   // 0 when the value is not a sample statistic
  std::string note;  // a ratio's base, or why a tail percentile is weak
};

struct Result {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // first few mismatch descriptions
  int64_t realized_k = 0;           // regime guard (batch workloads)
  double frontier_p50 = 0;

  void add(const std::string& name, double value, const std::string& unit,
           int64_t samples = 0, const std::string& note = "") {
    metrics.push_back({name, value, unit, samples, note});
  }
  void add_ratio(const std::string& name, const Ratio& r,
                 const std::string& unit = "ratio") {
    add(name, r.value(), unit, 0, "base " + r.base());
  }
  // Adds name.p50 and name.pXX over `v`, each with its sample count; a
  // tail with fewer than ten samples beyond it is marked.
  void add_pcts(const std::string& name, const std::vector<double>& v,
                const std::string& unit, double tail) {
    const int64_t n = static_cast<int64_t>(v.size());
    add(name + ".p50", percentile(v, 50), unit, n);
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), ".p%g", tail);
    add(name + suffix, percentile(v, tail), unit, n,
        tail_supported(v.size(), tail) ? ""
                                       : "fewer than 10 samples beyond");
  }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    failed++;
    if (errors.size() < 8) errors.push_back(what);
  }
};

// Creates one SpanLog per thread when tracing is on; hands out nullptr
// (no-op spans) otherwise.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  SpanLog* new_log(size_t capacity) {
    if (!on_) return nullptr;
    std::lock_guard<std::mutex> lk(mu_);
    logs_.push_back(
        std::make_unique<SpanLog>(static_cast<int>(logs_.size()), capacity));
    return logs_.back().get();
  }
  std::vector<const SpanLog*> logs() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<const SpanLog*> out;
    for (const auto& l : logs_) out.push_back(l.get());
    return out;
  }

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Wall-clock ceiling of any measurement loop, whatever its minimum count.
constexpr double kHardCapS = 120;

// Runs body() until `secs` have passed and at least `min_iters` ran.
template <typename F>
void loop_for(double secs, int64_t min_iters, F&& body) {
  const auto t0 = Clock::now();
  for (int64_t i = 0;; i++) {
    const double el = seconds_since(t0);
    if ((el >= secs && i >= min_iters) || el >= kHardCapS) break;
    body();
  }
}

inline double rss_peak_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

constexpr double kMiB = 1024.0 * 1024.0;

// Each workload's set-up is repeated this many times per run and its median
// reported, so set-up time is a steady figure despite being short.
constexpr int kSetupReps = 21;

// Untimed load before every measurement. The host's hypervisor gives an
// idle guest's vCPUs more of the machine for the first second or so of
// load, then settles; measuring after the burn-in keeps runs comparable.
constexpr double kBurnInS = 2.0;

Result run_lis_bulk(const Config&, Tracer&);
Result run_lis_deep(const Config&, Tracer&);
Result run_wlis_bulk(const Config&, Tracer&);
Result run_serve_mix(const Config&, Tracer&);

}  // namespace perfbench
