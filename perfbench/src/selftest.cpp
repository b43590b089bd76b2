// Self-test of the benchmark's own arithmetic on hand-computed inputs: the
// percentile rule, the tail-support rule, residuals, ratios with their
// bases, span self time, and the trace-event writer. run.py runs it before
// every benchmark run; a failure stops the run before any result is
// printed.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    failures++;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

void test_percentile() {
  // Nearest rank over 1..10: p50 is the 5th value, p90 the 9th, p99 and
  // p100 the 10th, p0 clamps to the first.
  std::vector<double> v = {7, 3, 10, 1, 5, 9, 2, 8, 6, 4};
  expect(near(percentile(v, 50), 5), "p50 of 1..10 is 5");
  expect(near(percentile(v, 90), 9), "p90 of 1..10 is 9");
  expect(near(percentile(v, 99), 10), "p99 of 1..10 is 10");
  expect(near(percentile(v, 100), 10), "p100 of 1..10 is 10");
  expect(near(percentile(v, 0), 1), "p0 clamps to the minimum");
  expect(near(median({4, 1, 3}), 3), "median of three is the middle one");
  expect(near(median({4, 1, 3, 2}), 2), "even count takes the lower middle");
  expect(near(percentile({}, 50), 0), "empty set reads 0");
  std::vector<double> h(1000);
  for (int i = 0; i < 1000; i++) h[i] = i + 1;
  expect(near(percentile(h, 99), 990), "p99 of 1..1000 is 990");
  expect(near(percentile(h, 90), 900), "p90 of 1..1000 is 900");
}

void test_tail_support() {
  expect(tail_supported(100, 90), "p90 holds at 100 samples");
  expect(!tail_supported(99, 90), "p90 does not hold at 99 samples");
  expect(tail_supported(1000, 99), "p99 holds at 1000 samples");
  expect(!tail_supported(999, 99), "p99 does not hold at 999 samples");
}

void test_residual_and_ratio() {
  expect(near(residual(10, {3, 4}), 3), "residual 10 - (3 + 4) = 3");
  expect(near(residual(5, {3, 4}), -2), "residual keeps its sign");
  const Ratio r{3, 4};
  expect(near(r.value(), 0.75), "ratio 3/4");
  expect(r.base() == "3/4", "ratio base prints num/den");
  expect(near(Ratio{5, 0}.value(), 0), "empty base reads 0");
  expect(near(overhead_pct(101, 100), 1), "overhead 101 vs 100 is +1%");
  expect(near(overhead_pct(99, 100), -1), "overhead keeps its sign");
}

void test_self_time() {
  // root [0,100) with children [10,30) and [50,60); the first child has a
  // grandchild [15,20). A child spilling past its parent is clipped.
  std::vector<SpanTimes> s = {
      {0, 100, -1}, {10, 30, 0}, {15, 20, 1}, {50, 60, 0}, {200, 210, -1},
      {205, 230, 4}};
  const std::vector<double> self = self_times(s);
  expect(near(self[0], 70), "root self = 100 - 20 - 10");
  expect(near(self[1], 15), "child self = 20 - 5");
  expect(near(self[2], 5), "leaf self = its duration");
  expect(near(self[3], 10), "second child self");
  expect(near(self[4], 5), "clipped child covers only 205..210");
  // Overlapping children (different threads) are merged, not summed.
  std::vector<SpanTimes> o = {{0, 10, -1}, {0, 6, 0}, {4, 8, 0}};
  expect(near(self_times(o)[0], 2), "overlapping children merge");
}

void test_trace_writer() {
  SpanLog log(0, 2);
  const int32_t a = log.open("outer", 7);
  const int32_t b = log.open("inner", 7);
  log.close(b);
  expect(log.open("dropped", 7) == -1, "a full log drops the span");
  log.close(a);
  expect(log.dropped() == 1, "dropped spans are counted");
  expect(log.spans()[1].parent == 0, "inner span records its parent");
  const std::string path = "perfbench_selftest_trace.json";
  expect(write_chrome_trace(path, {&log}), "trace file written");
  std::ifstream f(path);
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();
  std::remove(path.c_str());
  expect(text.find("\"traceEvents\"") != std::string::npos,
         "trace has traceEvents");
  expect(text.find("\"name\":\"inner\",\"ph\":\"X\"") != std::string::npos,
         "inner span is a complete event");
  expect(text.find("\"parent\":0,\"id\":7") != std::string::npos,
         "inner span carries parent and id");
  const auto table = self_time_table({&log});
  expect(table.at("outer").count == 1 && table.at("inner").count == 1,
         "self-time table counts spans per layer");
  expect(table.at("outer").self_ms <= table.at("outer").total_ms,
         "self time never exceeds total");
}

}  // namespace

int main() {
  test_percentile();
  test_tail_support();
  test_residual_and_ratio();
  test_self_time();
  test_trace_writer();
  if (failures) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
