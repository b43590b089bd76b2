// Microbenchmark of the scheduler core (the runtime layer under every
// parallel path):
//
//   spawn          — scheduling overhead per unit of distributed work: a
//                    parallel_for over `spawniters` trivial iterations at
//                    grain 1, fully scheduling-bound; each split of the
//                    range is a par_do on the lock-free deques. Checked:
//                    units[i] == i for every i.
//   par_do         — round-trip cost of a single fork+join pair (push,
//                    run left, pop-or-help) on an otherwise idle pool.
//   forkjoin_tree  — a balanced binary par_do tree (fork-join latency with
//                    real steal traffic). Checked: the tree's sum.
//   parallel_for_tasks — tasks spawned by one parallel_for over 2^20
//                    indices at the default grain: one per split of leaves
//                    of at most 4096 iterations (255 at 2^20).
//   parallel_for_compute — a compute-bound parallel_for over 2^16
//                    iterations: sequential-mode time over pooled time
//                    (medians of 11 interleaved runs) — the loop's
//                    self-speedup.
//   lis_ranks/wlis — end-to-end across the thread sweep.
//
// The pool size is fixed per process, so the parent re-executes itself per
// thread count via PARLIS_NUM_THREADS + an argv vector (no shell). Timed
// rows are medians of --reps calls after a warm-up (time_median_of).
// Whether a change made a row slower is bench_compare's verdict against
// the committed rows (README, "Benchmarks").
//
// Flags: --n (lis_ranks size), --nw (wlis size), --spawniters,
// --treeleaves, --threadlist, --reps, --out FILE (BENCH_*.json records).
// Exits 1 if a child fails or a check fails.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/wlis/wlis.hpp"

namespace {

using namespace parlis;
using namespace parlis::bench;

// parallel_for_compute: iterations, hash64 calls per iteration (~0.25 µs
// of work) and interleaved sequential-mode/pooled pairs.
constexpr int64_t kComputeIters = 1 << 16;
constexpr int kComputeChain = 64;
constexpr int kComputeReps = 11;

// The child's RESULT values, in print order.
enum Result {
  kSpawnNs,
  kParDoNs,
  kTreeMs,
  kPforTasks,
  kLisMs,
  kWlisMs,
  kComputeSeqMs,
  kComputePooledMs,
  kNumResults
};

// parallel_for_compute's self-speedup: sequential-mode over pooled time.
double compute_speedup(const std::vector<double>& v) {
  return v[kComputePooledMs] > 0 ? v[kComputeSeqMs] / v[kComputePooledMs] : -1;
}

int64_t tree_sum(int64_t lo, int64_t hi) {
  if (hi - lo == 1) return lo;
  int64_t mid = lo + (hi - lo) / 2;
  int64_t a = 0, b = 0;
  par_do([&] { a = tree_sum(lo, mid); }, [&] { b = tree_sum(mid, hi); });
  return a + b;
}

// Child mode: run every measurement at the pool size inherited from
// PARLIS_NUM_THREADS and print RESULT lines in Result order; exit 1 if a
// check fails.
int run_child(int64_t n, int64_t nw, int64_t spawn_iters, int64_t tree_leaves,
              int reps) {
  double r[kNumResults];
  // Scheduling-bound loop: grain 1 makes every iteration a leaf of a binary
  // fork tree. The body is one plain store per distinct index, so elapsed
  // time is almost pure scheduling overhead.
  std::vector<int64_t> units(spawn_iters, -1);
  r[kSpawnNs] = time_median_of(reps, [&] {
                  parallel_for(0, spawn_iters, [&](int64_t i) { units[i] = i; },
                               /*grain=*/1);
                }) * 1e9 / spawn_iters;
  bool ok = true;
  for (int64_t i = 0; i < spawn_iters; i++) ok = ok && units[i] == i;

  // Per-branch sinks: the right branch may run on a thief, so the two
  // bodies must not touch the same (non-atomic) cell.
  volatile int64_t sink_l = 0, sink_r = 0;
  r[kParDoNs] = time_median_of(reps, [&] {
                  for (int64_t i = 0; i < spawn_iters; i++) {
                    par_do([&] { sink_l = sink_l + 1; },
                           [&] { sink_r = sink_r + 1; });
                  }
                }) * 1e9 / spawn_iters;

  int64_t sum = 0;
  r[kTreeMs] =
      time_median_of(reps, [&] { sum = tree_sum(0, tree_leaves); }) * 1e3;
  ok = ok && sum == tree_leaves * (tree_leaves - 1) / 2;

  constexpr int64_t kPforN = 1 << 20;
  std::vector<int64_t> acc(kPforN);
  uint64_t before = scheduler_stats().spawns;
  parallel_for(0, kPforN, [&](int64_t i) { acc[i] = i; });
  r[kPforTasks] = static_cast<double>(scheduler_stats().spawns - before);

  // Compute-bound loop: a dependent hash chain per index and one store, so
  // the loop's time is the body's and its self-speedup is the scheduler's.
  std::vector<uint64_t> chain(kComputeIters);
  auto compute_loop = [&] {
    parallel_for(0, kComputeIters, [&](int64_t i) {
      uint64_t x = static_cast<uint64_t>(i);
      for (int c = 0; c < kComputeChain; c++) x = hash64(x);
      chain[i] = x;
    });
  };
  PairMedians m_compute = measure_pair(
      kComputeReps,
      [&] {
        const bool prev = set_sequential_mode(true);
        compute_loop();
        set_sequential_mode(prev);
      },
      compute_loop);
  r[kComputeSeqMs] = m_compute.a_ms();
  r[kComputePooledMs] = m_compute.b_ms();

  std::vector<int64_t> a(n), w(n);
  parallel_for(0, n, [&](int64_t i) {
    a[i] = static_cast<int64_t>(hash64(42, i) >> 1);
    w[i] = 1 + static_cast<int64_t>(uniform(43, i, 1000));
  });
  volatile int64_t sink = 0;
  r[kLisMs] =
      time_median_of(reps, [&] { sink = sink + lis_ranks(a).k; }) * 1e3;
  std::vector<int64_t> aw(a.begin(), a.begin() + std::min(n, nw));
  std::vector<int64_t> ww(w.begin(), w.begin() + std::min(n, nw));
  r[kWlisMs] = time_median_of(reps, [&] {
                 sink = sink + wlis(aw, ww, WlisStructure::kRangeTree).best;
               }) * 1e3;

  if (!ok) {
    std::fprintf(stderr, "micro_scheduler: a check failed at %d threads\n",
                 num_workers());
    return 1;
  }
  for (double v : r) std::printf("RESULT %.6f\n", v);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int64_t n = flags.get("n", 10000000);
  int64_t nw = flags.get("nw", 1000000);
  int64_t spawn_iters = flags.get("spawniters", 100000);
  int64_t tree_leaves = flags.get("treeleaves", 4096);
  int reps = static_cast<int>(flags.get("reps", 3));
  if (flags.has("child")) {
    return run_child(n, nw, spawn_iters, tree_leaves, reps);
  }

  std::string tl = flags.get_str("threadlist", "1,2,4");
  std::vector<int> threads = parse_int_list(tl);
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  BenchJson json(flags.get_str("out", ""));
  std::printf(
      "micro_scheduler: n=%lld, nw=%lld, spawniters=%lld, treeleaves=%lld, "
      "reps=%d, threads={%s}, host_hw_threads=%d\n",
      static_cast<long long>(n), static_cast<long long>(nw),
      static_cast<long long>(spawn_iters), static_cast<long long>(tree_leaves),
      reps, tl.c_str(), hw);

  std::vector<std::string> child_args = {
      "--child",      "1",
      "--n",          std::to_string(n),
      "--nw",         std::to_string(nw),
      "--spawniters", std::to_string(spawn_iters),
      "--treeleaves", std::to_string(tree_leaves),
      "--reps",       std::to_string(reps)};

  struct Row {
    int threads = 0;
    std::vector<double> v;  // the kNumResults RESULT values
  };
  std::vector<Row> rows;
  for (int t : threads) {
    std::vector<double> v = run_self_with_threads(argv[0], t, child_args);
    if (v.size() != kNumResults) {
      std::fprintf(stderr, "micro_scheduler: child at %d threads failed\n", t);
      return 1;
    }
    rows.push_back({t, std::move(v)});
  }
  if (rows.empty()) {
    std::fprintf(stderr, "micro_scheduler: no measurements\n");
    return 1;
  }

  std::printf("\n%-8s  %9s  %9s  %9s  %10s  %22s  %12s  %12s\n", "threads",
              "spawn ns", "pardo ns", "tree ms", "pfor tasks",
              "compute ms (seq/pool/x)", "lis_ranks ms", "wlis ms");
  for (const Row& r : rows) {
    const std::vector<double>& v = r.v;
    std::printf(
        "%-8d  %9.1f  %9.1f  %9.3f  %10.0f  %8.2f %7.2f %5.2fx  %12.1f  "
        "%12.1f\n",
        r.threads, v[kSpawnNs], v[kParDoNs], v[kTreeMs], v[kPforTasks],
        v[kComputeSeqMs], v[kComputePooledMs], compute_speedup(v), v[kLisMs],
        v[kWlisMs]);
  }

  double lis_t1 = -1, wlis_t1 = -1;
  for (const Row& r : rows) {
    if (r.threads == 1) {
      lis_t1 = r.v[kLisMs];
      wlis_t1 = r.v[kWlisMs];
    }
  }
  for (const Row& r : rows) {
    const std::vector<double>& v = r.v;
    auto rec = [&](const char* op) {
      return JsonRecord()
          .field("bench", "micro_scheduler")
          .field("op", op)
          .field("variant", "current")
          .field("threads", r.threads);
    };
    json.add(rec("spawn").field("per_spawn_ns", v[kSpawnNs]));
    json.add(rec("par_do").field("per_fork_ns", v[kParDoNs]));
    json.add(rec("forkjoin_tree")
                 .field("leaves", tree_leaves)
                 .field("median_ms", v[kTreeMs]));
    json.add(rec("parallel_for_tasks").field("tasks", v[kPforTasks]));
    json.add(rec("parallel_for_compute")
                 .field("iters", kComputeIters)
                 .field("seq_ms", v[kComputeSeqMs])
                 .field("pooled_ms", v[kComputePooledMs])
                 .field("speedup_x", compute_speedup(v)));
    json.add(rec("lis_ranks")
                 .field("n", n)
                 .field("median_ms", v[kLisMs])
                 .field("speedup_vs_t1",
                        lis_t1 > 0 && v[kLisMs] > 0 ? lis_t1 / v[kLisMs] : -1));
    json.add(rec("wlis")
                 .field("n", nw)
                 .field("median_ms", v[kWlisMs])
                 .field("speedup_vs_t1",
                        wlis_t1 > 0 && v[kWlisMs] > 0 ? wlis_t1 / v[kWlisMs]
                                                      : -1));
  }

  const Row& top = rows.back();
  std::printf("\nparallel_for_compute: %.2fx sequential mode at %d threads\n",
              compute_speedup(top.v), top.threads);
  if (lis_t1 > 0 && top.v[kLisMs] > 0) {
    std::printf("lis_ranks scaling: %.2fx at %d threads vs 1 thread%s\n",
                lis_t1 / top.v[kLisMs], top.threads,
                hw < 4 ? " (host has < 4 hardware threads; see EXPERIMENTS.md)"
                       : "");
  }
  return 0;
}
