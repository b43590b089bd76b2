// Round-granularity sweep: warm Solver::solve_lis on the pool, the same
// solve in sequential mode (one thread), and Seq-BS, interleaved rep by rep
// over a k sweep at fixed n. The pooled ÷ one-thread ratio per k is what
// kRoundGrain (lis/tournament_tree.hpp) is set from: with too small a grain
// the pool loses to one thread at mid-size frontiers, with too large a
// grain it gives up speedup on bulk ones. See EXPERIMENTS.md,
// "Round-granularity methodology".
//
// Flags: --n (default 2^20), --klist (target k values, comma-separated),
// --reps (default 7), --seed, --out FILE (JSON records).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/api/solver.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/generators.hpp"

using namespace parlis;
using namespace parlis::bench;

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

template <typename F>
double time_ms(const F& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int64_t n = flags.get("n", int64_t{1} << 20);
  const int reps = static_cast<int>(flags.get("reps", 7));
  const uint64_t seed = static_cast<uint64_t>(flags.get("seed", 1));
  const std::vector<int> klist = parse_int_list(flags.get_str(
      "klist", "16,64,256,1024,2048,4096,8192,16384,32768,65536,131072"));
  std::printf("round-grain sweep: n=%lld, workers=%d, kRoundGrain=%lld, "
              "reps=%d (interleaved medians)\n",
              static_cast<long long>(n), num_workers(),
              static_cast<long long>(kRoundGrain), reps);
  std::printf("%8s %9s %10s %10s %10s %9s %9s %11s\n", "k", "frontier",
              "pooled_ms", "one_thr_ms", "seq_bs_ms", "pool/one", "pool/bs",
              "spawns/slv");

  BenchJson json(flags.get_str("out", ""));
  for (int target_k : klist) {
    const std::vector<int64_t> a = line_pattern(n, target_k, seed + target_k);
    const std::span<const int64_t> as(a);
    Solver solver;
    LisResult out;
    solver.solve_lis(as, out);  // warm the workspaces
    const double frontier = static_cast<double>(n) / out.k;
    std::vector<double> pooled, one_thread, seq_bs;
    uint64_t spawns = 0;
    volatile int64_t sink = 0;
    // Two unrecorded rounds first: the pool's workers and the caches settle.
    for (int r = -2; r < reps; r++) {
      // Rotate the order so no series always runs right after another.
      for (int s = 0; s < 3; s++) {
        switch ((r + 3 + s) % 3) {
          case 0: {
            const uint64_t before = scheduler_stats().spawns;
            const double ms = time_ms([&] { solver.solve_lis(as, out); });
            if (r < 0) break;
            pooled.push_back(ms);
            spawns += scheduler_stats().spawns - before;
            break;
          }
          case 1: {
            const bool prev = set_sequential_mode(true);
            const double ms = time_ms([&] { solver.solve_lis(as, out); });
            set_sequential_mode(prev);
            if (r >= 0) one_thread.push_back(ms);
            break;
          }
          default: {
            const double ms =
                time_ms([&] { sink = sink + seq_bs_ranks(a)[0]; });
            if (r >= 0) seq_bs.push_back(ms);
          }
        }
      }
    }
    const double p = median(pooled), o = median(one_thread), b = median(seq_bs);
    const double spawns_per_solve = static_cast<double>(spawns) / reps;
    std::printf("%8d %9.1f %10.3f %10.3f %10.3f %9.2f %9.2f %11.1f\n", out.k,
                frontier, p, o, b, p / o, p / b, spawns_per_solve);
    std::fflush(stdout);
    json.add(JsonRecord()
                 .field("bench", "micro_round_grain")
                 .field("op", "solve_lis")
                 .field("pattern", "line")
                 .field("n", n)
                 .field("k", static_cast<int64_t>(out.k))
                 .field("round_grain", kRoundGrain)
                 .field("threads", num_workers())
                 .field("pooled_ms", p)
                 .field("one_thread_ms", o)
                 .field("seq_bs_ms", b)
                 .field("pooled_over_one_thread", p / o)
                 .field("spawns_per_solve", spawns_per_solve));
  }
  return 0;
}
