// Round-granularity and LIS-plan sweep over a k range at fixed n, on the
// line pattern, every series warm and interleaved rep by rep:
//  - the tournament tree (lis_ranks_into) on the pool and on one thread
//    (set_sequential_mode). Pooled ÷ one-thread per k is what kRoundGrain
//    (lis/tournament_tree.hpp) is set from;
//  - patience sorting, the new kernel (seq_patience_ranks_into) and Seq-BS
//    (seq_bs_ranks, the std::lower_bound oracle);
//  - Solver::solve_lis, which picks patience or the pool per input. The
//    crossover between the pool and patience, read as a first-frontier
//    size, is what kPatienceFrontier (lis/lis.hpp) is set from.
// Each row also times the plan's first-frontier scan with its early exit at
// kPatienceFrontier. See EXPERIMENTS.md, "Round-granularity methodology"
// and "Plan methodology".
//
// Flags: --n (default 2^20), --klist (target k values, comma-separated),
// --reps (default 7), --seed, --out FILE (JSON records). The pool size
// comes from PARLIS_NUM_THREADS.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <span>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/api/solver.hpp"
#include "parlis/lis/lis.hpp"
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

enum Series { kPooled, kOneThread, kPatience, kSeqBs, kSolver, kScan, kCount };

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int64_t n = flags.get("n", int64_t{1} << 20);
  const int reps = static_cast<int>(flags.get("reps", 7));
  const uint64_t seed = static_cast<uint64_t>(flags.get("seed", 1));
  const std::vector<int> klist = parse_int_list(flags.get_str(
      "klist",
      "16,32,48,64,96,128,192,256,384,512,1024,2048,4096,8192,16384,32768,"
      "65536,131072"));
  std::printf("LIS plan sweep: n=%lld, workers=%d, kRoundGrain=%lld, "
              "kPatienceFrontier=%lld, reps=%d (interleaved medians)\n",
              static_cast<long long>(n), num_workers(),
              static_cast<long long>(kRoundGrain),
              static_cast<long long>(kPatienceFrontier), reps);
  std::printf("%7s %7s %7s %9s %9s %9s %9s %9s %8s %7s %9s %8s %8s\n", "k",
              "n/k", "1st_fr", "pool_ms", "one_ms", "pat_ms", "seqbs_ms",
              "solver", "path", "scan", "slv/best", "pool/one", "spawns");

  BenchJson json(flags.get_str("out", ""));
  for (int target_k : klist) {
    const std::vector<int64_t> a = line_pattern(n, target_k, seed + target_k);
    const std::span<const int64_t> as(a);
    const std::vector<int32_t> want = seq_bs_ranks(a);
    const int64_t first_frontier =
        first_frontier_size(as, std::numeric_limits<int64_t>::max());
    const bool pool_path =
        first_frontier >= kPatienceFrontier && num_workers() > 1;

    Solver solver;
    LisResult solver_out, tour_out, pat_out;
    TournamentStorage<int64_t> storage;
    std::vector<int64_t> tails;
    // Warm every workspace, and check each answer once against Seq-BS.
    solver.solve_lis(as, solver_out);
    lis_ranks_into<int64_t>(as, tour_out, storage);
    seq_patience_ranks_into<int64_t>(as, pat_out, tails);
    if (solver_out.rank != want || tour_out.rank != want ||
        pat_out.rank != want) {
      std::fprintf(stderr, "k=%d: an answer differs from seq_bs_ranks\n",
                   target_k);
      return 1;
    }
    const int32_t k = solver_out.k;

    auto tournament = [&] { lis_ranks_into<int64_t>(as, tour_out, storage); };
    std::vector<double> ms[kCount];
    uint64_t spawns = 0;
    volatile int64_t sink = 0;
    // Two unrecorded rounds first: the pool's workers and the caches settle.
    for (int r = -2; r < reps; r++) {
      // Rotate the order so no series always runs right after another.
      for (int s = 0; s < kCount; s++) {
        const int series = (r + 2 + s) % kCount;
        double t = 0;
        switch (series) {
          case kPooled: {
            const uint64_t before = scheduler_stats().spawns;
            t = time_ms(tournament);
            if (r >= 0) spawns += scheduler_stats().spawns - before;
            break;
          }
          case kOneThread: {
            const bool prev = set_sequential_mode(true);
            t = time_ms(tournament);
            set_sequential_mode(prev);
            break;
          }
          case kPatience:
            t = time_ms(
                [&] { seq_patience_ranks_into<int64_t>(as, pat_out, tails); });
            break;
          case kSeqBs:
            t = time_ms([&] { sink = sink + seq_bs_ranks(a)[0]; });
            break;
          case kSolver:
            t = time_ms([&] { solver.solve_lis(as, solver_out); });
            break;
          default:
            t = time_ms([&] {
              sink = sink + first_frontier_size(as, kPatienceFrontier);
            });
        }
        if (r >= 0) ms[series].push_back(t);
      }
    }
    double med[kCount];
    for (int s = 0; s < kCount; s++) med[s] = median(ms[s]);
    const double best = std::min(med[kOneThread], med[kPatience]);
    const double spawns_per_solve = static_cast<double>(spawns) / reps;
    std::printf(
        "%7d %7.0f %7lld %9.2f %9.2f %9.2f %9.2f %9.2f %8s %7.3f %9.2f %8.2f "
        "%8.0f\n",
        k, static_cast<double>(n) / k, static_cast<long long>(first_frontier),
        med[kPooled], med[kOneThread], med[kPatience], med[kSeqBs],
        med[kSolver], pool_path ? "pool" : "patience", med[kScan],
        med[kSolver] / best, med[kPooled] / med[kOneThread],
        spawns_per_solve);
    std::fflush(stdout);
    json.add(JsonRecord()
                 .field("bench", "micro_round_grain")
                 .field("op", "solve_lis")
                 .field("pattern", "line")
                 .field("n", n)
                 .field("k", static_cast<int64_t>(k))
                 .field("first_frontier", first_frontier)
                 .field("round_grain", kRoundGrain)
                 .field("patience_frontier", kPatienceFrontier)
                 .field("threads", num_workers())
                 .field("tournament_pooled_ms", med[kPooled])
                 .field("tournament_one_thread_ms", med[kOneThread])
                 .field("patience_ms", med[kPatience])
                 .field("seq_bs_ms", med[kSeqBs])
                 .field("solver_ms", med[kSolver])
                 .field("solver_path", pool_path ? "pool" : "patience")
                 .field("first_frontier_scan_ms", med[kScan])
                 .field("solver_over_best_one_thread", med[kSolver] / best)
                 .field("pooled_over_one_thread",
                        med[kPooled] / med[kOneThread])
                 .field("spawns_per_solve", spawns_per_solve));
  }
  return 0;
}
