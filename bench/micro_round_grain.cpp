// Round-granularity and LIS-plan sweep over a k range at fixed n, on the
// line pattern, every series warm and interleaved rep by rep:
//  - the tournament tree (lis_ranks_into) on the pool and on one thread
//    (set_sequential_mode). Pooled ÷ one-thread per k is what kRoundGrain
//    (lis/tournament_tree.hpp) is set from;
//  - the patience kernel (seq_patience_ranks_into) with the SIMD toggle on
//    (regs: the register tiers up to 128 tails, then the window that
//    slides up with the top of the tails, lis/patience.hpp) and off (twin:
//    their scalar twin, the memory loop), the SIMD rule's paired row at
//    the kernel's call site;
//  - Seq-BS (seq_bs_ranks, the paper's std::lower_bound baseline);
//  - Solver::solve_lis, which runs the kernel, as speculative chunks on the
//    pool from kSpeculateMinN elements up (api/solver.hpp). Solver ÷
//    min(pool, regs) is the plan's check (EXPERIMENTS.md, "Register tiers"
//    and "Speculative chunked patience").
// Exits 1 if any series' ranks differ from seq_bs_ranks. See EXPERIMENTS.md,
// "Round-granularity methodology", "Plan methodology" and "Register tiers".
//
// Flags: --n (default 2^20), --klist (target k values, comma-separated),
// --reps (default 7), --seed, --out FILE (JSON records). The pool size
// comes from PARLIS_NUM_THREADS.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/api/solver.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/generators.hpp"
#include "parlis/util/simd.hpp"

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

enum Series { kPooled, kOneThread, kRegs, kTwin, kSeqBs, kSolver, kCount };

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
              "simd=%s, reps=%d (interleaved medians)\n",
              static_cast<long long>(n), num_workers(),
              static_cast<long long>(kRoundGrain), simd::backend_name(), reps);
  std::printf("%7s %7s %9s %9s %9s %9s %9s %9s %9s %8s %8s\n", "k", "n/k",
              "pool_ms", "one_ms", "regs_ms", "twin_ms", "seqbs_ms", "solver",
              "twin/regs", "slv/best", "spawns");

  BenchJson json(flags.get_str("out", ""));
  for (int target_k : klist) {
    const std::vector<int64_t> a = line_pattern(n, target_k, seed + target_k);
    const std::span<const int64_t> as(a);
    const std::vector<int32_t> want = seq_bs_ranks(a);

    Solver solver;
    LisResult solver_out, tour_out, regs_out, twin_out;
    TournamentStorage<int64_t> storage;
    std::vector<int64_t> tails;
    auto patience = [&](bool vector, LisResult& out) {
      const bool prev = simd::set_enabled(vector);
      seq_patience_ranks_into<int64_t>(as, out, tails);
      simd::set_enabled(prev);
    };
    // Warm every workspace, and check each answer once against Seq-BS.
    solver.solve_lis(as, solver_out);
    lis_ranks_into<int64_t>(as, tour_out, storage);
    patience(true, regs_out);
    patience(false, twin_out);
    if (solver_out.rank != want || tour_out.rank != want ||
        regs_out.rank != want || twin_out.rank != want) {
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
          case kRegs:
            t = time_ms([&] { patience(true, regs_out); });
            break;
          case kTwin:
            t = time_ms([&] { patience(false, twin_out); });
            break;
          case kSeqBs:
            t = time_ms([&] { sink = sink + seq_bs_ranks(a)[0]; });
            break;
          default:
            t = time_ms([&] { solver.solve_lis(as, solver_out); });
        }
        if (r >= 0) ms[series].push_back(t);
      }
    }
    double med[kCount];
    for (int s = 0; s < kCount; s++) med[s] = median(ms[s]);
    const double best = std::min(med[kPooled], med[kRegs]);
    const double spawns_per_solve = static_cast<double>(spawns) / reps;
    std::printf(
        "%7d %7.0f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %8.2f %8.0f\n",
        k, static_cast<double>(n) / k, med[kPooled], med[kOneThread],
        med[kRegs], med[kTwin], med[kSeqBs], med[kSolver],
        med[kTwin] / med[kRegs], med[kSolver] / best, spawns_per_solve);
    std::fflush(stdout);
    json.add(JsonRecord()
                 .field("bench", "micro_round_grain")
                 .field("op", "solve_lis")
                 .field("pattern", "line")
                 .field("n", n)
                 .field("k", static_cast<int64_t>(k))
                 .field("round_grain", kRoundGrain)
                 .field("threads", num_workers())
                 .field("tournament_pooled_ms", med[kPooled])
                 .field("tournament_one_thread_ms", med[kOneThread])
                 .field("regs_ms", med[kRegs])
                 .field("twin_ms", med[kTwin])
                 .field("seq_bs_ms", med[kSeqBs])
                 .field("solver_ms", med[kSolver])
                 .field("twin_over_regs", med[kTwin] / med[kRegs])
                 .field("solver_over_best", med[kSolver] / best)
                 .field("pooled_over_one_thread",
                        med[kPooled] / med[kOneThread])
                 .field("spawns_per_solve", spawns_per_solve));
  }
  return 0;
}
