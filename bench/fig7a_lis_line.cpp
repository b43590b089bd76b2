// Figure 7(a): LIS running time vs LIS length k, *line pattern*.
// Series: Seq-BS, SWGS, Ours (seq), Ours.   Paper setup: n = 10^8, 96 cores.
// Seq-BS times the library's patience kernel (seq_patience_ranks_into:
// AVX-512 register tiers up to 128 tails, then the branch-free memory
// loop), checked against seq_bs_ranks, the paper's std::lower_bound
// "highly-optimized" baseline.
// Default here: n = 10^6 (scaled for the reproduction machine; see
// EXPERIMENTS.md). Flags: --n, --maxk, --swgsmaxk, --threads, --reps, --out FILE (JSON records).
#include <cstdio>
#include <span>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/swgs/swgs.hpp"
#include "parlis/util/generators.hpp"

using namespace parlis;
using namespace parlis::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int64_t n = flags.get("n", 1000000);
  int64_t maxk = flags.get("maxk", 100000);
  int64_t swgs_maxk = flags.get("swgsmaxk", 100);
  int reps = static_cast<int>(flags.get("reps", 1));
  if (flags.has("threads")) set_num_workers(static_cast<int>(flags.get("threads", 0)));
  std::printf("fig7a: LIS, line pattern, n=%lld, threads=%d\n",
              static_cast<long long>(n), num_workers());

  BenchJson json(flags.get_str("out", ""));
  SeriesTable table({"seq_bs", "swgs", "ours_seq", "ours"});
  for (int64_t target_k : k_sweep(maxk)) {
    auto a = line_pattern(n, target_k, 7 + target_k);
    volatile int64_t sink = 0;
    // Seq-BS is the patience kernel, warm; its answer is checked against
    // the std::lower_bound oracle first.
    const std::span<const int64_t> as(a);
    LisResult bs;
    std::vector<int64_t> tails;
    seq_patience_ranks_into<int64_t>(as, bs, tails);
    if (bs.rank != seq_bs_ranks(a)) {
      std::fprintf(stderr, "Seq-BS kernel differs from seq_bs_ranks\n");
      return 1;
    }
    double t_bs = time_median_of(
        reps, [&] { seq_patience_ranks_into<int64_t>(as, bs, tails); });
    const int64_t k = bs.k;  // realized LIS length
    double t_swgs = -1;
    if (target_k <= swgs_maxk) {
      t_swgs = time_median_of(reps, [&] { sink = sink + swgs_lis_ranks(a).k; });
    }
    double t_seq = timed_sequential(reps, [&] { sink = sink + lis_ranks(a).k; });
    double t_par = time_median_of(reps, [&] { sink = sink + lis_ranks(a).k; });
    table.add_row(k, {t_bs, t_swgs, t_seq, t_par});
    const char* series[] = {"seq_bs", "swgs", "ours_seq", "ours"};
    double times[] = {t_bs, t_swgs, t_seq, t_par};
    for (int si = 0; si < 4; si++) {
      if (times[si] < 0) continue;
      json.add(JsonRecord()
                   .field("bench", "fig7a")
                   .field("op", "lis_ranks")
                   .field("series", series[si])
                   .field("pattern", "line")
                   .field("n", n)
                   .field("k", k)
                   .field("threads", si == 0 || si == 2 ? 1 : num_workers())
                   .field("median_ms", times[si] * 1e3));
    }
    std::printf("  k=%lld done\n", static_cast<long long>(k));
    std::fflush(stdout);
  }
  table.print("Fig 7(a): LIS, line pattern — seconds vs realized k");
  return 0;
}
