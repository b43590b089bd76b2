// Figure 7(c): LIS running time vs k, *range pattern* (A_i uniform in
// [1, k']), paper setup n = 10^9 with k' in [1, 6*10^4]; scaled default
// n = 4*10^6. Series: Seq-BS (the library's patience kernel,
// seq_patience_ranks_into: AVX-512 register tiers up to 128 tails, then a
// window over the top 128 tails that searches the tails below it; the
// branch-free memory loop with the SIMD toggle off; checked against
// seq_bs_ranks, the paper's
// std::lower_bound baseline), Ours (seq), Ours.
// Flags: --n, --maxk, --threads, --reps, --out FILE (JSON records).
#include <cstdio>
#include <span>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/util/generators.hpp"

using namespace parlis;
using namespace parlis::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int64_t n = flags.get("n", 4000000);
  int64_t maxk = flags.get("maxk", 60000);
  int reps = static_cast<int>(flags.get("reps", 1));
  if (flags.has("threads")) set_num_workers(static_cast<int>(flags.get("threads", 0)));
  std::printf("fig7c: LIS, range pattern, n=%lld, threads=%d\n",
              static_cast<long long>(n), num_workers());

  BenchJson json(flags.get_str("out", ""));
  SeriesTable table({"seq_bs", "ours_seq", "ours"});
  for (int64_t kprime : k_sweep(maxk)) {
    auto a = range_pattern(n, kprime, 13 + kprime);
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
    double t_seq = timed_sequential(reps, [&] { sink = sink + lis_ranks(a).k; });
    double t_par = time_median_of(reps, [&] { sink = sink + lis_ranks(a).k; });
    table.add_row(k, {t_bs, t_seq, t_par});
    const char* series[] = {"seq_bs", "ours_seq", "ours"};
    double times[] = {t_bs, t_seq, t_par};
    for (int si = 0; si < 3; si++) {
      json.add(JsonRecord()
                   .field("bench", "fig7c")
                   .field("op", "lis_ranks")
                   .field("series", series[si])
                   .field("pattern", "range")
                   .field("n", n)
                   .field("k", k)
                   .field("threads", si == 2 ? num_workers() : 1)
                   .field("median_ms", times[si] * 1e3));
    }
    std::printf("  k'=%lld realized k=%lld done\n",
                static_cast<long long>(kprime), static_cast<long long>(k));
    std::fflush(stdout);
  }
  table.print("Fig 7(c): LIS, range pattern — seconds vs realized k");
  return 0;
}
