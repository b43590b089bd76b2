// Weighted-LIS microbenchmark of Alg. 2 and the SWGS dominance oracle:
//
//   wlis         — Alg. 2 with the range tree (Sec. 4.1): arena-backed flat
//                  levels, fractional-cascading bridge tables, merge-computed
//                  update rank tables, truncated bottom levels with direct
//                  leaf scans and an allocation-free round loop. Checked
//                  against seq_avl_wlis (dp) and seq_bs_length (k).
//   wlis_veb     — Alg. 2 with the Range-vEB (Sec. 4.2) on the word-block
//                  vEB trees, checked against the range tree on its prefix.
//   oracle_build — SWGS dominance-oracle construction (arena-backed flat
//                  levels, no root level, placement-init Fenwick slots).
//                  Checked after erases: at each probed i, count_dominators(i)
//                  must equal a brute-force count of the live j < i with
//                  a[j] < a[i].
//
// Each row is the median of --reps calls after a warm-up (time_median_of).
// Defaults: every row over n = 10^6 uniform-random keys with uniform
// [1,1000] weights. Whether a change made a row slower is bench_compare's
// verdict against the committed rows (README, "Benchmarks").
//
// Flags: --n, --nveb, --norcl, --reps, --threads, --out FILE (BENCH_*.json
// records). Exits 1 if any check fails.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/swgs/dominance_oracle.hpp"
#include "parlis/wlis/seq_avl.hpp"
#include "parlis/wlis/wlis.hpp"

using namespace parlis;
using namespace parlis::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int64_t n = flags.get("n", 1000000);
  // The veb/oracle legs draw prefixes of the main workload, so they are
  // capped at n (keeps per-op math honest when --n shrinks a smoke run).
  int64_t nveb = std::min(n, flags.get("nveb", 1000000));
  int64_t norcl = std::min(n, flags.get("norcl", n));
  int reps = static_cast<int>(flags.get("reps", 5));
  if (flags.has("threads")) {
    set_num_workers(static_cast<int>(flags.get("threads", 0)));
  }
  BenchJson json(flags.get_str("out", ""));
  std::printf("micro_wlis: n=%lld, nveb=%lld, norcl=%lld, reps=%d, threads=%d\n",
              static_cast<long long>(n), static_cast<long long>(nveb),
              static_cast<long long>(norcl), reps, num_workers());

  // Workload: uniform-random values, uniform [1, 1000] weights.
  std::vector<int64_t> a(n), w(n);
  parallel_for(0, n, [&](int64_t i) {
    a[i] = static_cast<int64_t>(hash64(42, i) >> 1);
    w[i] = 1 + static_cast<int64_t>(uniform(43, i, 1000));
  });
  std::vector<int64_t> av(a.begin(), a.begin() + std::min(n, nveb));
  std::vector<int64_t> wv(w.begin(), w.begin() + std::min(n, nveb));
  std::vector<int64_t> ao(a.begin(), a.begin() + std::min(n, norcl));

  std::printf("\n%-14s  %14s\n", "op", "median(ms)");
  auto report = [&](const char* op, const char* variant, int64_t size,
                    double ms) {
    std::printf("%-14s  %14.1f\n", op, ms);
    json.add(JsonRecord()
                 .field("bench", "micro_wlis")
                 .field("op", op)
                 .field("variant", variant)
                 .field("n", size)
                 .field("threads", num_workers())
                 .field("median_ms", ms)
                 .field("per_op_ns", size > 0 ? ms * 1e6 / size : 0.0));
  };

  // ----------------------------------------------------------- wlis (tree)
  WlisResult tree;
  report("wlis", "current", n,
         time_median_of(reps, [&] {
           tree = wlis(a, w, WlisStructure::kRangeTree);
         }) * 1e3);

  // ------------------------------------------------------------- wlis_veb
  WlisResult word_veb;
  report("wlis_veb", "word", nveb,
         time_median_of(reps, [&] {
           word_veb = wlis(av, wv, WlisStructure::kRangeVeb);
         }) * 1e3);

  // --------------------------------------------------------- oracle_build
  volatile int64_t sink = 0;
  const int64_t last = static_cast<int64_t>(ao.size()) - 1;
  report("oracle_build", "current", norcl,
         time_median_of(reps, [&] {
           DominanceOracle o(ao);
           sink = sink + o.count_dominators(last);
         }) * 1e3);

  // Checks: the range tree against Seq-AVL's dp and Seq-BS's length, the
  // Range-vEB against the range tree on its prefix, and the oracle against
  // a brute-force count of live dominators after deletions.
  const std::vector<int64_t> want_dp = seq_avl_wlis(a, w);
  const int64_t want_best =
      want_dp.empty() ? 0 : *std::max_element(want_dp.begin(), want_dp.end());
  const WlisResult veb_ref =
      nveb == n ? tree : wlis(av, wv, WlisStructure::kRangeTree);
  bool ok = tree.dp == want_dp && tree.best == want_best &&
            tree.k == seq_bs_length(a) && word_veb.dp == veb_ref.dp &&
            word_veb.best == veb_ref.best && word_veb.k == veb_ref.k;
  {
    DominanceOracle o(ao);
    const int64_t no = static_cast<int64_t>(ao.size());
    std::vector<char> live(no, 1);
    for (int64_t i = 1; i < no; i = i * 2 + 1) {
      o.erase(i / 2);
      live[i / 2] = 0;
      int64_t want = 0;
      for (int64_t j = 0; j < i; j++) want += live[j] && ao[j] < ao[i];
      ok = ok && o.count_dominators(i) == want;
    }
  }
  std::printf("\ncross-check (oracles agree): %s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
