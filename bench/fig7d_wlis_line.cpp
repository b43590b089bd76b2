// Figure 7(d): Weighted LIS running time vs k, line pattern, uniform
// weights. Series: Seq-AVL, SWGS, Ours-W (Alg. 2 + range tree). Paper
// setup: n = 10^8, k in [1, 3000]; scaled default n = 2*10^5.
// Extra columns: Ours-W with the Range-vEB structure (Sec. 4.2); `solver`,
// a warm Solver::solve_wlis (rank space + the Fenwick pass, which the plan
// runs as a wavefront of index-chunk x rank-block cells on the pool where
// that pays, and as one cell on the calling thread otherwise and under
// --threads 1) on a value-cache miss: a second input of the same shape
// alternates with the first, as in a serving loop over fresh series; and
// `solver_hit`, the same values solved again (a value-cache hit: the pass
// alone).
// Flags: --n, --maxk, --klist (target ks, replacing the maxk sweep),
// --swgsmaxk, --veb (0 skips Range-vEB), --threads, --reps, --out FILE
// (JSON records).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/api/solver.hpp"
#include "parlis/swgs/swgs.hpp"
#include "parlis/util/generators.hpp"
#include "parlis/wlis/seq_avl.hpp"
#include "parlis/wlis/wlis.hpp"

using namespace parlis;
using namespace parlis::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int64_t n = flags.get("n", 200000);
  int64_t maxk = flags.get("maxk", 3000);
  int64_t swgs_maxk = flags.get("swgsmaxk", 3000);
  const bool run_veb = flags.get("veb", 1) != 0;
  int reps = static_cast<int>(flags.get("reps", 1));
  if (flags.has("threads")) set_num_workers(static_cast<int>(flags.get("threads", 0)));
  std::printf("fig7d: WLIS, line pattern, n=%lld, threads=%d\n",
              static_cast<long long>(n), num_workers());
  std::vector<int64_t> targets = k_sweep(maxk, 5.5);
  if (flags.has("klist")) {
    targets.clear();
    for (int k : parse_int_list(flags.get_str("klist", ""))) targets.push_back(k);
  }

  BenchJson json(flags.get_str("out", ""));
  const char* series[] = {"seq_avl",    "swgs",   "ours_w",
                          "ours_w_veb", "solver", "solver_hit"};
  SeriesTable table(std::vector<std::string>(series, series + 6));
  auto w = uniform_weights(n, 99);
  Solver solver;
  WlisResult out;
  for (int64_t target_k : targets) {
    auto a = line_pattern(n, target_k, 17 + target_k);
    const auto a2 = line_pattern(n, target_k, 18 + target_k);
    volatile int64_t sink = 0;
    double t_avl = time_median_of(reps, [&] { sink = sink + seq_avl_wlis(a, w).back(); });
    double t_swgs = -1;
    if (target_k <= swgs_maxk) {
      t_swgs = time_median_of(reps, [&] { sink = sink + swgs_wlis(a, w).best; });
    }
    WlisResult probe = wlis(a, w, WlisStructure::kRangeTree);
    int64_t k = probe.k;
    double t_tree = time_median_of(
        reps, [&] { sink = sink + wlis(a, w, WlisStructure::kRangeTree).best; });
    double t_veb = -1;
    if (run_veb) {
      t_veb = time_median_of(
          reps, [&] { sink = sink + wlis(a, w, WlisStructure::kRangeVeb).best; });
    }
    const std::vector<int64_t>* alt[2] = {&a, &a2};
    int flip = 0;
    solver.solve_wlis(a2, w, out);  // warm buffers; the first timed call misses
    double t_solver = time_median_of(reps, [&] {
      solver.solve_wlis(*alt[flip++ & 1], w, out);
      sink = sink + out.best;
    });
    solver.solve_wlis(a, w, out);
    double t_hit = time_median_of(reps, [&] {
      solver.solve_wlis(a, w, out);
      sink = sink + out.best;
    });
    if (out.dp != probe.dp || out.best != probe.best || out.k != probe.k) {
      std::printf("MISMATCH: Solver::solve_wlis differs from wlis at k=%lld\n",
                  static_cast<long long>(k));
      return 1;
    }
    double times[] = {t_avl, t_swgs, t_tree, t_veb, t_solver, t_hit};
    table.add_row(k, std::vector<double>(times, times + 6));
    for (int si = 0; si < 6; si++) {
      if (times[si] < 0) continue;
      json.add(JsonRecord()
                   .field("bench", "fig7d")
                   .field("op", "wlis")
                   .field("series", series[si])
                   .field("pattern", "line")
                   .field("n", n)
                   .field("k", k)
                   .field("threads", si == 0 ? 1 : num_workers())
                   .field("median_ms", times[si] * 1e3));
    }
    std::printf("  k=%lld done\n", static_cast<long long>(k));
    std::fflush(stdout);
  }
  table.print("Fig 7(d): WLIS, line pattern — seconds vs realized k");
  return 0;
}
