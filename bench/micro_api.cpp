// Session-API microbenchmark: one-shot free functions vs a warm
// parlis::Solver, plus solve_many batch throughput — the acceptance
// harness of the span-based Solver redesign.
//
//   lis          — lis_ranks(a) (one-shot) vs Solver::solve_lis into reused
//                  buffers (warm). Same algorithm; the delta is pure
//                  construction/allocation overhead.
//   wlis         — wlis(a, w) vs Solver::solve_wlis on a hot value
//                  sequence: repeated queries over the same values (the
//                  serving shape — one series, many weightings) hit the
//                  workspace's value-sequence cache, so the warm solve
//                  checks the values (size, then equality), skips the rank
//                  space, and runs only the sequential Fenwick pass; the
//                  one-shot call runs all of Alg. 2 (rank space, frontiers,
//                  range-tree build and rounds). Acceptance: the warm path
//                  is >= 20% faster at n = 1e5.
//   wlis_newvals — the same comparison with a DIFFERENT value sequence
//                  every call (cache misses by construction): the warm
//                  solve pays the rank space on reused buffers before the
//                  pass, so the committed JSON states both numbers. The
//                  values are 63-bit hashes, so the rank space is the
//                  pooled sort.
//   wlis_newvals_line — the same on line-pattern values (falling trend plus
//                  noise, target k = 100, span ~n^2/2500): small spans
//                  rank through rank_only_into's bitmap, on the pool from
//                  internal::kRankPoolMinN elements up.
//   wlis_double  — the generic-key pipeline: Solver::solve_wlis<double>
//                  (rank-space compression + the pass) vs the int64 warm
//                  path on the same cache-missing alternation.
//                  JSON variants int64_warm / double_warm; speedup_pct on
//                  the double row is the (usually near-zero) cost of the
//                  typed pipeline relative to int64.
//   solve_many   — a batch of small mixed LIS/WLIS queries: a loop of
//                  one-shot free functions vs one warm Solver::solve_many
//                  call (queries packed onto one task per worker).
//   wlis_pass    — the weighted pass alone: a warm Solver's value-cache-hit
//                  solve_wlis under set_sequential_mode(true) (the one-cell
//                  pass on the calling thread, "one_cell") and false (the
//                  plan: the wavefront on the pool where it pays, "plan"),
//                  paired per rep with the order alternating; the row's
//                  ratio is the median of the per-rep plan / one_cell
//                  ratios, and `path` says which schedule the plan ran.
//                  Shapes of the WlisWavefrontDifferential suite: the line
//                  pattern at k ~ 10, 60, 500, 3,500 and 25,000 (targets
//                  10, 100, 1000, 3500 and 25000), the range pattern
//                  at u = 1, 8 and 100, random 63-bit, sorted, reversed and
//                  all-equal values. Exits 1 if dp, best or k differ
//                  between the modes. Sizes from --passnlist.
//   rank_only    — ranks under both ties policies of line-pattern values
//                  whose span is 2n, 100n, exactly rank_only_max_words(n)
//                  words (128n) and one value past that, of uniform values
//                  one word below the cap, and of all-equal values:
//                  rank_space_into on the pool ("sort"), rank_only_into
//                  under set_thread_sequential(true) ("one_thread": the
//                  bitmap's phases on the calling thread, or the sort on
//                  it past the cap) and rank_only_into ("rank_only": the
//                  bitmap's plan, whose min/max pass runs on the pool from
//                  internal::kRankPoolMinN keys up and the rest there too
//                  on banded keys, or the pooled sort past the cap): per
//                  rep the sort, then the other two twice each, in ABBA or
//                  BAAB order. Each record's `path` names the path its leg
//                  ran: "caller" (the set, prefix and rank on the calling
//                  thread), "segments" (on the pool, by owned word
//                  segments) or "sort"; the row's ratio is the median of
//                  the per-rep rank_only / one_thread ratios. Exits 1 if
//                  any rank or n_distinct differs from rank_space_into's.
//                  Sizes from --ranknlist.
//
// Runs are interleaved (one-shot, warm, one-shot, ...) so machine drift
// cancels; medians are reported per query. Records carry host_hw_threads:
// on a single-core host the per-op medians are the signal, not wall-clock
// scaling (see EXPERIMENTS.md).
//
// Flags: --nlist 1000,100000,1000000, --ranknlist 65536,262144,1048576,
// --passnlist 65536,262144,1000000, --reps, --batchq, --batchn, --threads,
// --out FILE (BENCH_*.json records), --git-sha SHA (stamped on every
// record), --strict (exit 2 unless warm wlis @ n=1e5 clears 20%; advisory
// otherwise).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/api/solver.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/util/generators.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/wlis/wlis.hpp"

namespace {

using namespace parlis;
using namespace parlis::bench;

// Uniform values in [0, span), with the ends pinned to span - 1 and 0.
std::vector<int64_t> uniform_with_span(int64_t n, int64_t span, uint64_t seed) {
  std::vector<int64_t> a(n);
  parallel_for(0, n, [&](int64_t i) {
    a[i] = static_cast<int64_t>(uniform(seed, i, static_cast<uint64_t>(span)));
  });
  a[0] = span - 1;
  a[n - 1] = 0;
  return a;
}

// fn's wall time in ms.
template <typename F>
double ms_of(const F& fn) {
  Timer t;
  fn();
  return t.elapsed() * 1e3;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

const char* path_name(internal::BitmapPath p) {
  switch (p) {
    case internal::BitmapPath::kTooWide:
      return "sort";
    case internal::BitmapPath::kCaller:
      return "caller";
    case internal::BitmapPath::kSegments:
      return "segments";
  }
  return "?";
}

// The line pattern with an exact span: a falling trend from span - n down
// to 0 plus noise in [0, n), with the ends pinned to span - 1 and 0.
std::vector<int64_t> line_with_span(int64_t n, int64_t span, uint64_t seed) {
  std::vector<int64_t> a(n);
  const long double slope = static_cast<long double>(span - n) /
                            static_cast<long double>(std::max<int64_t>(1, n - 1));
  parallel_for(0, n, [&](int64_t i) {
    a[i] = static_cast<int64_t>(slope * static_cast<long double>(n - 1 - i)) +
           static_cast<int64_t>(uniform(seed, i, n));
  });
  a[0] = span - 1;
  a[n - 1] = 0;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::vector<int64_t> ns;
  for (int v : parse_int_list(flags.get_str("nlist", "1000,100000,1000000"))) {
    ns.push_back(v);
  }
  std::vector<int64_t> rank_ns;
  for (int v : parse_int_list(
           flags.get_str("ranknlist", "65536,262144,1048576"))) {
    rank_ns.push_back(v);
  }
  std::vector<int64_t> pass_ns;
  for (int v : parse_int_list(
           flags.get_str("passnlist", "65536,262144,1000000"))) {
    pass_ns.push_back(v);
  }
  int reps = static_cast<int>(flags.get("reps", 7));
  int64_t batchq = flags.get("batchq", 2048);
  int64_t batchn = flags.get("batchn", 512);
  if (flags.has("threads")) {
    set_num_workers(static_cast<int>(flags.get("threads", 0)));
  }
  BenchJson json(flags.get_str("out", ""));
  const int host_hw =
      static_cast<int>(std::thread::hardware_concurrency());
  std::printf("micro_api: nlist=");
  for (size_t i = 0; i < ns.size(); i++) {
    std::printf("%s%lld", i ? "," : "", static_cast<long long>(ns[i]));
  }
  std::printf(", reps=%d, batch=%lldx%lld, threads=%d, host_hw_threads=%d\n\n",
              reps, static_cast<long long>(batchq),
              static_cast<long long>(batchn), num_workers(), host_hw);

  auto emit = [&](const char* op, const char* variant, int64_t n, double ms,
                  double speedup_pct, bool with_speedup) {
    JsonRecord rec;
    rec.field("bench", "micro_api")
        .field("op", op)
        .field("variant", variant)
        .field("n", n)
        .field("threads", num_workers())
        .field("median_ms", ms);
    if (with_speedup) rec.field("speedup_pct", speedup_pct);
    json.add(rec);
  };

  std::printf("%-12s %10s  %14s  %14s  %9s\n", "op", "n", "oneshot med(ms)",
              "warm med(ms)", "speedup");
  auto report = [&](const char* op, int64_t n, const PairMedians& mm) {
    std::printf("%-12s %10lld  %14.3f  %14.3f  %8.1f%%\n", op,
                static_cast<long long>(n), mm.a_ms(), mm.b_ms(),
                mm.speedup_pct());
    emit(op, "oneshot", n, mm.a_ms(), 0, false);
    emit(op, "warm", n, mm.b_ms(), mm.speedup_pct(), true);
  };

  double wlis_1e5_speedup = -1;
  Solver solver;
  volatile int64_t sink = 0;
  for (int64_t n : ns) {
    std::vector<int64_t> a(n), w(n);
    parallel_for(0, n, [&](int64_t i) {
      a[i] = static_cast<int64_t>(hash64(42, i) >> 1);
      w[i] = 1 + static_cast<int64_t>(uniform(43, i, 1000));
    });
    int r = n >= 1000000 ? std::max(3, reps - 4) : reps;

    LisResult lis_out;
    solver.solve_lis(a, lis_out);  // warm the solver for this size
    PairMedians m_lis = measure_pair(
        r, [&] { sink = sink + lis_ranks(a).k; },
        [&] {
          solver.solve_lis(a, lis_out);
          sink = sink + lis_out.k;
        });
    report("lis", n, m_lis);

    WlisResult wlis_out;
    solver.solve_wlis(a, w, wlis_out);
    PairMedians m_wlis = measure_pair(
        r, [&] { sink = sink + wlis(a, w).best; },
        [&] {
          solver.solve_wlis(a, w, wlis_out);
          sink = sink + wlis_out.best;
        });
    report("wlis", n, m_wlis);
    if (n == 100000) wlis_1e5_speedup = m_wlis.speedup_pct();

    // Fresh values per call: regenerate in place between reps (outside no
    // timer — flip through two precomputed sequences) so every warm call
    // misses the value cache and pays the full rebuild on reused buffers.
    std::vector<int64_t> a2(n);
    parallel_for(0, n, [&](int64_t i) {
      a2[i] = static_cast<int64_t>(hash64(44, i) >> 1);
    });
    const std::vector<int64_t>* alt[2] = {&a, &a2};
    // The warm leg starts on a2: the preceding measurement left `a` cached
    // in the solver, and every rep must miss the value cache.
    int flip_oneshot = 0, flip_warm = 1;
    PairMedians m_nv = measure_pair(
        r,
        [&] { sink = sink + wlis(*alt[flip_oneshot++ & 1], w).best; },
        [&] {
          solver.solve_wlis(*alt[flip_warm++ & 1], w, wlis_out);
          sink = sink + wlis_out.best;
        });
    report("wlis_newvals", n, m_nv);

    // The same alternation on line-pattern values, which the warm solve
    // ranks through the bitmap.
    const std::vector<int64_t> l1 = line_pattern(n, 100, 45);
    const std::vector<int64_t> l2 = line_pattern(n, 100, 46);
    const std::vector<int64_t>* lalt[2] = {&l1, &l2};
    solver.solve_wlis(l1, w, wlis_out);  // sizes the bitmap
    int flip_line_oneshot = 0, flip_line_warm = 1;
    PairMedians m_line = measure_pair(
        r,
        [&] { sink = sink + wlis(*lalt[flip_line_oneshot++ & 1], w).best; },
        [&] {
          solver.solve_wlis(*lalt[flip_line_warm++ & 1], w, wlis_out);
          sink = sink + wlis_out.best;
        });
    report("wlis_newvals_line", n, m_line);
    solver.solve_wlis(l1, w, wlis_out);
    if (wlis_out.best != wlis(l1, w).best) {
      std::printf("MISMATCH (line pattern) at n=%lld\n",
                  static_cast<long long>(n));
      return 1;
    }

    // Generic-key leg: double keys through the typed overload, against the
    // int64 warm path on an identical cache-missing alternation. Both legs
    // run the full pipeline per call; the delta isolates what the rank
    // image of doubles costs over the int64 value-order sort. Keys are
    // masked to 52 bits so the int64 -> double map is exact (53 mantissa
    // bits): both legs solve identical orderings with identical ties, and
    // the cross-check below can demand equal results.
    constexpr int64_t kDoubleExact = (int64_t{1} << 52) - 1;
    std::vector<int64_t> am1(n), am2(n);
    std::vector<double> d1(n), d2(n);
    parallel_for(0, n, [&](int64_t i) {
      am1[i] = a[i] & kDoubleExact;
      am2[i] = a2[i] & kDoubleExact;
      d1[i] = 0.5 * static_cast<double>(am1[i]);
      d2[i] = 0.5 * static_cast<double>(am2[i]);
    });
    Solver dsolver;
    dsolver.solve_wlis(std::span<const double>(d1), w, wlis_out);
    dsolver.solve_wlis(std::span<const double>(d2), w, wlis_out);
    const std::vector<int64_t>* ialt[2] = {&am1, &am2};
    const std::vector<double>* dalt[2] = {&d1, &d2};
    int flip_i64 = 1, flip_dbl = 1;
    PairMedians m_dbl = measure_pair(
        r,
        [&] {
          solver.solve_wlis(*ialt[flip_i64++ & 1], w, wlis_out);
          sink = sink + wlis_out.best;
        },
        [&] {
          dsolver.solve_wlis(std::span<const double>(*dalt[flip_dbl++ & 1]),
                             w, wlis_out);
          sink = sink + wlis_out.best;
        });
    std::printf("%-12s %10lld  %14.3f  %14.3f  %8.1f%%\n", "wlis_double",
                static_cast<long long>(n), m_dbl.a_ms(), m_dbl.b_ms(),
                m_dbl.speedup_pct());
    emit("wlis_double", "int64_warm", n, m_dbl.a_ms(), 0, false);
    emit("wlis_double", "double_warm", n, m_dbl.b_ms(), m_dbl.speedup_pct(),
         true);

    // Cross-check while everything is in scope.
    solver.solve_wlis(a, w, wlis_out);
    const int64_t ref_best = wlis(a, w).best;
    if (wlis_out.best != ref_best || lis_out.k != lis_ranks(a).k) {
      std::printf("MISMATCH at n=%lld\n", static_cast<long long>(n));
      return 1;
    }
    dsolver.solve_wlis(std::span<const double>(d1), w, wlis_out);
    if (wlis_out.best != wlis(am1, w).best) {
      std::printf("MISMATCH (double keys) at n=%lld\n",
                  static_cast<long long>(n));
      return 1;
    }
  }

  // ------------------------------------------------------- solve_many ---
  // batchq small queries (even: unweighted, odd: weighted) over batchn
  // elements each, carved out of one backing array.
  std::vector<int64_t> big_a(batchq * batchn), big_w(batchq * batchn);
  parallel_for(0, batchq * batchn, [&](int64_t i) {
    big_a[i] = static_cast<int64_t>(hash64(7, i) >> 1);
    big_w[i] = 1 + static_cast<int64_t>(uniform(9, i, 1000));
  });
  std::vector<Query> queries(batchq);
  for (int64_t q = 0; q < batchq; q++) {
    queries[q].a = std::span<const int64_t>(big_a).subspan(q * batchn, batchn);
    if (q % 2 == 1) {
      queries[q].w =
          std::span<const int64_t>(big_w).subspan(q * batchn, batchn);
    }
  }
  std::vector<QueryResult> results(batchq);
  solver.solve_many(queries, results);  // warm the task contexts
  int batch_reps = std::max(3, reps / 2);
  PairMedians m_batch = measure_pair(
      batch_reps,
      [&] {
        int64_t acc = 0;
        for (int64_t q = 0; q < batchq; q++) {
          if (queries[q].w.empty()) {
            acc += lis_ranks(queries[q].a).k;
          } else {
            acc += wlis(queries[q].a, queries[q].w).best;
          }
        }
        sink = sink + acc;
      },
      [&] {
        solver.solve_many(queries, results);
        sink = sink + results[0].k;
      });
  double loop_qps = 1e3 * static_cast<double>(batchq) / m_batch.a_ms();
  double batch_qps = 1e3 * static_cast<double>(batchq) / m_batch.b_ms();
  std::printf("%-12s %10lld  %14.3f  %14.3f  %8.1f%%   (%.0f -> %.0f q/s)\n",
              "solve_many", static_cast<long long>(batchq * batchn),
              m_batch.a_ms(), m_batch.b_ms(), m_batch.speedup_pct(),
              loop_qps, batch_qps);
  emit("solve_many", "oneshot_loop", batchq * batchn, m_batch.a_ms(), 0,
       false);
  {
    JsonRecord rec;
    rec.field("bench", "micro_api")
        .field("op", "solve_many")
        .field("variant", "batch")
        .field("n", batchq * batchn)
        .field("queries", batchq)
        .field("threads", num_workers())
        .field("median_ms", m_batch.b_ms())
        .field("queries_per_sec", batch_qps)
        .field("speedup_pct", m_batch.speedup_pct());
    json.add(rec);
  }

  // Batch results must agree with the one-shot loop.
  bool ok = true;
  for (int64_t q = 0; q < std::min<int64_t>(batchq, 64); q++) {
    if (queries[q].w.empty()) {
      ok = ok && results[q].k == lis_ranks(queries[q].a).k;
    } else {
      ok = ok && results[q].best == wlis(queries[q].a, queries[q].w).best;
    }
  }
  std::printf("\ncross-check (warm and one-shot agree): %s\n",
              ok ? "OK" : "MISMATCH");

  // ------------------------------------------------------- wlis_pass ---
  std::printf("\n%-9s %8s %-11s %6s %-9s %12s %12s %7s\n", "op", "n",
              "shape", "k", "path", "one(ms)", "plan(ms)", "ratio");
  bool pass_ok = true;
  for (int64_t n : pass_ns) {
    struct Shape {
      std::string name;
      std::vector<int64_t> a;
    };
    std::vector<Shape> shapes;
    // Targets whose realized k reads ~10, ~60, ~500, ~3,500 and ~25,000.
    for (const int64_t k : {10, 100, 1000, 3500, 25000}) {
      shapes.push_back({"line" + std::to_string(k), line_pattern(n, k, 48)});
    }
    for (const int64_t u : {1, 8, 100}) {
      shapes.push_back({"range" + std::to_string(u), range_pattern(n, u, 49)});
    }
    std::vector<int64_t> random(n), sorted(n), reversed(n), equal(n, 7);
    parallel_for(0, n, [&](int64_t i) {
      random[i] = static_cast<int64_t>(hash64(50, i) >> 1);
      sorted[i] = i;
      reversed[i] = n - i;
    });
    shapes.push_back({"random", random});
    shapes.push_back({"sorted", sorted});
    shapes.push_back({"reversed", reversed});
    shapes.push_back({"equal", equal});
    std::vector<int64_t> w(n);
    parallel_for(0, n, [&](int64_t i) {
      w[i] = 1 + static_cast<int64_t>(uniform(51, i, 1000));
    });
    // Twice the reps plus one: the pairs' ratios spread by a few percent
    // on a shared host, and a row's median must resolve 3%.
    const int r = 2 * reps + 1;
    for (const Shape& sh : shapes) {
      Solver ps;
      WlisResult one_out, plan_out;
      ps.solve_wlis(sh.a, w, plan_out);  // caches the ranks
      std::vector<double> one_ts(r), plan_ts(r), ratios(r);
      uint64_t plan_spawns = 0;
      for (int rep = 0; rep < r; rep++) {
        for (int leg = 0; leg < 2; leg++) {
          const bool one = (leg == 0) == (rep % 2 == 0);
          set_sequential_mode(one);
          const uint64_t spawned = scheduler_stats().spawns;
          Timer t;
          ps.solve_wlis(sh.a, w, one ? one_out : plan_out);
          (one ? one_ts : plan_ts)[rep] = t.elapsed() * 1e3;
          if (!one) plan_spawns += scheduler_stats().spawns - spawned;
        }
        set_sequential_mode(false);
        ratios[rep] = plan_ts[rep] / one_ts[rep];
        pass_ok = pass_ok && one_out.dp == plan_out.dp &&
                  one_out.best == plan_out.best && one_out.k == plan_out.k;
      }
      std::sort(one_ts.begin(), one_ts.end());
      std::sort(plan_ts.begin(), plan_ts.end());
      std::sort(ratios.begin(), ratios.end());
      const double one_ms = one_ts[(r - 1) / 2], plan_ms = plan_ts[(r - 1) / 2];
      const double ratio = ratios[(r - 1) / 2];
      const char* path = plan_spawns > 0 ? "wavefront" : "one_cell";
      std::printf("%-9s %8lld %-11s %6d %-9s %12.3f %12.3f %7.3f\n",
                  "wlis_pass", static_cast<long long>(n), sh.name.c_str(),
                  plan_out.k, path, one_ms, plan_ms, ratio);
      for (const bool plan : {false, true}) {
        JsonRecord rec;
        rec.field("bench", "micro_api")
            .field("op", "wlis_pass")
            .field("variant", plan ? "plan" : "one_cell")
            .field("n", n)
            .field("shape", sh.name)
            .field("k", static_cast<int64_t>(plan_out.k))
            .field("path", plan ? path : "one_cell")
            .field("threads", num_workers())
            .field("median_ms", plan ? plan_ms : one_ms);
        if (plan) rec.field("ratio", ratio);
        json.add(rec);
      }
    }
  }
  std::printf("wlis_pass cross-check (dp, best, k): %s\n",
              pass_ok ? "OK" : "MISMATCH");
  ok = ok && pass_ok;

  // ------------------------------------------------------- rank_only ---
  std::printf("\n%-9s %8s %7s %-6s %-13s %9s %11s %9s %7s\n", "op", "n",
              "span", "ties", "path", "sort(ms)", "one_thr(ms)", "plan(ms)",
              "ratio");
  bool ranks_ok = true;
  for (int64_t n : rank_ns) {
    const int64_t cap = 64 * static_cast<int64_t>(rank_only_max_words(n));
    const struct {
      const char* name;
      int64_t span;
      std::vector<int64_t> a;
    } shapes[] = {
        {"2n", 2 * n, line_with_span(n, 2 * n, 47 + n)},
        {"100n", 100 * n, line_with_span(n, 100 * n, 47 + n)},
        {"cap", cap, line_with_span(n, cap, 47 + n)},
        {"cap+1", cap + 1, line_with_span(n, cap + 1, 47 + n)},
        {"uniform", cap - 64, uniform_with_span(n, cap - 64, 48 + n)},
        {"equal", 1, std::vector<int64_t>(n, 7)}};
    for (const auto& sh : shapes) {
      const std::span<const int64_t> keys(sh.a);
      for (const TiesPolicy ties :
           {TiesPolicy::kStrict, TiesPolicy::kNonDecreasing}) {
        const char* ties_name =
            ties == TiesPolicy::kStrict ? "strict" : "nondec";
        RankSpace sort_rs, one_rs, plan_rs;
        RankSpaceScratch sort_scratch, one_scratch, plan_scratch;
        auto one_thread = [&] {
          const bool prev = set_thread_sequential(true);
          rank_only_into<int64_t>(keys, ties, one_rs, one_scratch);
          set_thread_sequential(prev);
        };
        auto same = [&](const RankSpace& rs) {
          return rs.rank == sort_rs.rank && rs.n_distinct == sort_rs.n_distinct;
        };
        rank_space_into<int64_t>(keys, ties, sort_rs, sort_scratch);
        const char* path = path_name(
            internal::rank_by_bitmap(keys, ties, plan_rs, plan_scratch));
        const bool prev = set_thread_sequential(true);
        const char* one_path = path_name(
            internal::rank_by_bitmap(keys, ties, one_rs, one_scratch));
        set_thread_sequential(prev);
        rank_only_into<int64_t>(keys, ties, plan_rs, plan_scratch);
        one_thread();
        ranks_ok = ranks_ok && same(plan_rs) && same(one_rs);
        auto plan = [&] {
          rank_only_into<int64_t>(keys, ties, plan_rs, plan_scratch);
        };
        // As wlis_pass: twice the reps plus one. The paired legs run twice
        // each, ABBA on even reps and BAAB on odd ones, so each leg runs
        // first after the sort, whose buffers evict theirs, equally often:
        // a leg that ran first in 11 of 21 reps read 1.2x against itself
        // at 4096 keys (EXPERIMENTS.md, "Rank on the pool").
        const int r = 2 * reps + 1;
        std::vector<double> sort_ms, one_ms, plan_ms, ratios;
        for (int rep = 0; rep < r; rep++) {
          sort_ms.push_back(ms_of([&] {
            rank_space_into<int64_t>(keys, ties, sort_rs, sort_scratch);
          }));
          double p = 0, o = 0;
          for (int k = 0; k < 4; k++) {
            if ((k == 0 || k == 3) == (rep % 2 == 0)) {
              p += ms_of(plan);
            } else {
              o += ms_of(one_thread);
            }
          }
          plan_ms.push_back(p / 2);
          one_ms.push_back(o / 2);
          ratios.push_back(p / o);
        }
        ranks_ok = ranks_ok && same(plan_rs) && same(one_rs);
        const double ratio = median_of(ratios);
        std::printf("%-9s %8lld %7s %-6s %-13s %9.3f %11.3f %9.3f %7.3f\n",
                    "rank_only", static_cast<long long>(n), sh.name,
                    ties_name, path, median_of(sort_ms), median_of(one_ms),
                    median_of(plan_ms), ratio);
        const struct {
          const char* variant;
          const char* path;
          const std::vector<double>& ms;
        } legs[] = {{"sort", "sort", sort_ms},
                    {"one_thread", one_path, one_ms},
                    {"rank_only", path, plan_ms}};
        for (const auto& leg : legs) {
          JsonRecord rec;
          rec.field("bench", "micro_api")
              .field("op", "rank_only")
              .field("variant", leg.variant)
              .field("n", n)
              .field("span", sh.name)
              .field("span_per_n", static_cast<double>(sh.span) /
                                       static_cast<double>(n))
              .field("ties", ties_name)
              .field("path", leg.path)
              .field("threads", num_workers())
              .field("median_ms", median_of(leg.ms));
          if (&leg == &legs[2]) rec.field("ratio", ratio);
          json.add(rec);
        }
      }
    }
  }
  std::printf("rank_only cross-check (rank, n_distinct): %s\n",
              ranks_ok ? "OK" : "MISMATCH");
  ok = ok && ranks_ok;
  bool pass = wlis_1e5_speedup < 0 || wlis_1e5_speedup >= 20.0;
  if (wlis_1e5_speedup >= 0) {
    std::printf("acceptance (warm wlis >= 20%% @ n=1e5): %s (%.1f%%)%s\n",
                pass ? "PASS" : "FAIL", wlis_1e5_speedup,
                flags.has("strict") ? "" : " (advisory; --strict gates exit)");
  }
  if (!ok) return 1;
  return flags.has("strict") && !pass ? 2 : 0;
}
