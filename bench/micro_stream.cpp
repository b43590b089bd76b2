// Streaming-session microbenchmark: what one tick costs.
//
//   append       — LisSession::append per-tick median (grow-only), measured
//                  in blocks so the timer overhead stays off the tick. The
//                  acceptance row: at n = 1e6 the per-tick median must be
//                  >= 20x faster than re-solving per tick. Uniform 63-bit
//                  values; append_dense is the same measurement on a
//                  random-walk feed, and append_wide on a strictly
//                  increasing feed (stride 1000) whose span crosses 2^27 at
//                  n = 2e5 and whose LIS is the whole stream. --strict
//                  gates append_wide's mean tick at <= 4x the append
//                  row's (the grow rows report the mean beside the
//                  median).
//   resolve_tick — the baseline a per-tick workload pays without sessions:
//                  one full Solver::lis_length re-solve of the n-element
//                  history (median over reps).
//   sliding      — per-tick median with expiry on: kSlidingAmortized at
//                  window n/10 and kSlidingExact at a small window (the
//                  exact mode pays a survivor replay per tick at capacity —
//                  reported honestly as its own row).
//   delta        — delta_resolve of a 1k-element head, middle and tail
//                  edit of the uniform feed and of a deep line
//                  (line_pattern(n, 500): k ~ 259 at n = 1e6) vs a full
//                  re-solve of the edited series (both medians reported;
//                  advisory, nothing gates them).
//
// Every row checks its session's final LIS length against
// Solver::lis_length of the same window and exits 1 on a mismatch.
//
// Flags: --n (default 1000000), --reps, --window (amortized window,
// default n/10), --exactwindow (default 4096), --out FILE, --strict
// (exit 2 unless the gates hold; advisory otherwise).
#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/api/solver.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/stream/lis_session.hpp"
#include "parlis/util/generators.hpp"

namespace {

using namespace parlis;
using namespace parlis::bench;

constexpr int64_t kBlock = 1024;

struct TickTimes {
  double median;  // per-tick seconds of the median block
  double mean;    // per-tick seconds over the whole stream
};

// Per-tick seconds of `session.append` over the stream `a`, timed in
// kBlock-sized blocks.
TickTimes append_per_tick(LisSession& session, const std::vector<int64_t>& a) {
  std::vector<double> blocks;
  double total = 0;
  int64_t n = static_cast<int64_t>(a.size());
  for (int64_t s = 0; s < n; s += kBlock) {
    int64_t e = std::min(n, s + kBlock);
    Timer t;
    for (int64_t i = s; i < e; i++) session.append(a[i]);
    const double el = t.elapsed();
    total += el;
    blocks.push_back(el / static_cast<double>(e - s));
  }
  std::sort(blocks.begin(), blocks.end());
  return {blocks[(blocks.size() - 1) / 2], total / static_cast<double>(n)};
}

double median(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

// False (and a MISMATCH line) unless a session's final LIS length `got`
// equals a from-scratch solve of its window.
bool length_matches(const char* row, int64_t got, std::span<const int64_t> win,
                    Solver& ref) {
  const int64_t want = ref.lis_length(win);
  if (got == want) return true;
  std::printf("MISMATCH (%s): session LIS %lld vs batch %lld\n", row,
              static_cast<long long>(got), static_cast<long long>(want));
  return false;
}

// Block-interleaved guard delta measurement: the same stream feeds both
// sessions in alternating 1024-tick blocks — separately-measured rows
// cannot resolve a 2% delta through this host's run-to-run drift. Two
// biases to cancel: the second runner of a block sees a[s..e) cache-warm
// (~30% on this host), so the order flips every block; and CPU frequency
// drifts across the run, so blocks are grouped into 4-block units (both
// orders represented) and the returned overhead is the median of per-unit
// time ratios — each ratio spans ~4 adjacent blocks of wall clock, inside
// which drift is negligible. Returns {s1 per-tick seconds (unit medians),
// s2/s1 ratio median}.
std::pair<double, double> append_per_tick_pair(LisSession& s1, LisSession& s2,
                                               const std::vector<int64_t>& a) {
  std::vector<double> b1, b2;
  int64_t n = static_cast<int64_t>(a.size());
  int64_t block_idx = 0;
  for (int64_t s = 0; s < n; s += kBlock, block_idx++) {
    int64_t e = std::min(n, s + kBlock);
    LisSession& first = (block_idx & 1) ? s2 : s1;
    LisSession& second = (block_idx & 1) ? s1 : s2;
    std::vector<double>& bf = (block_idx & 1) ? b2 : b1;
    std::vector<double>& bs = (block_idx & 1) ? b1 : b2;
    Timer t;
    for (int64_t i = s; i < e; i++) first.append(a[i]);
    bf.push_back(t.elapsed() / static_cast<double>(e - s));
    t.reset();
    for (int64_t i = s; i < e; i++) second.append(a[i]);
    bs.push_back(t.elapsed() / static_cast<double>(e - s));
  }
  size_t units = std::min(b1.size(), b2.size()) / 2;
  std::vector<double> ratios;
  for (size_t u = 0; u + 1 < 2 * units; u += 2) {
    double t1 = b1[u] + b1[u + 1];  // one s1-first + one s2-first block
    double t2 = b2[u] + b2[u + 1];
    if (t1 > 0) ratios.push_back(t2 / t1);
  }
  // The reported level is the block median (the same statistic as the
  // append row — unit sums would absorb the outlier blocks the median
  // deliberately excludes); only the overhead ratio uses the units.
  double base = median(b1);
  if (ratios.empty()) return {base, 1.0};
  return {base, median(ratios)};
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int64_t n = flags.get("n", 1000000);
  int reps = static_cast<int>(flags.get("reps", 5));
  int64_t window = flags.get("window", n / 10);
  int64_t exact_window = flags.get("exactwindow", 4096);
  BenchJson json(flags.get_str("out", ""));
  const int host_hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("micro_stream: n=%lld reps=%d window=%lld exact=%lld "
              "threads=%d host_hw_threads=%d\n\n",
              static_cast<long long>(n), reps, static_cast<long long>(window),
              static_cast<long long>(exact_window), num_workers(), host_hw);

  std::vector<int64_t> a(n);
  parallel_for(0, n, [&](int64_t i) {
    a[i] = static_cast<int64_t>(hash64(42, i) >> 1);
  });

  auto emit = [&](const char* op, int64_t rown, int64_t win,
                  double per_tick_ns, double med_ms, double ratio) {
    JsonRecord rec;
    rec.field("bench", "micro_stream")
        .field("op", op)
        .field("n", rown)
        .field("threads", num_workers());
    if (win >= 0) rec.field("window", win);
    if (per_tick_ns >= 0) rec.field("per_tick_ns", per_tick_ns);
    if (med_ms >= 0) rec.field("median_ms", med_ms);
    if (ratio >= 0) rec.field("speedup_x", ratio);
    json.add(rec);
  };

  // One grow-only feed through `reps` fresh sessions: the per-tick block
  // median and mean (medians over reps), and the final LIS length.
  Options opts;
  Solver solver(opts);
  struct GrowRow {
    double median_ns, mean_ns;
    int64_t k;
  };
  auto grow_row = [&](const std::vector<int64_t>& feed) {
    std::vector<double> meds, means;
    int64_t k = 0;
    for (int r = 0; r < reps; r++) {
      LisSession s = solver.make_session();
      const TickTimes t = append_per_tick(s, feed);
      meds.push_back(t.median);
      means.push_back(t.mean);
      k = s.length();
    }
    return GrowRow{median(meds) * 1e9, median(means) * 1e9, k};
  };
  auto emit_grow = [&](const char* op, const GrowRow& g, double ratio) {
    std::printf("%-14s per-tick median %8.0f ns, mean %8.0f ns   (final LIS "
                "%lld)\n",
                op, g.median_ns, g.mean_ns, static_cast<long long>(g.k));
    JsonRecord rec;
    rec.field("bench", "micro_stream")
        .field("op", op)
        .field("n", n)
        .field("threads", num_workers())
        .field("per_tick_ns", g.median_ns)
        .field("mean_tick_ns", g.mean_ns);
    if (ratio >= 0) rec.field("speedup_x", ratio);
    json.add(rec);
  };

  // ------------------------------------------------------------ append ---
  const GrowRow app = grow_row(a);
  const double append_ns = app.median_ns;

  // ------------------------------------------------------ resolve_tick ---
  std::vector<double> res_ts;
  int64_t k_batch = 0;
  for (int r = 0; r < reps; r++) {
    Timer t;
    k_batch = solver.lis_length(std::span<const int64_t>(a));
    res_ts.push_back(t.elapsed());
  }
  double resolve_ms = median(res_ts) * 1e3;
  double ratio = resolve_ms * 1e6 / append_ns;
  emit_grow("append", app, ratio);
  std::printf("%-14s per-tick median %8.3f ms   (%.0fx the append tick)\n",
              "resolve_tick", resolve_ms, ratio);
  if (app.k != k_batch) {
    std::printf("MISMATCH: stream LIS %lld vs batch %lld\n",
                static_cast<long long>(app.k),
                static_cast<long long>(k_batch));
    return 1;
  }
  emit("resolve_tick", n, -1, -1, resolve_ms, -1);

  // ------------------------------------------------------ append_dense ---
  // Random-walk values (a price-like feed).
  {
    std::vector<int64_t> walk(n);
    int64_t p = 100000;
    for (int64_t i = 0; i < n; i++) {
      p += static_cast<int64_t>(hash64(7, i) % 401) - 200;
      walk[i] = p;
    }
    const GrowRow g = grow_row(walk);
    emit_grow("append_dense", g, -1);
    if (!length_matches("append_dense", g.k, walk, solver)) return 1;
  }

  // ------------------------------------------------------- append_wide ---
  // Strictly increasing values, stride 1000: every tick opens a new pile,
  // and the span crosses 2^27 after ~1.3e5 ticks. Gated on the mean, not
  // the block median: a cost that starts part-way through the stream can
  // sit in a minority of the blocks.
  double wide_x = 0;
  {
    std::vector<int64_t> wide(n);
    for (int64_t i = 0; i < n; i++) wide[i] = 1000 * i;
    const GrowRow g = grow_row(wide);
    emit_grow("append_wide", g, -1);
    if (!length_matches("append_wide", g.k, wide, solver)) return 1;
    wide_x = g.mean_ns / app.mean_ns;
  }

  // ------------------------------------------------------ append_guard ---
  // Failure-semantics delta row: the same grow-only append stream through a
  // Solver carrying a live CancelToken plus a far deadline. Every tick then
  // pays the guard admission (amortized exec-context poll; see
  // LisSession::append); the pin is that the guard overhead stays <= 2% of
  // the per-tick median. Both sides are re-measured here, block-interleaved
  // in one pass per rep — the `append` row above is a separate run and
  // differs from this row's unguarded side by ordinary drift.
  double guard_overhead_pct = 0.0;
  double guard_base_ns = 0.0;
  {
    Options g;
    g.cancel = CancelToken::make();
    g.deadline_ms = int64_t{3600} * 1000;
    Solver gs(g);
    std::vector<double> plain_meds, ratio_meds;
    int64_t k_guard = 0, k_plain = 0;
    for (int r = 0; r < reps; r++) {
      LisSession ps = solver.make_session();
      LisSession gsess = gs.make_session();
      auto [pm, ratio] = append_per_tick_pair(ps, gsess, a);
      plain_meds.push_back(pm);
      ratio_meds.push_back(ratio);
      k_plain = ps.length();
      k_guard = gsess.length();
    }
    guard_base_ns = median(plain_meds) * 1e9;
    guard_overhead_pct = 100.0 * (median(ratio_meds) - 1.0);
    double ns = guard_base_ns * (1.0 + guard_overhead_pct / 100.0);
    std::printf("%-14s per-tick median %8.0f ns   (%+.2f%% vs %.0f ns "
                "unguarded, interleaved)\n",
                "append_guard", ns, guard_overhead_pct, guard_base_ns);
    if (k_guard != app.k || k_plain != app.k) {
      std::printf("MISMATCH: guarded stream LIS %lld vs unguarded %lld\n",
                  static_cast<long long>(k_guard),
                  static_cast<long long>(app.k));
      return 1;
    }
    JsonRecord rec;
    rec.field("bench", "micro_stream")
        .field("op", "append_guard")
        .field("n", n)
        .field("threads", num_workers())
        .field("per_tick_ns", ns)
        .field("unguarded_per_tick_ns", guard_base_ns)
        .field("overhead_pct", guard_overhead_pct);
    json.add(rec);
  }

  // ----------------------------------------------------------- sliding ---
  {
    Options w;
    w.window = WindowMode::kSlidingAmortized;
    w.window_capacity = std::max<int64_t>(2, window);
    Solver ws(w);
    std::vector<double> meds;
    int64_t rebuilds = 0;
    bool ok = true;
    for (int r = 0; r < reps; r++) {
      LisSession s = ws.make_session();
      meds.push_back(append_per_tick(s, a).median);
      rebuilds = s.stats().window_rebuilds;
      if (r + 1 == reps) {
        ok = length_matches("slide_amort", s.length(), s.window(), solver);
      }
    }
    double ns = median(meds) * 1e9;
    std::printf("%-14s per-tick median %8.0f ns   (window %lld, %lld "
                "rebuilds)\n",
                "slide_amort", ns, static_cast<long long>(window),
                static_cast<long long>(rebuilds));
    emit("slide_amort", n, window, ns, -1, -1);
    if (!ok) return 1;
  }
  {
    Options w;
    w.window = WindowMode::kSlidingExact;
    w.window_capacity = exact_window;
    Solver ws(w);
    int64_t n_exact = std::min<int64_t>(n, 20 * exact_window);
    std::vector<int64_t> a_exact(a.begin(), a.begin() + n_exact);
    std::vector<double> meds;
    bool ok = true;
    for (int r = 0; r < reps; r++) {
      LisSession s = ws.make_session();
      meds.push_back(append_per_tick(s, a_exact).median);
      if (r + 1 == reps) {
        ok = length_matches("slide_exact", s.length(), s.window(), solver);
      }
    }
    double ns = median(meds) * 1e9;
    std::printf("%-14s per-tick median %8.0f ns   (window %lld, replay per "
                "tick at capacity)\n",
                "slide_exact", ns, static_cast<long long>(exact_window));
    emit("slide_exact", n_exact, exact_window, ns, -1, -1);
    if (!ok) return 1;
  }

  // ------------------------------------------------------------- delta ---
  // A kEdit-element edit at the head, the middle and the tail of two
  // feeds: the uniform `a` (k ~ 2 sqrt(n)) and a deep line (k ~ 259 at
  // n = 1e6). Each rep edits the same positions again, with values unlike
  // the current ones (fresh hashes; the line's two alternates in turn).
  {
    constexpr int64_t kEdit = 1000;
    const std::vector<int64_t> line = line_pattern(n, 500, 43);
    const std::vector<int64_t> alt[2] = {line_pattern(n, 500, 44),
                                         line_pattern(n, 500, 45)};
    const std::pair<const char*, int64_t> edits[] = {
        {"head", 0}, {"middle", n / 2}, {"tail", n - kEdit}};
    const std::vector<int64_t>* feeds[] = {&a, &line};
    for (const std::vector<int64_t>* feed : feeds) {
      const char* pattern = feed == &a ? "uniform" : "line";
      for (const auto& [where, l] : edits) {
        Solver ds(opts);
        LisSession s = ds.make_session();
        for (int64_t v : *feed) s.append(v);
        s.frontiers();
        std::vector<int64_t> b = *feed;
        std::vector<double> d_ts, f_ts;
        Solver fresh(opts);
        LisFrontiers fr;
        int64_t k_delta = 0;
        for (int r = 0; r < reps; r++) {
          for (int64_t i = 0; i < kEdit; i++) {
            b[l + i] = feed == &a
                           ? static_cast<int64_t>(hash64(100 + r, i) >> 1)
                           : alt[r % 2][l + i];
          }
          Timer t;
          k_delta =
              s.delta_resolve(std::span<const int64_t>(b), l, n - l - kEdit);
          d_ts.push_back(t.elapsed());
          t.reset();
          fresh.solve_lis_frontiers(std::span<const int64_t>(b), fr);
          f_ts.push_back(t.elapsed());
        }
        const double delta_ms = median(d_ts) * 1e3;
        const double full_ms = median(f_ts) * 1e3;
        std::printf("%-14s %-7s %-6s median %8.3f ms vs full re-solve %8.3f "
                    "ms (%.2fx, k %lld)\n",
                    "delta_resolve", pattern, where, delta_ms, full_ms,
                    full_ms / delta_ms, static_cast<long long>(k_delta));
        for (const bool full : {false, true}) {
          JsonRecord rec;
          rec.field("bench", "micro_stream")
              .field("op", full ? "delta_full_resolve" : "delta_resolve")
              .field("pattern", pattern)
              .field("variant", where)
              .field("n", n)
              .field("threads", num_workers())
              .field("median_ms", full ? full_ms : delta_ms);
          if (!full) rec.field("speedup_x", full_ms / delta_ms);
          json.add(rec);
        }
        char row[48];
        std::snprintf(row, sizeof row, "delta_resolve %s %s", pattern, where);
        if (!length_matches(row, k_delta, b, solver)) return 1;
      }
    }
  }

  bool pass = ratio >= 20.0;
  std::printf("\nacceptance (append tick >= 20x faster than re-solve @ "
              "n=%lld): %s (%.0fx)%s\n",
              static_cast<long long>(n), pass ? "PASS" : "FAIL", ratio,
              flags.has("strict") ? "" : " (advisory; --strict gates exit)");
  // Per-tick ns medians on short CI streams sit near timer resolution, so
  // the guard pin gets a noise floor: pass if within 2% or within 10 ns.
  bool guard_pass = guard_overhead_pct <= 2.0 ||
                    guard_base_ns * guard_overhead_pct / 100.0 <= 10.0;
  std::printf("guard overhead (token+deadline <= 2%% per append tick): %s "
              "(%+.2f%%)%s\n",
              guard_pass ? "PASS" : "FAIL", guard_overhead_pct,
              flags.has("strict") ? "" : " (advisory; --strict gates exit)");
  bool wide_pass = wide_x <= 4.0;
  std::printf("append_wide mean tick (<= 4x the append mean): %s (%.2fx)%s\n",
              wide_pass ? "PASS" : "FAIL", wide_x,
              flags.has("strict") ? "" : " (advisory; --strict gates exit)");
  return flags.has("strict") && !(pass && guard_pass && wide_pass) ? 2 : 0;
}
