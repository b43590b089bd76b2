// Trend analysis on a synthetic price series, streamed per tick: the LIS
// length measures how "trending" a window is (a sortedness/monotonicity
// statistic, cf. the paper's applications [30, 60]), and the weighted LIS
// picks the maximum-volume increasing run. Prices arrive one day at a time
// through a LisSession — O(log k) per tick instead of an O(n) re-solve —
// and the windowed analyses run over span views (no window copies).
//
//   ./examples/stock_trend [days]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/stream/lis_session.hpp"
#include "parlis/util/timer.hpp"
#include "parlis/wlis/wlis.hpp"

int main(int argc, char** argv) {
  int64_t days = argc > 1 ? std::atoll(argv[1]) : 2000000;
  // Random-walk price (in cents) with drift + daily volume.
  std::vector<int64_t> price(days), volume(days);
  int64_t p = 100000;
  for (int64_t i = 0; i < days; i++) {
    p += static_cast<int64_t>(parlis::uniform(1, i, 401)) - 198;  // drift +2
    if (p < 100) p = 100;
    price[i] = p;
    volume[i] = 100 + static_cast<int64_t>(parlis::uniform(2, i, 10000));
  }
  std::printf("stock trend: %lld days, final price %.2f\n",
              static_cast<long long>(days), price.back() / 100.0);

  // One Solver drives every analysis below; the session streams against it.
  parlis::Solver solver;

  // Whole-history trend strength, maintained per tick: each day's close is
  // appended to the session and the LIS length updates incrementally. The
  // last-tick latency is what a live feed would pay per day.
  parlis::LisSession session = solver.make_session();
  parlis::Timer t1;
  int64_t k = 0;
  double worst_tick = 0.0;
  for (int64_t i = 0; i < days; i++) {
    parlis::Timer tick;
    k = session.append(price[i]);
    worst_tick = std::max(worst_tick, tick.elapsed());
  }
  double total = t1.elapsed();
  std::printf(
      "LIS length %lld (trend strength %.4f) streamed in %.3f s "
      "(%.0f ns/tick mean, %.1f us worst)\n",
      static_cast<long long>(k),
      static_cast<double>(k) / static_cast<double>(days), total,
      total * 1e9 / static_cast<double>(days), worst_tick * 1e6);

  // Cross-check the stream against one batch solve.
  parlis::Timer t1b;
  int64_t k_batch = solver.lis_length(price);
  std::printf("batch re-solve agrees: %lld (%.3f s for ONE solve)\n",
              static_cast<long long>(k_batch), t1b.elapsed());
  if (k != k_batch) {
    std::fprintf(stderr, "stream/batch mismatch: %lld vs %lld\n",
                 static_cast<long long>(k), static_cast<long long>(k_batch));
    return 1;
  }

  // The actual longest rally: dates and prices of its endpoints.
  std::vector<int64_t> rally = parlis::lis_sequence(price);
  std::printf("longest rally: day %lld (%.2f) ... day %lld (%.2f)\n",
              static_cast<long long>(rally.front()),
              price[rally.front()] / 100.0,
              static_cast<long long>(rally.back()),
              price[rally.back()] / 100.0);

  // Trailing-window trend on a sliding session: amortized expiry keeps the
  // per-tick cost O(log k) amortized while the window tracks the last
  // `window` days.
  int64_t window = std::min<int64_t>(days, 200000);
  parlis::Options wopts;
  wopts.window = parlis::WindowMode::kSlidingAmortized;
  wopts.window_capacity = window;
  parlis::Solver wsolver(wopts);
  parlis::LisSession wsession = wsolver.make_session();
  parlis::Timer t2;
  int64_t wk = 0;
  for (int64_t i = 0; i < days; i++) wk = wsession.append(price[i]);
  std::printf(
      "windowed trend (last %lld live days): LIS %lld, %.0f ns/tick "
      "(%lld rebuilds)\n",
      static_cast<long long>(wsession.size()), static_cast<long long>(wk),
      t2.elapsed() * 1e9 / static_cast<double>(days),
      static_cast<long long>(wsession.stats().window_rebuilds));

  // Maximum-volume increasing run (weighted LIS, volume as weight) over the
  // trailing window — span views straight into the series, no copies.
  std::span<const int64_t> wp(price.data() + (days - window),
                              static_cast<size_t>(window));
  std::span<const int64_t> wv(volume.data() + (days - window),
                              static_cast<size_t>(window));
  parlis::Timer t3;
  parlis::WlisResult heavy;
  solver.solve_wlis(wp, wv, heavy);
  std::printf(
      "max-volume increasing run over last %lld days: volume %lld "
      "(%.3f s)\n",
      static_cast<long long>(window), static_cast<long long>(heavy.best),
      t3.elapsed());

  // Re-weighting the same window (recency-weighted volume) hits the
  // solver's value-sequence cache: only the score rounds re-run.
  std::vector<int64_t> recency(wv.begin(), wv.end());
  for (int64_t i = 0; i < window; i++) {
    recency[i] = wv[i] * (1 + i / std::max<int64_t>(1, window / 4));
  }
  parlis::Timer t4;
  solver.solve_wlis(wp, recency, heavy);
  std::printf(
      "recency-weighted run over the same window: score %lld (%.3f s, warm)\n",
      static_cast<long long>(heavy.best), t4.elapsed());
  return 0;
}
