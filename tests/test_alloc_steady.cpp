// Steady-state allocation regression for the warm Solver path: after
// warm-up, repeated same-size solve_wlis / solve_lis calls through one
// Solver must perform ZERO heap allocations (the acceptance criterion of
// the session API), on every path of the LIS plan's patience kernel: the
// register tiers alone, the tiers spilling to the memory loop, the memory
// loop alone (custom order), speculative chunks on the pool, and the rank
// image (typed keys, kNonDecreasing ties), whose ranks come from the
// pooled sort or, for int64 keys with a small span, the bitmap, on the
// calling thread or, from internal::kRankPoolMinN keys up, on the pool,
// and solve_many's packed queries on the pool tasks' own contexts.
// Warm sliding-window session appends, direct and through the serving
// engine, must allocate nothing either. A
// process-wide operator-new hook counts every allocation on every thread,
// so a stray vector resize, stable_sort temporary, arena chunk, or
// make_unique anywhere in the hot path fails the run; it also records the
// size and thread of a window's first few allocations, printed when a leg
// fails.
//
// Standalone binary (no gtest): the global new/delete replacement is kept
// out of the main test binary so the sanitizer jobs keep their own
// allocator interposition intact there.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <numeric>
#include <thread>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/serve/engine.hpp"
#include "parlis/stream/lis_session.hpp"
#include "parlis/util/generators.hpp"
#include "parlis/util/simd.hpp"
#include "parlis/wlis/wlis.hpp"
#include "parlis/wlis/wlis_sweep.hpp"

namespace {

std::atomic<uint64_t> g_allocs{0};

// The first kSites allocations since begin_window(): the size asked for and
// the allocating thread's pool_thread_id() (-1 outside the pool; the thread
// that started the pool, here main, is 0).
struct AllocSite {
  std::atomic<std::size_t> size{0};
  std::atomic<int> worker{0};
};
constexpr uint64_t kSites = 8;
AllocSite g_sites[kSites];
std::atomic<uint64_t> g_nsites{0};

void note_site(std::size_t sz) {
  const uint64_t i = g_nsites.fetch_add(1, std::memory_order_relaxed);
  if (i < kSites) {
    g_sites[i].size.store(sz, std::memory_order_relaxed);
    g_sites[i].worker.store(parlis::pool_thread_id(),
                            std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  note_site(sz);
  void* p = std::malloc(sz ? sz : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t sz, std::size_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  note_site(sz);
  void* p = std::aligned_alloc(al, (sz + al - 1) / al * al);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t sz) { return counted_alloc(sz); }
void* operator new[](std::size_t sz) { return counted_alloc(sz); }
void* operator new(std::size_t sz, std::align_val_t al) {
  return counted_alloc_aligned(sz, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return counted_alloc_aligned(sz, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

int failures = 0;

// Starts a measured window: returns the allocation count and restarts the
// site record.
uint64_t begin_window() {
  g_nsites.store(0, std::memory_order_relaxed);
  return g_allocs.load();
}

void expect_zero(const char* what, uint64_t count) {
  if (count == 0) {
    std::printf("OK   %-34s 0 allocations\n", what);
    return;
  }
  std::printf("FAIL %-34s %llu allocations (expected 0)\n", what,
              static_cast<unsigned long long>(count));
  failures++;
  const uint64_t shown = std::min(g_nsites.load(), kSites);
  for (uint64_t i = 0; i < shown; i++) {
    const int worker = g_sites[i].worker.load(std::memory_order_relaxed);
    std::printf("     allocation %llu: %zu bytes, pool_thread_id %d\n",
                static_cast<unsigned long long>(i + 1),
                g_sites[i].size.load(std::memory_order_relaxed), worker);
  }
}

}  // namespace

int main() {
  using namespace parlis;
  if (std::getenv("PARLIS_NUM_THREADS") == nullptr) {
    set_num_workers(4);  // exercise the parallel paths even on 1 core
  }
  const int64_t n = 50000;
  std::vector<int64_t> a(n), a2(n), w(n), bulk(n);
  for (int64_t i = 0; i < n; i++) {
    a[i] = static_cast<int64_t>(hash64(7, i) >> 1);
    a2[i] = static_cast<int64_t>(hash64(11, i) >> 1);
    w[i] = 1 + static_cast<int64_t>(uniform(8, i, 1000));
    // A falling trend: k of a few, so the patience kernel never leaves
    // its register tiers, where the hashed inputs (k ~ 2 sqrt(n)) climb
    // every tier and spill to the memory loop.
    bulk[i] = 2 * (n - i) + static_cast<int64_t>(uniform(9, i, 4));
  }
  {
    Solver probe;
    LisResult r;
    probe.solve_lis(bulk, r);
    const int32_t bulk_k = r.k;
    probe.solve_lis(a, r);
    if (bulk_k > simd::kTierTails || r.k <= simd::kTierTails) {
      std::printf("FAIL k = %d (bulk) and %d (hashed) do not straddle the "
                  "tiers' %lld tails\n",
                  bulk_k, r.k, static_cast<long long>(simd::kTierTails));
      failures++;
    }
  }

  Solver solver;  // default Options: kRangeTree backend
  WlisResult wlis_out;
  LisResult lis_out;
  LisFrontiers fr_out;

  // Warm-up: sizes the workspaces, the arena chunks, the per-worker slot
  // arrays, and the result buffers.
  for (int r = 0; r < 3; r++) {
    solver.solve_wlis(a, w, wlis_out);
    solver.solve_wlis(a2, w, wlis_out);
    solver.solve_lis(a, lis_out);
    solver.solve_lis_frontiers(a, fr_out);
    solver.solve_lis(bulk, lis_out);
    solver.solve_lis_frontiers(bulk, fr_out);
  }

  // Alternating same-size inputs: every solve misses the value cache and
  // runs the full pipeline (frontiers, value order, tree rebuild, rounds)
  // on recycled buffers — still zero allocations.
  uint64_t base = begin_window();
  for (int r = 0; r < 5; r++) {
    solver.solve_wlis(r % 2 ? a2 : a, w, wlis_out);
  }
  expect_zero("solve_wlis full path (n=50000)", g_allocs.load() - base);

  // Repeated identical values: the score-reset fast path.
  base = begin_window();
  for (int r = 0; r < 5; r++) solver.solve_wlis(a, w, wlis_out);
  expect_zero("solve_wlis cached values (n=50000)", g_allocs.load() - base);

  base = begin_window();
  for (int r = 0; r < 5; r++) solver.solve_lis(a, lis_out);
  expect_zero("solve_lis (n=50000)", g_allocs.load() - base);

  base = begin_window();
  for (int r = 0; r < 5; r++) solver.solve_lis_frontiers(a, fr_out);
  expect_zero("solve_lis_frontiers (n=50000)", g_allocs.load() - base);

  // The same two entry points on an input that stays in the register
  // tiers, alternating with the spilling one above.
  base = begin_window();
  for (int r = 0; r < 5; r++) {
    solver.solve_lis(r % 2 ? bulk : a, lis_out);
    solver.solve_lis_frontiers(r % 2 ? a : bulk, fr_out);
  }
  expect_zero("solve_lis[_frontiers] tiers + spill", g_allocs.load() - base);

  // A custom order runs the memory loop alone.
  for (int r = 0; r < 3; r++) {
    for (const std::vector<int64_t>* in : {&a, &bulk}) {
      solver.solve_lis(std::span<const int64_t>(*in), lis_out,
                       std::greater<int64_t>{});
    }
  }
  base = begin_window();
  for (int r = 0; r < 5; r++) {
    solver.solve_lis(std::span<const int64_t>(r % 2 ? a : bulk), lis_out,
                     std::greater<int64_t>{});
  }
  expect_zero("solve_lis custom order", g_allocs.load() - base);

  // Generic-key steady state: double keys through the typed overloads run
  // the rank-space compression (sort + run scans) before the int64 core —
  // the compression workspace must be as warm as everything else.
  // Alternating inputs force the full pipeline (cache miss) every call.
  // Masked to 52 bits so the int64 -> double map is exact (no accidental
  // tie collapse from rounding 62-bit keys into 53-bit mantissas).
  constexpr int64_t kDoubleExact = (int64_t{1} << 52) - 1;
  std::vector<double> da(n), da2(n);
  for (int64_t i = 0; i < n; i++) {
    da[i] = 0.5 * static_cast<double>(a[i] & kDoubleExact);
    da2[i] = 0.5 * static_cast<double>(a2[i] & kDoubleExact);
  }
  Solver dsolver;
  for (int r = 0; r < 3; r++) {
    dsolver.solve_wlis(std::span<const double>(da), w, wlis_out);
    dsolver.solve_wlis(std::span<const double>(da2), w, wlis_out);
    dsolver.solve_lis(std::span<const double>(da), lis_out);
    dsolver.solve_lis(std::span<const double>(da2), lis_out);
  }
  base = begin_window();
  for (int r = 0; r < 5; r++) {
    dsolver.solve_wlis(r % 2 ? std::span<const double>(da2)
                             : std::span<const double>(da),
                       w, wlis_out);
  }
  expect_zero("solve_wlis<double> full path", g_allocs.load() - base);
  base = begin_window();
  for (int r = 0; r < 5; r++) {
    dsolver.solve_lis(r % 2 ? std::span<const double>(da2)
                            : std::span<const double>(da),
                      lis_out);
  }
  expect_zero("solve_lis<double>", g_allocs.load() - base);

  // One rank space serves the value cache and every rank image: a typed
  // solve between two weighted solves of the same values overwrites it, so
  // each weighted solve misses and rebuilds it, on warm buffers.
  for (int r = 0; r < 3; r++) {
    solver.solve_wlis(a, w, wlis_out);
    solver.solve_lis(std::span<const double>(da), lis_out);
  }
  base = begin_window();
  for (int r = 0; r < 5; r++) {
    solver.solve_wlis(a, w, wlis_out);
    solver.solve_lis(std::span<const double>(da), lis_out);
  }
  expect_zero("solve_wlis / typed solve_lis turns", g_allocs.load() - base);

  // Small spans take rank_only_into's bitmap: `bulk` spans ~2n and `steep`
  // ~41n, so the alternating misses need different bitmaps, and the warm
  // buffers hold the wider one. (The hashed 63-bit inputs above take the
  // sort.)
  std::vector<int64_t> steep(n);
  for (int64_t i = 0; i < n; i++) {
    steep[i] = -40 * i + static_cast<int64_t>(uniform(13, i, n));
  }
  for (int r = 0; r < 3; r++) {
    solver.solve_wlis(bulk, w, wlis_out);
    solver.solve_wlis(steep, w, wlis_out);
  }
  base = begin_window();
  for (int r = 0; r < 5; r++) {
    solver.solve_wlis(r % 2 ? steep : bulk, w, wlis_out);
  }
  expect_zero("solve_wlis bitmap ranks, two spans", g_allocs.load() - base);
  // Misses that alternate between the sort (the hashed `a`) and the bitmap
  // (`steep`) find both paths' buffers warm.
  for (int r = 0; r < 3; r++) {
    solver.solve_wlis(a, w, wlis_out);
    solver.solve_wlis(steep, w, wlis_out);
  }
  base = begin_window();
  for (int r = 0; r < 5; r++) {
    solver.solve_wlis(r % 2 ? steep : a, w, wlis_out);
  }
  expect_zero("solve_wlis sort/bitmap alternation", g_allocs.load() - base);

  // The wavefront: line-pattern values (k ~ 60) whose alternating misses
  // rank through the bitmap and run the pass as a wavefront on the pool,
  // its length array and cell tables in the rank space's sort buffer.
  // Once from the main thread (a pool worker: it started the pool) and
  // once from a std::thread outside the pool, whose forks go through the
  // scheduler's external queue. Each leg checks that the wavefront ran on
  // a pool of 4 or more workers, where the plan picks it for these values.
  {
    const int64_t wn = 2 * kWavefrontMinN;
    const std::vector<int64_t> l1 = line_pattern(wn, 100, 21);
    const std::vector<int64_t> l2 = line_pattern(wn, 100, 22);
    std::vector<int64_t> lw(wn);
    for (int64_t i = 0; i < wn; i++) {
      lw[i] = 1 + static_cast<int64_t>(uniform(23, i, 1000));
    }
    auto leg = [&](const char* what) {
      Solver ws;
      WlisResult wout;
      for (int r = 0; r < 3; r++) {
        ws.solve_wlis(l1, lw, wout);
        ws.solve_wlis(l2, lw, wout);
      }
      const uint64_t spawned = scheduler_stats().spawns;
      const uint64_t start = begin_window();
      for (int r = 0; r < 5; r++) ws.solve_wlis(r % 2 ? l2 : l1, lw, wout);
      const uint64_t allocs = g_allocs.load() - start;
      if (num_workers() >= 4 && scheduler_stats().spawns == spawned) {
        std::printf("FAIL %-34s the wavefront did not run\n", what);
        failures++;
      }
      expect_zero(what, allocs);
    };
    leg("solve_wlis wavefront, main thread");
    std::thread outside([&] { leg("solve_wlis wavefront, outside pool"); });
    outside.join();
  }

  // The bitmap's plan on the pool: value-cache misses of twice
  // kRankPoolMinN elements that alternate a banded line (the owned word
  // segments) with uniform values one word below the bitmap's cap (the
  // pooled min/max pass, then the caller's set). Once from the main thread
  // and once from a std::thread outside the pool, each leg checking that
  // the banded line took the segments on 2 to 4 workers (larger pools cut
  // narrower segments, of which each block meets more).
  {
    const int64_t rn = 2 * internal::kRankPoolMinN;
    const std::vector<int64_t> banded = line_pattern(rn, 100, 26);
    const uint64_t span = 64 * (rank_only_max_words(rn) - 1);
    std::vector<int64_t> spread(rn), rw(rn);
    for (int64_t i = 0; i < rn; i++) {
      spread[i] = static_cast<int64_t>(uniform(27, i, span));
      rw[i] = 1 + static_cast<int64_t>(uniform(28, i, 1000));
    }
    auto leg = [&](const char* what) {
      Solver rs;
      WlisResult rout;
      for (int r = 0; r < 3; r++) {
        rs.solve_wlis(banded, rw, rout);
        rs.solve_wlis(spread, rw, rout);
      }
      const uint64_t start = begin_window();
      for (int r = 0; r < 6; r++) {
        rs.solve_wlis(r % 2 ? spread : banded, rw, rout);
      }
      const uint64_t allocs = g_allocs.load() - start;
      RankSpace probe;
      RankSpaceScratch probe_scratch;
      if (num_workers() >= 2 && num_workers() <= 4 &&
          internal::rank_by_bitmap(banded, TiesPolicy::kStrict, probe,
                                   probe_scratch) !=
              internal::BitmapPath::kSegments) {
        std::printf("FAIL %-34s the banded line skipped the segments\n",
                    what);
        failures++;
      }
      expect_zero(what, allocs);
    };
    leg("solve_wlis pooled ranks, main thread");
    std::thread outside([&] { leg("solve_wlis pooled ranks, outside pool"); });
    outside.join();
  }

  // Speculative patience: line-pattern values (k ~ 60) of twice
  // kSpeculateMinN elements, which the plan runs as index chunks on the
  // pool; every chunk's state lives on the caller's stack. Once from the
  // main thread and once from a std::thread outside the pool, each leg
  // checking that the solves forked on a pool of 2 or more workers.
  {
    const int64_t sn = 2 * internal::kSpeculateMinN;
    const std::vector<int64_t> s1 = line_pattern(sn, 100, 24);
    const std::vector<int64_t> s2 = line_pattern(sn, 100, 25);
    auto leg = [&](const char* what) {
      Solver ss;
      LisResult sout;
      for (int r = 0; r < 3; r++) {
        ss.solve_lis(s1, sout);
        ss.solve_lis(s2, sout);
      }
      const uint64_t spawned = scheduler_stats().spawns;
      const uint64_t start = begin_window();
      for (int r = 0; r < 5; r++) ss.solve_lis(r % 2 ? s2 : s1, sout);
      const uint64_t allocs = g_allocs.load() - start;
      if (num_workers() >= 2 && scheduler_stats().spawns == spawned) {
        std::printf("FAIL %-34s the speculation did not run\n", what);
        failures++;
      }
      expect_zero(what, allocs);
    };
    leg("solve_lis speculative, main thread");
    std::thread outside([&] { leg("solve_lis speculative, outside pool"); });
    outside.join();
  }

  // Packed solve_many: a batch of 64 queries of 512 elements, unweighted
  // and weighted, solved by min(64, num_workers()) pool tasks, each on the
  // context it owns. Which task takes which query changes from batch to
  // batch, and a context's scratch grows exactly to the largest query it
  // has met, so every query here needs the same scratch: 512 distinct
  // values, 63-bit (the hashed `a`, whose ranks come from the sort) or a
  // shuffle of 0..511 (the bitmap), each with k under the patience tiers'
  // 128 tails. Once from the main thread and once from a std::thread
  // outside the pool, each leg checking that the batch forked on a pool of
  // 2 or more workers.
  {
    constexpr int64_t kPacked = 64, pn = 512;
    std::vector<int64_t> shuffled(kPacked * pn);
    for (int64_t q = 0; q < kPacked; q++) {
      int64_t* v = shuffled.data() + q * pn;
      std::iota(v, v + pn, int64_t{0});
      for (int64_t i = pn - 1; i > 0; i--) {
        std::swap(v[i], v[uniform(30 + q, i, i + 1)]);
      }
    }
    std::vector<Query> pq(kPacked);
    for (int64_t q = 0; q < kPacked; q++) {
      const std::vector<int64_t>& in = q % 4 < 2 ? a : shuffled;
      pq[q].a = std::span<const int64_t>(in).subspan(q * pn, pn);
      if (q % 2 == 1) pq[q].w = std::span<const int64_t>(w).subspan(q * pn, pn);
    }
    auto leg = [&](const char* what) {
      Solver ps;
      std::vector<QueryResult> pr(kPacked);
      for (int r = 0; r < 10; r++) ps.solve_many(pq, pr);
      const uint64_t spawned = scheduler_stats().spawns;
      const uint64_t start = begin_window();
      for (int r = 0; r < 5; r++) ps.solve_many(pq, pr);
      const uint64_t allocs = g_allocs.load() - start;
      if (num_workers() >= 2 && scheduler_stats().spawns == spawned) {
        std::printf("FAIL %-34s the batch did not fork\n", what);
        failures++;
      }
      expect_zero(what, allocs);
    };
    leg("solve_many packed, main thread");
    std::thread outside([&] { leg("solve_many packed, outside pool"); });
    outside.join();
  }

  // Non-decreasing ties on int64 inputs route through the same compression
  // (kNonDecreasing ranking) inside the int64 overloads.
  Options nd_opts;
  nd_opts.ties = TiesPolicy::kNonDecreasing;
  Solver nd_solver(nd_opts);
  for (int r = 0; r < 3; r++) {
    nd_solver.solve_wlis(a, w, wlis_out);
    nd_solver.solve_wlis(a2, w, wlis_out);
  }
  base = begin_window();
  for (int r = 0; r < 5; r++) nd_solver.solve_wlis(r % 2 ? a2 : a, w, wlis_out);
  expect_zero("solve_wlis nondec ties", g_allocs.load() - base);
  for (int r = 0; r < 3; r++) {
    nd_solver.solve_lis(a, lis_out);
    nd_solver.solve_lis(bulk, lis_out);
  }
  base = begin_window();
  for (int r = 0; r < 5; r++) nd_solver.solve_lis(r % 2 ? bulk : a, lis_out);
  expect_zero("solve_lis nondec ties", g_allocs.load() - base);
  // Both inputs on the bitmap path, which adds the per-rank counts.
  for (int r = 0; r < 3; r++) {
    nd_solver.solve_lis(bulk, lis_out);
    nd_solver.solve_lis(steep, lis_out);
  }
  base = begin_window();
  for (int r = 0; r < 5; r++) {
    nd_solver.solve_lis(r % 2 ? steep : bulk, lis_out);
  }
  expect_zero("solve_lis nondec bitmap ranks", g_allocs.load() - base);
  // A custom order under kNonDecreasing solves on its rank image too.
  for (int r = 0; r < 3; r++) {
    for (const std::vector<int64_t>* in : {&a, &bulk}) {
      nd_solver.solve_lis(std::span<const int64_t>(*in), lis_out,
                          std::greater<int64_t>{});
    }
  }
  base = begin_window();
  for (int r = 0; r < 5; r++) {
    nd_solver.solve_lis(std::span<const int64_t>(r % 2 ? bulk : a), lis_out,
                        std::greater<int64_t>{});
  }
  expect_zero("solve_lis nondec custom order", g_allocs.load() - base);

  // Guarded steady state: a live cancel token plus a (far) deadline install
  // the exec-context scope on every call, so each round boundary runs a real
  // poll. The guards — and any compiled-in-but-disarmed failpoint sites on
  // the path — must add ZERO warm-path allocations. (The token itself
  // allocates once at make(), outside the window.)
  Options guard_opts;
  guard_opts.cancel = CancelToken::make();
  guard_opts.deadline_ms = int64_t{3600} * 1000;
  Solver guarded(guard_opts);
  for (int r = 0; r < 3; r++) {
    guarded.solve_wlis(a, w, wlis_out);
    guarded.solve_wlis(a2, w, wlis_out);
    guarded.solve_lis(a, lis_out);
  }
  base = begin_window();
  for (int r = 0; r < 5; r++) {
    guarded.solve_wlis(r % 2 ? a2 : a, w, wlis_out);
    guarded.solve_lis(a, lis_out);
  }
  expect_zero("guarded solves (token + deadline)", g_allocs.load() - base);

  // Session appends: a sliding session whose window buffer and pile tops
  // have reached their peak size appends without allocating, in both
  // sliding modes, on a random-walk feed and on the uniform 63-bit `a`.
  // The warm-up covers the window buffer's first compaction (the exact
  // mode compacts after 2 * kCap appends).
  constexpr int64_t kCap = 4096;
  std::vector<int64_t> walk(n);
  for (int64_t i = 0, p = 100000; i < n; i++) {
    p += static_cast<int64_t>(uniform(12, i, 401)) - 200;
    walk[i] = p;
  }
  for (WindowMode mode :
       {WindowMode::kSlidingAmortized, WindowMode::kSlidingExact}) {
    const bool exact = mode == WindowMode::kSlidingExact;
    for (const std::vector<int64_t>* feed : {&walk, &a}) {
      Options o;
      o.window = mode;
      o.window_capacity = kCap;
      Solver ss(o);
      LisSession sess = ss.make_session();
      // The exact mode replays its window on every append, so it measures
      // fewer ticks.
      const int64_t warm = 3 * kCap, end = exact ? warm + 1024 : n;
      for (int64_t i = 0; i < warm; i++) sess.append((*feed)[i]);
      base = begin_window();
      for (int64_t i = warm; i < end; i++) sess.append((*feed)[i]);
      char what[64];
      std::snprintf(what, sizeof what, "session append %s, %s",
                    exact ? "exact" : "amortized",
                    feed == &walk ? "walk" : "uniform");
      expect_zero(what, g_allocs.load() - base);
    }
  }

  // Serving-engine steady state: a warm tenant served on the caller's
  // thread — lease acquire (table hit: an LRU splice, no alloc), the
  // solve on the tenant's warm workspaces, release re-measure — plus a
  // coalesced stateless solve (caller-stack request, ring enqueue, a pass
  // this caller runs on the batch solver), and appends to a warm windowed
  // tenant. Zero allocations once the ring, the tenants, and both solvers
  // are warm.
  {
    serve::Engine engine{serve::EngineConfig{}};
    const uint64_t kSeries = 7;
    std::vector<int64_t> dp_out(static_cast<size_t>(n));
    Query wq, wq2, lq;
    wq.a = a;
    wq.w = w;
    wq.dp_out = dp_out;
    wq2.a = a2;
    wq2.w = w;
    wq2.dp_out = dp_out;
    lq.a = a;
    QueryResult qr;
    for (int r = 0; r < 3; r++) {
      (void)engine.solve_warm(kSeries, wq);
      (void)engine.solve_warm(kSeries, wq2);
      engine.solve(std::span<const Query>(&lq, 1),
                   std::span<QueryResult>(&qr, 1));
    }
    base = begin_window();
    for (int r = 0; r < 5; r++) {
      (void)engine.solve_warm(kSeries, r % 2 ? wq2 : wq);
      engine.solve(std::span<const Query>(&lq, 1),
                   std::span<QueryResult>(&qr, 1));
    }
    expect_zero("engine warm serving (warm + coalesced)",
                g_allocs.load() - base);
    if (wlis_out.best != 0 && qr.k == 0) {
      std::printf("FAIL engine returned an empty result\n");
      failures++;
    }
  }
  {
    serve::EngineConfig cfg;
    cfg.table.solver.window = WindowMode::kSlidingAmortized;
    cfg.table.solver.window_capacity = kCap;
    serve::Engine engine{cfg};
    const uint64_t kSeries = 9;
    for (int64_t i = 0; i < 3 * kCap; i++) (void)engine.append(kSeries, a[i]);
    base = begin_window();
    for (int64_t i = 3 * kCap; i < 5 * kCap; i++) {
      (void)engine.append(kSeries, a[i]);
    }
    expect_zero("engine append (windowed tenant)", g_allocs.load() - base);
  }

  // Sanity: the results are still right (vs a fresh one-shot call, which
  // of course allocates — outside any measured window).
  WlisResult ref = wlis(a, w);
  if (wlis_out.dp != ref.dp || wlis_out.best != ref.best) {
    std::printf("FAIL warm results diverge from one-shot reference\n");
    failures++;
  }
  if (failures == 0) std::printf("alloc_steady: PASS\n");
  return failures == 0 ? 0 : 1;
}
