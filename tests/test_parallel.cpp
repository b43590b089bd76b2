// Tests for the fork-join runtime and the parallel primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/primitives.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/cancel.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/generators.hpp"

namespace parlis {
namespace {

void spin_us(int64_t us) {
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST(Scheduler, HasWorkers) { EXPECT_GE(num_workers(), 1); }

TEST(Scheduler, ParDoRunsBoth) {
  int a = 0, b = 0;
  par_do([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Scheduler, NestedParDo) {
  std::atomic<int64_t> sum{0};
  std::function<void(int, int)> rec = [&](int lo, int hi) {
    if (hi - lo == 1) {
      sum.fetch_add(lo);
      return;
    }
    int mid = lo + (hi - lo) / 2;
    par_do([&] { rec(lo, mid); }, [&] { rec(mid, hi); });
  };
  rec(0, 1 << 12);
  EXPECT_EQ(sum.load(), (int64_t{1} << 11) * ((1 << 12) - 1));
}

// A task polls the scope of the call that forked it, on whichever thread
// runs it: every index of a loop whose tasks are stolen sees the caller's.
// The loop reruns until a worker steals (at most 5 s), since on a loaded
// host the worker may first run after one loop's 5 ms.
TEST(Scheduler, TaskRunsUnderItsForkersScope) {
  if (num_workers() < 2) GTEST_SKIP() << "one worker steals nothing";
  const CancelToken token = CancelToken::make();
  internal::CancelScope scope(token, 0);
  const internal::ExecContext* caller = internal::tl_exec_context;
  ASSERT_NE(caller, nullptr);
  const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool stolen = false;
  while (!stolen && std::chrono::steady_clock::now() < cap) {
    std::vector<const internal::ExecContext*> seen(256, nullptr);
    const uint64_t steals = scheduler_stats().steals;
    parallel_for(
        0, 256,
        [&](int64_t i) {
          spin_us(20);
          seen[i] = internal::tl_exec_context;
        },
        1);
    stolen = scheduler_stats().steals > steals;
    ASSERT_EQ(std::count(seen.begin(), seen.end(), caller), 256);
  }
  EXPECT_TRUE(stolen) << "no task was stolen within 5 s";
  EXPECT_EQ(internal::tl_exec_context, caller);
}

thread_local bool tl_thief = false;

// A thread that joins its own loop steals other callers' tasks while it
// waits. Such a task polls its forker's scope (here none), never the
// thief's tripped one.
TEST(Scheduler, StolenTaskIgnoresTheRunnersScope) {
  if (num_workers() < 2) GTEST_SKIP() << "one worker steals nothing";
  std::atomic<bool> stop{false};
  std::atomic<int64_t> stolen{0}, scoped{0};
  std::thread thief([&] {
    tl_thief = true;
    const CancelToken token = CancelToken::make();
    token.request_cancel();
    internal::CancelScope scope(token, 0);
    while (!stop.load()) {
      parallel_for(0, 64, [](int64_t) { spin_us(5); }, 1);
    }
  });
  std::thread caller([&] {
    const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (stolen.load() == 0 && std::chrono::steady_clock::now() < cap) {
      parallel_for(
          0, 64,
          [&](int64_t) {
            spin_us(5);
            if (!tl_thief) return;
            stolen.fetch_add(1);
            if (internal::tl_exec_context != nullptr) scoped.fetch_add(1);
          },
          1);
    }
    stop = true;
  });
  caller.join();
  thief.join();
  ASSERT_GT(stolen.load(), 0) << "the thief stole no task within 5 s";
  EXPECT_EQ(scoped.load(), 0) << "of " << stolen.load() << " stolen tasks";
}

// Any thread may run a packed solve_many task: here an outside thread
// joining its own loops takes them from the shared submission queue while
// another outside thread solves. A task solves every query it takes on the
// context it owns, so each result equals a thread-sequential solve_query.
TEST(Scheduler, SolveManyTaskStolenByAnOutsideThread) {
  if (num_workers() < 2) GTEST_SKIP() << "one worker steals nothing";
  constexpr int64_t kQueries = 64;
  // Mixed packed queries: unweighted and weighted, 64 to 1009 elements,
  // values over a narrow range (ranked by the bitmap) or 63 bits (sorted).
  std::vector<std::vector<int64_t>> a(kQueries), w(kQueries);
  std::vector<std::vector<int64_t>> dp(2 * kQueries);
  std::vector<std::vector<int32_t>> rank(2 * kQueries);
  std::vector<Query> want_q(kQueries), got_q(kQueries);
  for (int64_t q = 0; q < kQueries; q++) {
    const int64_t n = 64 + 15 * q;
    for (int64_t i = 0; i < n; i++) {
      a[q].push_back(q % 4 < 2 ? static_cast<int64_t>(uniform(q, i, 4 * n))
                               : static_cast<int64_t>(hash64(q, i) >> 1));
    }
    want_q[q].a = got_q[q].a = a[q];
    if (q % 2 == 0) {
      rank[q].resize(n);
      rank[kQueries + q].resize(n);
      want_q[q].rank_out = rank[q];
      got_q[q].rank_out = rank[kQueries + q];
      continue;
    }
    for (int64_t i = 0; i < n; i++) {
      w[q].push_back(1 + static_cast<int64_t>(uniform(kQueries + q, i, 1000)));
    }
    dp[q].resize(n);
    dp[kQueries + q].resize(n);
    want_q[q].w = got_q[q].w = w[q];
    want_q[q].dp_out = dp[q];
    got_q[q].dp_out = dp[kQueries + q];
  }
  std::vector<QueryResult> want(kQueries), got(kQueries);
  {
    Solver ref;
    const bool prev = set_thread_sequential(true);
    for (int64_t q = 0; q < kQueries; q++) ref.solve_query(want_q[q], want[q]);
    set_thread_sequential(prev);
  }
  Solver s;
  s.solve_many(got_q, got);  // warm the task contexts
  std::atomic<int64_t> wrong{0};
  const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool stolen = false;
  while (!stolen && std::chrono::steady_clock::now() < cap) {
    const uint64_t steals = scheduler_stats().steals;
    std::atomic<bool> done{false};
    std::thread thief([&] {
      while (!done.load()) {
        parallel_for(0, 64, [](int64_t) { spin_us(5); }, 1);
      }
    });
    std::thread solver([&] {
      for (int r = 0; r < 200; r++) {
        s.solve_many(got_q, got);
        for (int64_t q = 0; q < kQueries; q++) {
          const bool same =
              got[q].k == want[q].k && got[q].best == want[q].best &&
              rank[q] == rank[kQueries + q] && dp[q] == dp[kQueries + q];
          if (!same) wrong.fetch_add(1);
        }
      }
      done = true;
    });
    solver.join();
    thief.join();
    stolen = scheduler_stats().steals > steals;
  }
  EXPECT_TRUE(stolen) << "no task was stolen within 5 s";
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  // Bounds far from 0 too: the splits are int64 halvings of [lo, hi).
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kHalf = int64_t{1} << 16;
  const std::pair<int64_t, int64_t> ranges[] = {
      {0, 100000}, {-kHalf, kHalf}, {kMax - kHalf, kMax}};
  for (const auto& [lo, hi] : ranges) {
    std::vector<std::atomic<int32_t>> hits(hi - lo);
    parallel_for(lo, hi, [&](int64_t i) { hits[i - lo].fetch_add(1); });
    for (int64_t i = lo; i < hi; i++) ASSERT_EQ(hits[i - lo].load(), 1) << i;
  }
}

TEST(ParallelFor, EmptyAndSingleton) {
  int calls = 0;
  parallel_for(5, 5, [&](int64_t) { calls++; });
  EXPECT_EQ(calls, 0);
  parallel_for(7, 8, [&](int64_t i) {
    calls++;
    EXPECT_EQ(i, 7);
  });
  EXPECT_EQ(calls, 1);
}

TEST(Reduce, SumMatchesSequential) {
  std::vector<int64_t> xs(123457);
  for (size_t i = 0; i < xs.size(); i++) xs[i] = hash64(1, i) % 1000;
  int64_t want = std::accumulate(xs.begin(), xs.end(), int64_t{0});
  EXPECT_EQ(reduce_sum(xs), want);
}

TEST(Reduce, MaxWithIdentity) {
  std::vector<int64_t> xs = {-5, -2, -9};
  int64_t got = reduce(xs, INT64_MIN,
                       [](int64_t a, int64_t b) { return std::max(a, b); });
  EXPECT_EQ(got, -2);
  EXPECT_EQ(reduce(std::vector<int64_t>{}, INT64_MIN,
                   [](int64_t a, int64_t b) { return std::max(a, b); }),
            INT64_MIN);
}

TEST(Scan, ExclusivePlusMatchesSequential) {
  for (int64_t n : {0, 1, 5, 4096, 4097, 100001}) {
    std::vector<int64_t> xs(n), want(n);
    for (int64_t i = 0; i < n; i++) xs[i] = hash64(2, i) % 100;
    int64_t acc = 0;
    for (int64_t i = 0; i < n; i++) {
      want[i] = acc;
      acc += xs[i];
    }
    std::vector<int64_t> got = xs;
    int64_t total = scan_exclusive(got);
    EXPECT_EQ(total, acc) << n;
    EXPECT_EQ(got, want) << n;
  }
}

TEST(Scan, LastDefinedMonoid) {
  // The "copy previous unless defined" scan used by the survivor mappings.
  constexpr int64_t kUndef = -1;
  std::vector<int64_t> xs = {kUndef, 3, kUndef, kUndef, 7, kUndef};
  std::vector<int64_t> out(xs.size());
  scan_exclusive_index<int64_t>(
      static_cast<int64_t>(xs.size()), kUndef,
      [&](int64_t i) { return xs[i]; },
      [&](int64_t i, int64_t pre) { out[i] = xs[i] == kUndef ? pre : xs[i]; },
      [](int64_t a, int64_t b) { return b == kUndef ? a : b; });
  EXPECT_EQ(out, (std::vector<int64_t>{kUndef, 3, 3, 3, 7, 7}));
}

TEST(Pack, SelectsMatchingIndices) {
  auto idx = pack_index(10, [](int64_t i) { return i % 3 == 0; });
  EXPECT_EQ(idx, (std::vector<int64_t>{0, 3, 6, 9}));
}

TEST(Filter, KeepsOrder) {
  std::vector<int64_t> xs(50000);
  for (size_t i = 0; i < xs.size(); i++) xs[i] = hash64(3, i) % 97;
  auto got = filter(xs, [](int64_t x) { return x % 2 == 0; });
  std::vector<int64_t> want;
  for (int64_t x : xs) {
    if (x % 2 == 0) want.push_back(x);
  }
  EXPECT_EQ(got, want);
}

TEST(Merge, RandomizedAgainstStdMerge) {
  for (int trial = 0; trial < 20; trial++) {
    int64_t na = hash64(4, trial) % 20000;
    int64_t nb = hash64(5, trial) % 20000;
    std::vector<int64_t> a(na), b(nb);
    for (int64_t i = 0; i < na; i++) a[i] = hash64(6, trial * 100000 + i) % 500;
    for (int64_t i = 0; i < nb; i++) b[i] = hash64(7, trial * 100000 + i) % 500;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<int64_t> got(na + nb), want(na + nb);
    merge_into(a.begin(), na, b.begin(), nb, got.begin(),
               std::less<int64_t>{});
    std::merge(a.begin(), a.end(), b.begin(), b.end(), want.begin());
    ASSERT_EQ(got, want) << trial;
  }
}

TEST(Merge, Stability) {
  // Pairs (key, origin): on ties, all of a's elements must precede b's.
  using P = std::pair<int, int>;
  std::vector<P> a = {{1, 0}, {1, 0}, {2, 0}}, b = {{1, 1}, {2, 1}};
  std::vector<P> out(5);
  merge_into(a.begin(), 3, b.begin(), 2, out.begin(),
             [](const P& x, const P& y) { return x.first < y.first; });
  EXPECT_EQ(out, (std::vector<P>{{1, 0}, {1, 0}, {1, 1}, {2, 0}, {2, 1}}));
}

TEST(Sort, RandomizedAgainstStdSort) {
  for (int64_t n : {0, 1, 2, 1000, 8192, 8193, 300000}) {
    std::vector<int64_t> xs(n);
    for (int64_t i = 0; i < n; i++) xs[i] = hash64(8, n * 31 + i);
    std::vector<int64_t> want = xs;
    std::sort(want.begin(), want.end());
    sort_inplace(xs);
    ASSERT_EQ(xs, want) << n;
  }
}

TEST(Sort, StableOnTies) {
  using P = std::pair<int, int>;
  std::vector<P> xs(20000);
  for (size_t i = 0; i < xs.size(); i++) {
    xs[i] = {static_cast<int>(hash64(9, i) % 50), static_cast<int>(i)};
  }
  std::vector<P> want = xs;
  std::stable_sort(want.begin(), want.end(),
                   [](const P& x, const P& y) { return x.first < y.first; });
  sort_inplace(xs, [](const P& x, const P& y) { return x.first < y.first; });
  EXPECT_EQ(xs, want);
}

TEST(CountingSort, StableGrouping) {
  constexpr int64_t n = 100000, buckets = 37;
  std::vector<int64_t> key(n);
  for (int64_t i = 0; i < n; i++) key[i] = hash64(10, i) % buckets;
  auto [order, offsets] = counting_sort_index(
      n, buckets, [&](int64_t i) { return key[i]; });
  ASSERT_EQ(offsets.size(), static_cast<size_t>(buckets + 1));
  EXPECT_EQ(offsets[0], 0);
  EXPECT_EQ(offsets[buckets], n);
  for (int64_t b = 0; b < buckets; b++) {
    for (int64_t t = offsets[b]; t < offsets[b + 1]; t++) {
      ASSERT_EQ(key[order[t]], b);
      if (t > offsets[b]) {
        ASSERT_LT(order[t - 1], order[t]);  // stability
      }
    }
  }
}

TEST(Random, DeterministicAndSpread) {
  EXPECT_EQ(hash64(1, 2), hash64(1, 2));
  EXPECT_NE(hash64(1, 2), hash64(1, 3));
  // Chi-squared-lite: buckets should all be populated.
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 16000; i++) counts[uniform(42, i, 16)]++;
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Generators, RangePatternBounds) {
  auto a = range_pattern(10000, 7, 1);
  for (int64_t x : a) {
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 7);
  }
}

TEST(Generators, LinePatternCalibration) {
  // The line pattern's realized LIS length should be within ~2x of target.
  auto a = line_pattern(100000, 300, 2);
  // quick sequential LIS length
  std::vector<int64_t> tails;
  for (int64_t x : a) {
    auto it = std::lower_bound(tails.begin(), tails.end(), x);
    if (it == tails.end()) tails.push_back(x);
    else if (x < *it) *it = x;
  }
  int64_t k = static_cast<int64_t>(tails.size());
  EXPECT_GT(k, 300 / 3);
  EXPECT_LT(k, 300 * 3);
}

TEST(Generators, WeightsInRange) {
  auto w = uniform_weights(5000, 3);
  for (int64_t x : w) {
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 1000);
  }
}

}  // namespace
}  // namespace parlis
