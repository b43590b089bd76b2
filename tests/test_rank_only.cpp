// rank_only_into (util/rank_space.hpp) against rank_space_into: every case
// must give the same `rank` and `n_distinct` under both ties policies,
// whichever path it takes. int64 keys under std::less whose span fits in
// rank_only_max_words(n) words take the bitmap (order, pos and qpos left
// empty); everything else takes the sort (all four arrays filled), so each
// case also checks which path it took. From internal::kRankPoolMinN keys
// up the bitmap's plan runs on the pool: those cases check the path it
// picked (word segments on banded keys, the caller's set elsewhere) and,
// by the scheduler's spawn count, that nothing forks where the plan must
// stay on the caller. The Solver cases run the plans that call it (the
// value cache, kNonDecreasing rank images) against seq_avl_wlis /
// seq_bs_ranks.
//
// The suite name puts it in the pinned-thread differential legs (1, 4 and
// hw workers), in the forced-scalar leg and in the TSan job, which races
// the pooled min/max pass and the owned word segments at 4 workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/wlis/seq_avl.hpp"

namespace parlis {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

using Vec = std::vector<int64_t>;

constexpr TiesPolicy kPolicies[] = {TiesPolicy::kStrict,
                                    TiesPolicy::kNonDecreasing};

const char* name(TiesPolicy ties) {
  return ties == TiesPolicy::kStrict ? "strict" : "nondec";
}

// Ranks `keys` both ways under `ties` (rank_only_into through the warm
// pair `rs`/`scratch`) and checks they agree and that the bitmap ran
// exactly when `bitmap`.
template <typename Key, typename Less = std::less<Key>>
void expect_matches(const std::vector<Key>& keys, TiesPolicy ties,
                    bool bitmap, RankSpace& rs, RankSpaceScratch& scratch,
                    Less less = Less{}) {
  SCOPED_TRACE(name(ties));
  const std::span<const Key> s(keys);
  RankSpace want;
  RankSpaceScratch want_scratch;
  rank_space_into<Key, Less>(s, ties, want, want_scratch, less);
  rank_only_into<Key, Less>(s, ties, rs, scratch, less);
  EXPECT_EQ(rs.rank, want.rank);
  EXPECT_EQ(rs.n_distinct, want.n_distinct);
  if (bitmap) {
    EXPECT_TRUE(rs.order.empty() && rs.pos.empty() && rs.qpos.empty());
  } else {
    EXPECT_EQ(rs.order, want.order);
    EXPECT_EQ(rs.qpos, want.qpos);
  }
}

template <typename Key, typename Less = std::less<Key>>
void expect_matches(const std::vector<Key>& keys, bool bitmap,
                    Less less = Less{}) {
  for (const TiesPolicy ties : kPolicies) {
    RankSpace rs;
    RankSpaceScratch scratch;
    expect_matches<Key, Less>(keys, ties, bitmap, rs, scratch, less);
  }
}

// n values in [lo, lo + 64 * words - 1], both ends included, with
// duplicates and values on both sides of every word edge.
Vec spanning(int64_t n, int64_t lo, int64_t words, uint64_t seed) {
  const uint64_t top = 64 * static_cast<uint64_t>(words) - 1;
  Vec a(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; i++) {
    uint64_t off = uniform(seed, i, top + 1);
    if (i % 5 == 1) off = (off | 63) - (i % 2);  // a word's last bits
    if (i % 5 == 2) off &= ~uint64_t{63};        // a word's first bit
    a[i] = static_cast<int64_t>(static_cast<uint64_t>(lo) + off);
  }
  a[0] = lo;
  a[n - 1] = static_cast<int64_t>(static_cast<uint64_t>(lo) + top);
  return a;
}

TEST(RankOnlyDifferential, ExtremesTakeTheSort) {
  // The span is 2^64 - 1: computed in int64 it would wrap.
  expect_matches(Vec{kMax, kMin}, false);
  expect_matches(Vec{0, kMax, -1, kMin, kMin, 5, kMax}, false);
  Vec mixed(3000);
  for (int64_t i = 0; i < 3000; i++) {
    const uint64_t u = uniform(3, i, 4);
    mixed[i] = u == 0 ? kMin : u == 1 ? kMax : static_cast<int64_t>(u);
  }
  expect_matches(mixed, false);
}

TEST(RankOnlyDifferential, SmallSpansAtTheInt64Ends) {
  expect_matches(spanning(500, kMin, 3, 4), true);
  expect_matches(spanning(500, kMax - 64 * 3 + 1, 3, 5), true);
}

TEST(RankOnlyDifferential, ValuesStraddlingZero) {
  Vec a(4000);
  for (int64_t i = 0; i < 4000; i++) {
    a[i] = static_cast<int64_t>(uniform(6, i, 2001)) - 1000;
  }
  expect_matches(a, true);
  expect_matches(Vec{-1, 0, 1, -1, 1, 0}, true);
}

TEST(RankOnlyDifferential, AllEqual) {
  expect_matches(Vec(3000, 42), true);
  expect_matches(Vec(3000, kMin), true);
  expect_matches(Vec(3000, kMax), true);
}

TEST(RankOnlyDifferential, EmptyAndSingleton) {
  expect_matches(Vec{}, false);  // n = 0 has no span; the sort is a no-op
  expect_matches(Vec{kMin}, true);
  expect_matches(Vec{-7}, true);
}

TEST(RankOnlyDifferential, SpansOf63To65Words) {
  for (const int64_t words : {63, 64, 65}) {
    SCOPED_TRACE(testing::Message() << words << " words");
    expect_matches(spanning(1000, -64 * 30 + 3, words, 7 + words), true);
  }
}

TEST(RankOnlyDifferential, SpanAtTheCapAndPastIt) {
  for (const int64_t n : {int64_t{2}, int64_t{100}, int64_t{3000}}) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    const int64_t cap = static_cast<int64_t>(rank_only_max_words(n));
    ASSERT_EQ(cap, 2 * n);
    // At the cap, max - min is 64 * cap - 1; one more is past it.
    const Vec at = spanning(n, -1000, cap, 8);
    Vec past = at;
    past.back() += 1;
    expect_matches(at, true);
    expect_matches(past, false);
  }
}

TEST(RankOnlyDifferential, OtherKeysAndOrdersTakeTheSort) {
  const std::vector<double> d = {0.5, -0.0, 0.0, -1.5, 0.0, -0.0, 2.0};
  expect_matches(d, false);
  Vec a(2000);
  for (int64_t i = 0; i < 2000; i++) {
    a[i] = static_cast<int64_t>(uniform(9, i, 300));
  }
  expect_matches(a, false, std::greater<int64_t>{});
}

// One warm pair across both paths, policies and sizes: the bitmap clears
// what the sort left, and the sort refills it.
TEST(RankOnlyDifferential, WarmPairAlternatesThePaths) {
  RankSpace rs;
  RankSpaceScratch scratch;
  const Vec narrow = spanning(5000, 10, 40, 10);
  const Vec wide = spanning(5000, -5, 10001, 11);
  const Vec small = spanning(300, 0, 600, 12);
  for (int turn = 0; turn < 3; turn++) {
    for (const TiesPolicy ties : kPolicies) {
      expect_matches(narrow, ties, true, rs, scratch);
      expect_matches(wide, ties, false, rs, scratch);
      expect_matches(small, ties, true, rs, scratch);
    }
  }
}

// Random spans around the cap under both policies.
TEST(RankOnlyDifferential, RandomSpansAroundTheCap) {
  for (uint64_t seed = 0; seed < 40; seed++) {
    const int64_t n = 2 + static_cast<int64_t>(uniform(20, seed, 5000));
    const uint64_t cap = rank_only_max_words(n);
    const int64_t words = 1 + static_cast<int64_t>(uniform(21, seed, 2 * cap));
    const int64_t lo = static_cast<int64_t>(hash64(22, seed)) / 4;
    SCOPED_TRACE(testing::Message() << "n " << n << ", words " << words);
    expect_matches(spanning(n, lo, words, 23 + seed),
                   static_cast<uint64_t>(words) <= cap);
  }
}

// ---- The Solver's plans on bitmap ranks -------------------------------

WlisResult oracle(const Vec& a, const Vec& w) {
  WlisResult r;
  r.dp = seq_avl_wlis(a, w);
  for (int64_t d : r.dp) r.best = std::max(r.best, d);
  for (int32_t t : seq_bs_ranks(a)) r.k = std::max(r.k, t);
  return r;
}

Vec nondec_image(const Vec& a) {
  return rank_space(std::span<const int64_t>(a), TiesPolicy::kNonDecreasing)
      .rank;
}

void expect_same(const WlisResult& got, const WlisResult& want) {
  EXPECT_EQ(got.dp, want.dp);
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.k, want.k);
}

Vec weights(int64_t n, uint64_t seed) {
  Vec w(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; i++) {
    w[i] = static_cast<int64_t>(uniform(seed, i, 2001)) - 500;
  }
  return w;
}

// A falling trend with noise: span ~ 3n, the bitmap path.
Vec trend(int64_t n, uint64_t seed) {
  Vec a(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; i++) {
    a[i] = -2 * i + static_cast<int64_t>(uniform(seed, i, n));
  }
  return a;
}

TEST(RankOnlyDifferential, RawWeightedMissThenHit) {
  for (const int64_t n : {int64_t{700}, int64_t{30000}}) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    const Vec a = trend(n, 30), b = trend(n, 31);
    const Vec w1 = weights(n, 32), w2 = weights(n, 33);
    Solver s;
    WlisResult out;
    EXPECT_FALSE(s.solve_wlis(a, w1, out));
    expect_same(out, oracle(a, w1));
    EXPECT_TRUE(s.solve_wlis(a, w2, out));  // the bitmap ranks, cached
    expect_same(out, oracle(a, w2));
    EXPECT_FALSE(s.solve_wlis(b, w2, out));
    expect_same(out, oracle(b, w2));
    EXPECT_TRUE(s.solve_wlis(b, w1, out));
    expect_same(out, oracle(b, w1));
  }
}

TEST(RankOnlyDifferential, Int64NonDecreasingLisAndWlis) {
  Options o;
  o.ties = TiesPolicy::kNonDecreasing;
  for (const int64_t n : {int64_t{1}, int64_t{900}, int64_t{25000}}) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    Vec dup(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; i++) {
      dup[i] = static_cast<int64_t>(uniform(34, i, 1 + n / 8)) - n / 16;
    }
    const Vec falling = trend(n, 35);
    for (const Vec* a : {static_cast<const Vec*>(&dup), &falling}) {
      const Vec image = nondec_image(*a);
      const Vec w = weights(n, 36);
      Solver s(o);
      LisResult lr;
      s.solve_lis(*a, lr);
      EXPECT_EQ(lr.rank, seq_bs_ranks(image));
      WlisResult out;
      EXPECT_FALSE(s.solve_wlis(*a, w, out));
      expect_same(out, oracle(image, w));
    }
  }
}

// One Solver per policy: bitmap-ranked int64 solves take turns with typed
// double solves and a wide-span int64 solve, which run the sort on the
// same rank space.
TEST(RankOnlyDifferential, SolverAlternatesBitmapAndSortSolves) {
  const int64_t n = 6000;
  const Vec narrow = trend(n, 40);
  const Vec wide = spanning(n, -3, 4 * n, 41);
  std::vector<double> d(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; i++) d[i] = 0.5 * static_cast<double>(wide[i]);
  const std::span<const double> ds(d);
  const Vec w = weights(n, 42);
  for (const TiesPolicy ties : kPolicies) {
    SCOPED_TRACE(name(ties));
    const bool strict = ties == TiesPolicy::kStrict;
    auto image = [&](const Vec& v) { return strict ? v : nondec_image(v); };
    const WlisResult want_n = oracle(image(narrow), w);
    const WlisResult want_w = oracle(image(wide), w);
    const std::vector<int32_t> lis_n = seq_bs_ranks(image(narrow));
    const std::vector<int32_t> lis_w = seq_bs_ranks(image(wide));
    Options o;
    o.ties = ties;
    Solver s(o);
    WlisResult out;
    LisResult lr;
    for (int turn = 0; turn < 2; turn++) {
      s.solve_wlis(narrow, w, out);
      expect_same(out, want_n);
      s.solve_wlis(ds, w, out);
      expect_same(out, want_w);
      s.solve_lis(narrow, lr);
      EXPECT_EQ(lr.rank, lis_n);
      s.solve_lis(ds, lr);
      EXPECT_EQ(lr.rank, lis_w);
      s.solve_wlis(wide, w, out);
      expect_same(out, want_w);
      s.solve_wlis(narrow, w, out);
      expect_same(out, want_n);
    }
  }
}

// ---- The bitmap's plan on the pool ------------------------------------

using internal::BitmapPath;
constexpr int64_t kPoolN = internal::kRankPoolMinN;

// Scheduler spawns during f().
template <typename F>
uint64_t spawns_of(const F& f) {
  const uint64_t before = scheduler_stats().spawns;
  f();
  return scheduler_stats().spawns - before;
}

// rank_only_into on `keys` under both policies, against rank_space_into;
// then the same keys again through internal::rank_by_bitmap on the warm
// pair. Returns the path the plan took (the same under both policies).
BitmapPath expect_plan(const Vec& keys) {
  BitmapPath path = BitmapPath::kTooWide;
  for (const TiesPolicy ties : kPolicies) {
    SCOPED_TRACE(name(ties));
    const std::span<const int64_t> s(keys);
    RankSpace want, rs;
    RankSpaceScratch want_scratch, scratch;
    rank_space_into<int64_t>(s, ties, want, want_scratch);
    rank_only_into<int64_t>(s, ties, rs, scratch);
    EXPECT_EQ(rs.rank, want.rank);
    EXPECT_EQ(rs.n_distinct, want.n_distinct);
    path = internal::rank_by_bitmap(s, ties, rs, scratch);
    EXPECT_EQ(rs.order.empty(), path != BitmapPath::kTooWide);
    EXPECT_EQ(rs.rank, want.rank);
    EXPECT_EQ(rs.n_distinct, want.n_distinct);
  }
  return path;
}

// The plan's path at n >= kPoolN: the caller's on 1 worker, `on4` on 4
// workers (the suite's own pin, the 4-worker differential leg and the TSan
// job). The segments' width, and so their reads, depend on the pool's
// size: other sizes check the ranks only.
void expect_path(BitmapPath got, BitmapPath on4) {
  if (num_workers() == 1) {
    EXPECT_EQ(got, on4 == BitmapPath::kTooWide ? on4 : BitmapPath::kCaller);
  } else if (num_workers() == 4) {
    EXPECT_EQ(got, on4);
  }
}

// Line-pattern values over exactly `span` values: a falling trend plus
// noise in [0, n), with the ends pinned to span - 1 and 0.
Vec line_with_span(int64_t n, int64_t span, uint64_t seed) {
  Vec a(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; i++) {
    a[i] = (span - n) / (n - 1) * (n - 1 - i) +
           static_cast<int64_t>(uniform(seed, i, n));
  }
  a[0] = span - 1;
  a[n - 1] = 0;
  return a;
}

// At the size threshold and one below it, on the sweep's shapes: falling
// lines over 2n, 100n and exactly rank_only_max_words(n) words, uniform
// keys over exactly that many words, one word past it and one word below
// it, and all-equal keys.
TEST(RankOnlyDifferential, PooledPlanAtTheThreshold) {
  for (const int64_t n : {kPoolN - 1, kPoolN}) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    const int64_t cap = 64 * static_cast<int64_t>(rank_only_max_words(n));
    auto on4 = [&](BitmapPath p) {
      return n < kPoolN ? BitmapPath::kCaller : p;
    };
    // The 2n line's blocks each meet most segments, the 100n line's one or
    // two; uniform keys meet them all.
    expect_path(expect_plan(line_with_span(n, 2 * n, 50)),
                on4(BitmapPath::kCaller));
    expect_path(expect_plan(line_with_span(n, 100 * n, 51)),
                on4(BitmapPath::kSegments));
    expect_path(expect_plan(line_with_span(n, cap, 49)),
                on4(BitmapPath::kSegments));
    expect_path(expect_plan(spanning(n, -7, cap / 64, 52)),
                on4(BitmapPath::kCaller));
    expect_path(expect_plan(spanning(n, -7, cap / 64 + 1, 53)),
                BitmapPath::kTooWide);
    expect_path(expect_plan(spanning(n, 1000, cap / 64 - 1, 54)),
                on4(BitmapPath::kCaller));
    expect_path(expect_plan(Vec(static_cast<size_t>(n), -3)),
                on4(BitmapPath::kSegments));
  }
}

// Keys on the first and last bit of every word that starts or ends a
// 16-word run, which includes each segment's first and last word for every
// pool size up to 32 workers: sorted (banded: the owned segments) and
// shuffled (the caller's set).
TEST(RankOnlyDifferential, PooledPlanSegmentEdges) {
  const int64_t n = kPoolN;
  const int64_t words = 100 * n / 64;
  Vec edges;
  for (int64_t w = 0; w < words; w++) {
    if (w % 16 == 0 || w % 16 == 15) {
      edges.push_back(64 * w);
      edges.push_back(64 * w + 63);
    }
  }
  ASSERT_LT(static_cast<int64_t>(edges.size()), n);
  Vec a(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; i++) {
    a[i] = i < static_cast<int64_t>(edges.size())
               ? edges[i]
               : static_cast<int64_t>(uniform(55, i, 64 * words));
  }
  std::sort(a.begin(), a.end());
  expect_path(expect_plan(a), BitmapPath::kSegments);
  for (int64_t i = n - 1; i > 0; i--) {
    std::swap(a[i], a[uniform(56, i, i + 1)]);
  }
  expect_path(expect_plan(a), BitmapPath::kCaller);
}

// Spans at the cap that end on INT64_MIN and INT64_MAX, where the offsets
// and word counts must be taken in uint64: shuffled (the caller's set) and
// sorted (the owned segments).
TEST(RankOnlyDifferential, PooledPlanAtTheInt64Ends) {
  const int64_t n = kPoolN;
  const int64_t cap_words = static_cast<int64_t>(rank_only_max_words(n));
  const int64_t top_lo = kMax - 64 * cap_words + 1;
  for (const int64_t lo : {kMin, top_lo}) {
    SCOPED_TRACE(testing::Message() << "lo " << lo);
    Vec a = spanning(n, lo, cap_words, lo == kMin ? 57 : 58);
    expect_path(expect_plan(a), BitmapPath::kCaller);
    std::sort(a.begin(), a.end());
    expect_path(expect_plan(a), BitmapPath::kSegments);
  }
  expect_path(expect_plan(spanning(n, kMin, cap_words + 1, 59)),
              BitmapPath::kTooWide);
}

// One block whose own span passes the cap ends the min/max pass early and
// takes the sort; narrow blocks far apart pass it only together.
TEST(RankOnlyDifferential, PooledPlanWideSpansTakeTheSort) {
  const int64_t n = kPoolN;
  Vec one_wide = line_with_span(n, 2 * n, 60);
  one_wide[5 * 4096 + 7] = kMin;
  one_wide[5 * 4096 + 9] = kMax;
  expect_path(expect_plan(one_wide), BitmapPath::kTooWide);
  Vec apart = line_with_span(n, 2 * n, 61);
  for (int64_t i = n / 2; i < n; i++) apart[i] += int64_t{1} << 50;
  expect_path(expect_plan(apart), BitmapPath::kTooWide);
}

// Nothing forks below the threshold, in sequential or thread-sequential
// mode, inside a packed solve_many query, or on a pool of one worker; at
// the threshold on 2 or more workers the plan forks.
TEST(RankOnlyDifferential, PooledPlanForksOnlyWhereItMay) {
  const Vec below = line_with_span(kPoolN - 1, 100 * kPoolN, 62);
  const Vec at = line_with_span(kPoolN, 100 * kPoolN, 63);
  RankSpace rs;
  RankSpaceScratch scratch;
  auto rank = [&](const Vec& keys) {
    return spawns_of([&] {
      rank_only_into<int64_t>(keys, TiesPolicy::kStrict, rs, scratch);
    });
  };
  EXPECT_EQ(rank(below), 0u);
  const bool seq = set_sequential_mode(true);
  EXPECT_EQ(rank(at), 0u);
  set_sequential_mode(seq);
  const bool tseq = set_thread_sequential(true);
  EXPECT_EQ(rank(at), 0u);
  set_thread_sequential(tseq);
  if (num_workers() == 1) {
    EXPECT_EQ(rank(at), 0u);
  } else {
    EXPECT_GT(rank(at), 0u);
  }
  // Packed queries: the batch forks once per task past the first
  // (min(kQueries, num_workers()) tasks) and nothing inside them does.
  constexpr int64_t kQueries = 8;
  const Vec w = weights(kPoolGateGrain, 64);
  std::vector<Vec> values;
  std::vector<Query> queries(kQueries);
  std::vector<QueryResult> results(kQueries);
  for (int64_t q = 0; q < kQueries; q++) {
    values.push_back(line_with_span(kPoolGateGrain, 100 * kPoolGateGrain,
                                    65 + q));
  }
  for (int64_t q = 0; q < kQueries; q++) {
    queries[q].a = values[q];
    queries[q].w = w;
  }
  Solver s;
  s.solve_many(queries, results);
  for (int64_t q = 0; q < kQueries; q++) values[q][0]++;  // fresh misses
  EXPECT_EQ(spawns_of([&] { s.solve_many(queries, results); }),
            static_cast<uint64_t>(
                std::min<int64_t>(kQueries, num_workers()) - 1));
}

// The pooled plan behind the Solver: misses and hits of the value cache
// on a banded line and on uniform keys at the cap, and a pooled miss
// holds what a thread-sequential one holds, give or take its blocks' min
// and max (16 B per 4096 keys).
TEST(RankOnlyDifferential, PooledSolverMissesAndResidentBytes) {
  const int64_t n = 2 * kPoolN;
  const Vec a = line_with_span(n, 100 * n, 70);
  const int64_t cap_words = static_cast<int64_t>(rank_only_max_words(n));
  const Vec b = spanning(n, 3, cap_words, 71);
  const Vec w1 = weights(n, 72), w2 = weights(n, 73);
  Solver s;
  WlisResult out;
  EXPECT_FALSE(s.solve_wlis(a, w1, out));
  expect_same(out, oracle(a, w1));
  EXPECT_TRUE(s.solve_wlis(a, w2, out));
  expect_same(out, oracle(a, w2));
  EXPECT_FALSE(s.solve_wlis(b, w2, out));
  expect_same(out, oracle(b, w2));
  EXPECT_TRUE(s.solve_wlis(b, w1, out));
  expect_same(out, oracle(b, w1));
  EXPECT_FALSE(s.solve_wlis(a, w1, out));
  expect_same(out, oracle(a, w1));

  Solver pooled, one;
  WlisResult pooled_out, one_out;
  pooled.solve_wlis(a, w1, pooled_out);
  const bool tseq = set_thread_sequential(true);
  one.solve_wlis(a, w1, one_out);
  set_thread_sequential(tseq);
  expect_same(pooled_out, one_out);
  const size_t carries = 16 * static_cast<size_t>((n + 4095) / 4096);
  const size_t hi = std::max(pooled.resident_bytes(), one.resident_bytes());
  const size_t lo = std::min(pooled.resident_bytes(), one.resident_bytes());
  EXPECT_LE(hi - lo, carries);
}

}  // namespace
}  // namespace parlis
