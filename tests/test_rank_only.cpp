// rank_only_into (util/rank_space.hpp) against rank_space_into: every case
// must give the same `rank` and `n_distinct` under both ties policies,
// whichever path it takes. int64 keys under std::less whose span fits in
// rank_only_max_words(n) words take the one-thread bitmap (order, pos and
// qpos left empty); everything else takes the sort (all four arrays
// filled), so each case also checks which path it took. The Solver cases
// run the plans that call it (the value cache, kNonDecreasing rank images)
// against seq_avl_wlis / seq_bs_ranks.
//
// The suite name puts it in the pinned-thread differential legs (1, 4 and
// hw workers) and in the forced-scalar leg.
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

}  // namespace
}  // namespace parlis
