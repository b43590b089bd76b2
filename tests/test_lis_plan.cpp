// The Solver's LIS plan (Solver::run_lis, api/solver.hpp): patience sorting
// on one thread, for first frontiers below kPatienceFrontier and under a
// memory budget that fits only it; the tournament tree on the pool
// otherwise. Whatever the path, the ranks, k and frontier layout must match
// seq_bs_ranks, and the O(n^2) oracle at small n.
//
// The suite name puts it in the pinned-thread differential legs (1, 4 and
// hw workers; at 1 worker every solve must take patience) and in the
// forced-scalar leg. The path a solve took is read off a fresh Solver's
// footprint: only the tournament tree sizes its storage, at least one word
// per element.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "tests/frontier_inputs.hpp"

namespace parlis {
namespace {

constexpr int64_t kT = kPatienceFrontier;
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// The frontier layout of ranks `want`: index-ascending per rank.
LisFrontiers layout_of(const std::vector<int32_t>& want) {
  LisFrontiers fr;
  fr.rank = want;
  fr.k = want.empty() ? 0 : *std::max_element(want.begin(), want.end());
  fr.frontier_offset.assign(static_cast<size_t>(fr.k) + 1, 0);
  for (int32_t r : want) fr.frontier_offset[r]++;
  for (int32_t r = 0; r < fr.k; r++) {
    fr.frontier_offset[r + 1] += fr.frontier_offset[r];
  }
  for (int32_t r = 1; r <= fr.k; r++) {
    for (size_t i = 0; i < want.size(); i++) {
      if (want[i] == r) fr.frontier_flat.push_back(static_cast<int64_t>(i));
    }
  }
  return fr;
}

void expect_frontiers(const LisFrontiers& got, const LisFrontiers& want) {
  EXPECT_EQ(got.rank, want.rank);
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.frontier_offset, want.frontier_offset);
  EXPECT_EQ(got.frontier_flat, want.frontier_flat);
}

// Runs `solve` (which checks its own results) on a fresh Solver with
// `opts`, then again under sequential mode, where the plan always takes
// patience. Returns whether the first run took the tournament tree: only
// that path adds storage beyond the patience run's, at least a word per
// element.
template <typename Solve>
bool took_pool(const Options& opts, size_t n, const Solve& solve) {
  Solver planned(opts);
  solve(planned);
  const bool prev = set_sequential_mode(true);
  Solver patience(opts);
  solve(patience);
  set_sequential_mode(prev);
  return planned.resident_bytes() >= patience.resident_bytes() + 8 * n;
}

// solve_lis, solve_lis_frontiers and a one-query solve_many on `a`, each
// checked against `want`. All three must take the same path; returns
// whether it was the pool.
bool check_plan(const std::vector<int64_t>& a,
                const std::vector<int32_t>& want, const Options& opts = {}) {
  const std::span<const int64_t> as(a);
  const LisFrontiers want_fr = layout_of(want);
  const bool pool = took_pool(opts, a.size(), [&](Solver& s) {
    LisResult lr;
    s.solve_lis(as, lr);
    EXPECT_EQ(lr.rank, want);
    EXPECT_EQ(lr.k, want_fr.k);
  });
  EXPECT_EQ(took_pool(opts, a.size(),
                      [&](Solver& s) {
                        LisFrontiers fr;
                        s.solve_lis_frontiers(as, fr);
                        expect_frontiers(fr, want_fr);
                      }),
            pool);
  EXPECT_EQ(took_pool(opts, a.size(),
                      [&](Solver& s) {
                        std::vector<int32_t> rank_out(a.size(), -1);
                        Query q{as};
                        q.rank_out = std::span<int32_t>(rank_out);
                        QueryResult r;
                        s.solve_many(std::span<const Query>(&q, 1),
                                     std::span<QueryResult>(&r, 1));
                        EXPECT_EQ(rank_out, want);
                        EXPECT_EQ(r.k, want_fr.k);
                      }),
            pool);
  return pool;
}

// An input of n ~ ff + 100 whose first frontier holds exactly ff objects.
std::vector<int64_t> first_frontier_input(int64_t ff, uint64_t seed) {
  return input_with_frontiers({ff, 40, 30, 20, 10}, seed);
}

bool pool_available() { return num_workers() > 1 && !sequential_mode(); }

TEST(LisPlanDifferential, FirstFrontierAroundTheThreshold) {
  for (const int64_t ff : {kT - 1, kT, kT + 1}) {
    SCOPED_TRACE(testing::Message() << "first frontier " << ff);
    const std::vector<int64_t> a = first_frontier_input(ff, 100 + ff);
    ASSERT_EQ(first_frontier_size<int64_t>(a, kMax), ff);
    const bool pool = check_plan(a, seq_bs_ranks(a));
    EXPECT_EQ(pool, ff >= kT && pool_available());
  }
}

TEST(LisPlanDifferential, OneThreadSolvesTakePatience) {
  const std::vector<int64_t> a = first_frontier_input(kT + 1, 7);
  const std::vector<int32_t> want = seq_bs_ranks(a);
  const int64_t n = static_cast<int64_t>(a.size());
  {
    SCOPED_TRACE("below sequential_cutoff");
    Options below;
    below.sequential_cutoff = n;
    EXPECT_FALSE(check_plan(a, want, below));
  }
  {
    SCOPED_TRACE("sequential mode");
    const bool prev = set_sequential_mode(true);
    EXPECT_FALSE(check_plan(a, want));
    set_sequential_mode(prev);
  }
  {
    // Below the cutoff, solve_many packs queries onto the pool's
    // per-runner contexts, one thread each.
    SCOPED_TRACE("packed solve_many queries");
    Options packed;
    packed.sequential_cutoff = n;
    EXPECT_FALSE(took_pool(packed, a.size(), [&](Solver& s) {
      std::vector<int32_t> r0(a.size()), r1(a.size());
      std::vector<Query> qs{Query{a}, Query{a}};
      qs[0].rank_out = std::span<int32_t>(r0);
      qs[1].rank_out = std::span<int32_t>(r1);
      std::vector<QueryResult> rs(2);
      s.solve_many(qs, rs);
      EXPECT_EQ(r0, want);
      EXPECT_EQ(r1, want);
    }));
  }
  // The same input on a default Solver takes the pool, except on a
  // 1-worker pool (the PARLIS_NUM_THREADS=1 differential leg).
  EXPECT_EQ(check_plan(a, want), pool_available());
}

TEST(LisPlanDifferential, BudgetFallbackTakesPatience) {
  const std::vector<int64_t> a = first_frontier_input(kT + 1, 9);
  const int64_t n = static_cast<int64_t>(a.size());
  // Between the documented patience (~12 B/element) and tournament
  // (~40 B/element) models.
  Options tight;
  tight.memory_budget_bytes = static_cast<uint64_t>(n) * 24 + (1 << 16);
  EXPECT_FALSE(check_plan(a, seq_bs_ranks(a), tight));
}

TEST(LisPlanDifferential, CustomOrderOnBothPaths) {
  for (const int64_t ff : {kT - 1, kT + 100}) {
    SCOPED_TRACE(testing::Message() << "first frontier " << ff);
    // Under std::greater the negated input has the input's ranks. The last
    // five values become INT64_MIN, the sentinel and the largest value
    // under greater, so they leave the first frontier.
    const std::vector<int64_t> a = first_frontier_input(ff, 200 + ff);
    std::vector<int64_t> neg(a.size());
    for (size_t i = 0; i < a.size(); i++) neg[i] = -a[i];
    for (size_t i = a.size() - 5; i < a.size(); i++) neg[i] = kMin;
    std::vector<int64_t> mirror(a.size());
    for (size_t i = 0; i < a.size(); i++) {
      mirror[i] = neg[i] == kMin ? kMax : -neg[i];
    }
    const std::vector<int32_t> want = seq_bs_ranks(mirror);
    const bool pool = took_pool(Options{}, a.size(), [&](Solver& s) {
      LisResult lr;
      s.solve_lis(std::span<const int64_t>(neg), lr, kMin,
                  std::greater<int64_t>{});
      EXPECT_EQ(lr.rank, want);
    });
    const int64_t ff_now = std::count(want.begin(), want.end(), 1);
    EXPECT_EQ(pool, ff_now >= kT && pool_available());
  }
}

TEST(LisPlanDifferential, NonDecreasingTiesOnBothPaths) {
  Options nd;
  nd.ties = TiesPolicy::kNonDecreasing;
  for (const int64_t ff : {int64_t{200}, 3 * kT}) {
    SCOPED_TRACE(testing::Message() << "strict first frontier " << ff);
    // Halving the values makes neighbours of one rank equal, so they
    // chain under kNonDecreasing.
    std::vector<int64_t> a = first_frontier_input(ff, 300 + ff);
    for (int64_t& v : a) v /= 2;
    std::vector<std::pair<int64_t, int64_t>> keyed(a.size());
    for (size_t i = 0; i < a.size(); i++) {
      keyed[i] = {a[i], static_cast<int64_t>(i)};
    }
    const std::vector<int32_t> want = seq_bs_ranks(keyed);
    const int64_t nd_ff = std::count(want.begin(), want.end(), 1);
    const bool pool = check_plan(a, want, nd);
    EXPECT_EQ(pool, nd_ff >= kT && pool_available());
  }
}

TEST(LisPlanDifferential, ExtremeValuesOnBothPaths) {
  for (const int64_t ff : {kT / 2, 2 * kT}) {
    SCOPED_TRACE(testing::Message() << "first frontier " << ff);
    std::vector<int64_t> a = first_frontier_input(ff, 400 + ff);
    const size_t n = a.size();
    // INT64_MAX anywhere; INT64_MIN (a new prefix minimum) only in the
    // last tenth, so the first frontier keeps most of its objects.
    for (size_t i = 0; i < n; i++) {
      if (uniform(41, i, 50) == 0) a[i] = kMax;
      if (i >= n - n / 10 && uniform(42, i, 200) == 0) a[i] = kMin;
    }
    const std::vector<int32_t> want = seq_bs_ranks(a);
    const int64_t ff_now = std::count(want.begin(), want.end(), 1);
    EXPECT_EQ(check_plan(a, want), ff_now >= kT && pool_available());
  }
}

// k around the patience search's window (16) and its first probes
// (len - 16, len - 64): every rank count from 1 to k passes through the
// search as the tails grow. Small n, so the O(n^2) oracle checks too.
TEST(LisPlanDifferential, KAroundTheSearchWindow) {
  for (const int64_t k : {15, 16, 17, 31, 32, 33, 63, 64, 65, 257}) {
    SCOPED_TRACE(testing::Message() << "k = " << k);
    std::vector<int64_t> sizes;
    for (int64_t r = 0; r < k; r++) {
      sizes.push_back(1 + static_cast<int64_t>(uniform(5, r, 6)));
    }
    const std::vector<int64_t> a = input_with_frontiers(sizes, 500 + k);
    const std::vector<int32_t> want = brute_lis_ranks(a);
    ASSERT_EQ(want, seq_bs_ranks(a));
    ASSERT_EQ(*std::max_element(want.begin(), want.end()), k);
    EXPECT_FALSE(check_plan(a, want));  // a first frontier of a few objects
    LisResult lr;
    std::vector<int64_t> tails;
    seq_patience_ranks_into<int64_t>(std::span<const int64_t>(a), lr, tails);
    EXPECT_EQ(lr.rank, want);
  }
}

// The patience kernel alone against the O(n^2) oracle: random values from
// narrow and wide ranges (ties and none), sorted, reversed and all-equal
// runs, under std::less and std::greater, and with warm scratch reused
// across sizes.
TEST(LisPlanDifferential, PatienceKernelMatchesBruteForce) {
  std::vector<int64_t> tails;
  LisResult lr;
  LisFrontiers fr;
  for (uint64_t seed = 0; seed < 60; seed++) {
    const int64_t n = 1 + static_cast<int64_t>(uniform(seed, 0, 400));
    const uint64_t range = seed % 3 == 0 ? 8 : seed % 3 == 1 ? 300 : 1u << 30;
    std::vector<int64_t> a(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; i++) {
      switch (seed % 5) {
        case 0: a[i] = i; break;
        case 1: a[i] = -i; break;
        case 2: a[i] = 3; break;
        default: a[i] = static_cast<int64_t>(uniform(seed, i + 1, range));
      }
    }
    SCOPED_TRACE(testing::Message() << "seed " << seed << ", n " << n);
    const std::span<const int64_t> as(a);
    const std::vector<int32_t> want = brute_lis_ranks(a);
    seq_patience_ranks_into<int64_t>(as, lr, tails);
    ASSERT_EQ(lr.rank, want);
    seq_patience_frontiers_into<int64_t>(as, fr, tails);
    expect_frontiers(fr, layout_of(want));

    std::vector<int64_t> neg(a.size());
    for (size_t i = 0; i < a.size(); i++) neg[i] = -a[i];
    seq_patience_ranks_into<int64_t, std::greater<int64_t>>(
        std::span<const int64_t>(neg), lr, tails);
    ASSERT_EQ(lr.rank, want);
  }
}

}  // namespace
}  // namespace parlis
