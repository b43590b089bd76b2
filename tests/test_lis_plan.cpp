// The Solver's LIS plan (Solver::run_lis, api/solver.hpp): every LIS entry
// point solves by patience sorting on the calling thread. For int64 keys
// under std::less (raw values and every rank image) the kernel starts in
// the register tiers of lis/patience.hpp (16, 32, 64 and 128 tails). At the
// 129th tail the full tier slides up the tails as a window that runs the
// rest of the input, with the SIMD toggle on; with it off the memory loop
// runs the rest.
// Other orders on raw values (int64 keys under kStrict) run the memory loop
// alone. Whatever the path, the ranks, k and frontier layout must match
// seq_bs_ranks, and the O(n^2) oracle at small n, with the SIMD toggle on
// and off.
//
// The suite name puts it in the pinned-thread differential legs (1, 4 and
// hw workers), the forced-scalar leg (where the tiers' scalar twin runs)
// and the avx512 leg (where the vector tiers run).
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
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/generators.hpp"
#include "parlis/util/simd.hpp"
#include "tests/frontier_inputs.hpp"

namespace parlis {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kBlock = 4096;  // the kernel's cancellation-poll stride

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

// Runs solve() with the SIMD toggle on (the vector tiers, where compiled)
// and off (their scalar twin), restoring it.
template <typename Solve>
void on_both_toggles(const Solve& solve) {
  for (const bool vector : {true, false}) {
    SCOPED_TRACE(vector ? "simd on" : "simd off");
    const bool prev = simd::set_enabled(vector);
    solve();
    simd::set_enabled(prev);
  }
}

// solve_lis, solve_lis_frontiers and a one-query solve_many on `a`, each
// checked against `want` with the toggle on and off.
void check_plan(const std::vector<int64_t>& a,
                const std::vector<int32_t>& want, const Options& opts = {}) {
  const std::span<const int64_t> as(a);
  const LisFrontiers want_fr = layout_of(want);
  on_both_toggles([&] {
    Solver s(opts);
    LisResult lr;
    s.solve_lis(as, lr);
    EXPECT_EQ(lr.rank, want);
    EXPECT_EQ(lr.k, want_fr.k);
    LisFrontiers fr;
    s.solve_lis_frontiers(as, fr);
    expect_frontiers(fr, want_fr);
    std::vector<int32_t> rank_out(a.size(), -1);
    Query q{as};
    q.rank_out = std::span<int32_t>(rank_out);
    QueryResult r;
    s.solve_many(std::span<const Query>(&q, 1), std::span<QueryResult>(&r, 1));
    EXPECT_EQ(rank_out, want);
    EXPECT_EQ(r.k, want_fr.k);
  });
}

// An input of n ~ ff + 100 whose first frontier holds exactly ff objects.
std::vector<int64_t> first_frontier_input(int64_t ff, uint64_t seed) {
  return input_with_frontiers({ff, 40, 30, 20, 10}, seed);
}

// An input of n elements whose patience tails number exactly e just before
// index `at`. Before it, level l = i * e / at holds values falling with i
// in (l * at, (l + 1) * at], so each level adds one tail and every element
// lands on the last one. a[at] is `top` when `overflow` (above every
// earlier value, so it makes tail e + 1), else it starts the tail. The
// tail then falls by random steps through every value below it, so its
// elements land at every position and never add a tail.
std::vector<int64_t> tier_edge_input(int64_t e, int64_t at, int64_t n,
                                     bool overflow, uint64_t seed,
                                     int64_t top = -1) {
  std::vector<int64_t> a(static_cast<size_t>(n));
  for (int64_t i = 0; i < at; i++) a[i] = (i * e / at) * at + (at - i);
  if (top < 0) top = (e + 1) * at;
  // Without an overflow the fall starts below the last level's smallest
  // value, the e-th tail, so it never adds a tail.
  int64_t v = overflow ? top : (e - 1) * at;
  const int64_t step = 2 * (e + 1) * at / std::max<int64_t>(1, n - at) + 1;
  for (int64_t i = at; i < n; i++) {
    a[i] = v;
    v = std::max<int64_t>(0, v - 1 - static_cast<int64_t>(
                                         uniform(seed, i, step)));
  }
  return a;
}

// The element that tips the tails past a tier: the first of a block, one in
// the middle of a block, and the input's last.
std::vector<int64_t> edge_positions(int64_t n) {
  return {kBlock, kBlock + 1500, n - 1};
}

// Tail counts at every tier's edge, and at the window's: 192 tails fill it
// after its first slide, and 256 after its second.
constexpr int64_t kEdgeTails[] = {16, 32, 64, 128, 192, 256};

TEST(LisPlanDifferential, TierEdges) {
  const int64_t n = 3 * kBlock + 77;
  for (const int64_t e : kEdgeTails) {
    for (const int64_t at : edge_positions(n)) {
      for (const bool overflow : {false, true}) {
        SCOPED_TRACE(testing::Message() << "tails " << e
                                        << (overflow ? "+1" : "")
                                        << ", edge at " << at);
        const std::vector<int64_t> a =
            tier_edge_input(e, at, n, overflow, 600 + e + at);
        const std::vector<int32_t> want = seq_bs_ranks(a);
        ASSERT_EQ(*std::max_element(want.begin(), want.end()),
                  e + (overflow ? 1 : 0));
        if (overflow) {
          ASSERT_EQ(want[at], e + 1);
        }
        check_plan(a, want);
      }
    }
  }
}

// INT64_MAX is the tiers' empty-lane filler: a tail equal to it must count
// as a tail, alone, repeated, and as the element that tips a tier.
TEST(LisPlanDifferential, Int64MaxAsTheFillerValue) {
  check_plan({kMax}, {1});
  check_plan(std::vector<int64_t>(300, kMax), std::vector<int32_t>(300, 1));
  const int64_t n = 3 * kBlock + 77;
  for (const int64_t e : kEdgeTails) {
    for (const int64_t at : edge_positions(n)) {
      SCOPED_TRACE(testing::Message() << "INT64_MAX as tail " << e + 1
                                      << " at " << at);
      std::vector<int64_t> a = tier_edge_input(e, at, n, true, 700 + e, kMax);
      // Repeats of INT64_MAX right after it never add a tail.
      for (int64_t i = at + 1; i < std::min(n, at + 5); i++) a[i] = kMax;
      const std::vector<int32_t> want = seq_bs_ranks(a);
      ASSERT_EQ(want[at], e + 1);
      check_plan(a, want);
    }
  }
  // A strictly increasing run that ends in INT64_MAX at every tier edge.
  for (const int64_t e : kEdgeTails) {
    std::vector<int64_t> a;
    for (int64_t i = 0; i < e; i++) a.push_back(i);
    for (int j = 0; j < 3; j++) a.push_back(kMax);
    for (int64_t i = 0; i < e; i++) a.push_back(2 * i);
    check_plan(a, brute_lis_ranks(a));
  }
}

TEST(LisPlanDifferential, MinAllEqualAndIncreasing) {
  std::vector<int64_t> inc(300);
  for (int64_t i = 0; i < 300; i++) inc[i] = i;
  check_plan(inc, brute_lis_ranks(inc));  // every tier, then the spill
  check_plan(std::vector<int64_t>(300, 7), std::vector<int32_t>(300, 1));
  check_plan(std::vector<int64_t>(300, kMin), std::vector<int32_t>(300, 1));
  // INT64_MIN between rising runs: always rank 1.
  std::vector<int64_t> a;
  for (int r = 0; r < 6; r++) {
    for (int64_t i = 0; i < 40; i++) a.push_back(i * (r + 1));
    a.push_back(kMin);
  }
  check_plan(a, brute_lis_ranks(a));
}

// The vector tiers against their twin directly, on line inputs whose k
// spans every tier and the spill, and on rising lines (targets n/8 and
// n/4) whose elements land near the top of the tails, so the window slides
// up with them.
TEST(LisPlanDifferential, VectorTiersMatchTheirTwin) {
  const int64_t n = 20000;
  for (const int target_k :
       {8, 14, 20, 30, 45, 70, 110, 160, 400, 2500, 5000}) {
    SCOPED_TRACE(testing::Message() << "target k " << target_k);
    const std::vector<int64_t> a = line_pattern(n, target_k, 800 + target_k);
    const std::span<const int64_t> as(a);
    LisResult vec, twin;
    LisFrontiers vec_fr, twin_fr;
    std::vector<int64_t> tails;
    const bool prev = simd::set_enabled(true);
    seq_patience_ranks_into<int64_t>(as, vec, tails);
    seq_patience_frontiers_into<int64_t>(as, vec_fr, tails);
    simd::set_enabled(false);
    seq_patience_ranks_into<int64_t>(as, twin, tails);
    seq_patience_frontiers_into<int64_t>(as, twin_fr, tails);
    simd::set_enabled(prev);
    EXPECT_EQ(vec.rank, twin.rank);
    EXPECT_EQ(vec.k, twin.k);
    expect_frontiers(vec_fr, twin_fr);
    EXPECT_EQ(vec.rank, seq_bs_ranks(a));
  }
}

// The window's frozen edge: after a rise to `rise` tails (the window slid
// once or twice, so it froze base = 64 or 128 tails), probes land exactly
// on the top frozen tail, just above it (the window's slot 0), at frozen
// slot 0 and at INT64_MIN; a probe that lowers the top frozen tail moves
// the edge, so the next probe equal to the old top lands in the window.
// The rise then goes on, to slide again.
TEST(LisPlanDifferential, WindowFrozenEdge) {
  for (const int64_t rise : {129, 160, 192, 193, 250}) {
    SCOPED_TRACE(testing::Message() << "rise to " << rise << " tails");
    // The window froze 64 tails at its first slide (tail 129) and 64 more
    // at each further 64.
    const int64_t base = 64 * ((rise - 65) / 64);
    std::vector<int64_t> a;
    std::vector<std::pair<size_t, int32_t>> probes;  // (index, rank)
    for (int64_t j = 0; j < rise; j++) a.push_back(4 * j);
    const int64_t top = 4 * (base - 1);  // tails[base - 1]
    auto probe = [&](int64_t v, int64_t r) {
      probes.push_back({a.size(), static_cast<int32_t>(r)});
      a.push_back(v);
    };
    probe(top, base);              // on the top frozen tail
    probe(top + 1, base + 1);      // the window's slot 0
    probe(top - 1, base);          // lowers the top frozen tail ...
    probe(top, base + 1);          // ... so this lands in the window
    probe(0, 1);                   // frozen slot 0
    probe(kMin, 1);
    probe(kMin, 1);
    for (int64_t j = rise; j < rise + 100; j++) a.push_back(4 * j);
    const std::vector<int32_t> want = brute_lis_ranks(a);
    ASSERT_EQ(want, seq_bs_ranks(a));
    for (const auto& [i, r] : probes) {
      ASSERT_EQ(want[i], r) << "probe at " << i;
    }
    check_plan(a, want);
  }
}

// A rising line, whose elements land within the window, then uniform keys
// over its whole range, most of which land below the window: the window
// lands them among its frozen tails for the rest of the input. The keys
// start at a block boundary, in mid-block and 300 elements before the end.
TEST(LisPlanDifferential, WindowTakesUniformKeysAfterALine) {
  const int64_t n = 6 * kBlock;
  for (const int64_t from : {2 * kBlock, 2 * kBlock + 1500, n - 300}) {
    SCOPED_TRACE(testing::Message() << "uniform keys from " << from);
    std::vector<int64_t> a = line_pattern(n, n / 4, 900);
    const int64_t hi = *std::max_element(a.begin(), a.begin() + from);
    for (int64_t i = from; i < n; i++) {
      a[i] = static_cast<int64_t>(uniform(901, i, static_cast<uint64_t>(hi)));
    }
    const std::vector<int32_t> want = seq_bs_ranks(a);
    ASSERT_GT(*std::max_element(want.begin(), want.begin() + from),
              2 * simd::kTierTails);
    check_plan(a, want);
  }
}

// The window grows the tails by the memory loop's rule, so a Solver holds
// the same bytes whichever of the two ran: from cold scratch, whose sizes
// double from 256 slots and so meet the window's slides, and from scratch
// that a smaller solve left at 301 slots, whose doublings fall between
// slides. `top` rises to 610 tails and lands near the top after that;
// `deep` rises to 512 tails, filling the window and, from cold scratch,
// all 512 of the tails' slots, then lands among the frozen tails for a
// block and then extends the tails again.
TEST(LisPlanDifferential, WindowHoldsWhatTheMemoryLoopHolds) {
  std::vector<int64_t> small, top, deep;
  for (int64_t j = 0; j < 300; j++) small.push_back(j);
  for (int64_t j = 0; j < 610; j++) top.push_back(4 * j);
  for (int64_t i = 0; top.size() < 2000; i++) {
    top.push_back(4 * (609 - i % 20) - 1);
  }
  for (int64_t j = 0; j < 512; j++) deep.push_back(4 * j);
  for (int64_t i = 512; i < kBlock + 600; i++) {
    deep.push_back(static_cast<int64_t>(uniform(31, i, 4 * 300)));
  }
  for (int64_t j = 0; j < 300; j++) deep.push_back(4 * 512 + j);
  for (const std::vector<int64_t>* in : {&top, &deep}) {
    const std::vector<int32_t> want = seq_bs_ranks(*in);
    for (const bool warm : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << (in == &top ? "top" : "deep")
                   << (warm ? ", after a 300-element solve" : ", cold"));
      size_t held[2] = {0, 0};
      for (const bool vector : {true, false}) {
        const bool prev = simd::set_enabled(vector);
        Solver s;
        LisResult lr;
        if (warm) s.solve_lis(small, lr);
        s.solve_lis(*in, lr);
        simd::set_enabled(prev);
        EXPECT_EQ(lr.rank, want);
        held[vector] = s.resident_bytes();
      }
      EXPECT_EQ(held[true], held[false]);
    }
  }
}

// First frontiers from a few thousand to tens of thousands of objects: the
// inputs an earlier plan sent to the pool.
TEST(LisPlanDifferential, WideFirstFrontiers) {
  for (const int64_t ff : {kBlock - 1, kBlock + 1, 10 * kBlock}) {
    SCOPED_TRACE(testing::Message() << "first frontier " << ff);
    const std::vector<int64_t> a = first_frontier_input(ff, 100 + ff);
    const std::vector<int32_t> want = seq_bs_ranks(a);
    ASSERT_EQ(std::count(want.begin(), want.end(), 1), ff);
    check_plan(a, want);
  }
}

TEST(LisPlanDifferential, OneThreadAndPackedSolves) {
  const std::vector<int64_t> a =
      tier_edge_input(128, kBlock + 1500, 3 * kBlock, true, 7);
  {
    SCOPED_TRACE("sequential mode");
    const bool prev = set_sequential_mode(true);
    check_plan(a, seq_bs_ranks(a));
    set_sequential_mode(prev);
  }
  // Inputs of at most kPoolGateGrain elements solve in thread-sequential
  // mode, and solve_many packs them onto its pool tasks, each solving on
  // its own context on one thread.
  const std::vector<int64_t> small =
      tier_edge_input(128, 1500, kPoolGateGrain, true, 7);
  const std::vector<int32_t> want = seq_bs_ranks(small);
  ASSERT_EQ(want[1500], 129);
  {
    SCOPED_TRACE("at most kPoolGateGrain elements");
    check_plan(small, want);
  }
  {
    SCOPED_TRACE("packed solve_many queries");
    on_both_toggles([&] {
      Solver s;
      std::vector<int32_t> r0(small.size()), r1(small.size());
      std::vector<Query> qs{Query{small}, Query{small}};
      qs[0].rank_out = std::span<int32_t>(r0);
      qs[1].rank_out = std::span<int32_t>(r1);
      std::vector<QueryResult> rs(2);
      s.solve_many(qs, rs);
      EXPECT_EQ(r0, want);
      EXPECT_EQ(r1, want);
    });
  }
}

// The LIS plan has one path, so one budget model (README "Failure
// semantics": patience, 12 B/element plus 4 KiB once): a budget at the
// model admits the solve, one byte less throws before any work.
TEST(LisPlanDifferential, BudgetAdmitsOnlyThePatienceModel) {
  const std::vector<int64_t> a = first_frontier_input(3 * kBlock, 9);
  const uint64_t n = a.size();
  Options fits;
  fits.memory_budget_bytes = n * 12 + 4096;
  check_plan(a, seq_bs_ranks(a), fits);
  Options tight = fits;
  tight.memory_budget_bytes -= 1;
  Solver s(tight);
  LisResult out;
  try {
    s.solve_lis(a, out);
    ADD_FAILURE() << "a budget under the model was admitted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded) << e.what();
  }
}

// Custom orders run the memory loop alone; under std::greater the negated
// input has the input's ranks. INT64_MIN, the largest value under greater,
// mirrors INT64_MAX.
TEST(LisPlanDifferential, CustomOrderRunsTheMemoryLoop) {
  const int64_t n = 3 * kBlock + 77;
  std::vector<std::vector<int64_t>> inputs = {first_frontier_input(2000, 201)};
  for (const int64_t e : {16, 64, 128}) {
    inputs.push_back(tier_edge_input(e, kBlock + 1500, n, true, 202 + e));
  }
  for (const std::vector<int64_t>& a : inputs) {
    std::vector<int64_t> neg(a.size());
    for (size_t i = 0; i < a.size(); i++) neg[i] = -a[i];
    for (size_t i = a.size() - 5; i < a.size(); i++) neg[i] = kMin;
    std::vector<int64_t> mirror(a.size());
    for (size_t i = 0; i < a.size(); i++) {
      mirror[i] = neg[i] == kMin ? kMax : -neg[i];
    }
    const std::vector<int32_t> want = seq_bs_ranks(mirror);
    on_both_toggles([&] {
      Solver s;
      LisResult lr;
      s.solve_lis(std::span<const int64_t>(neg), lr, std::greater<int64_t>{});
      EXPECT_EQ(lr.rank, want);
    });
  }
}

// A custom order honors kNonDecreasing: under std::greater equal keys
// chain, so the ranks are those of the longest non-increasing subsequence.
// Duplicate-heavy inputs with the int64 extremes, through every LIS entry
// point, against the O(n^2) recurrence.
TEST(LisPlanDifferential, CustomOrderHonorsNonDecreasingTies) {
  Options nd;
  nd.ties = TiesPolicy::kNonDecreasing;
  const std::greater<int64_t> greater;
  for (uint64_t seed = 0; seed < 41; seed++) {
    const int64_t n = seed == 40 ? kPoolGateGrain + 500
                                 : 1 + static_cast<int64_t>(uniform(seed, 0, 600));
    const uint64_t range = seed % 2 == 0 ? 6 : 200;
    std::vector<int64_t> a(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; i++) {
      const uint64_t u = uniform(seed, i + 1, range + 2);
      a[i] = u == range       ? kMin
             : u == range + 1 ? kMax
                              : static_cast<int64_t>(u);
    }
    std::vector<int32_t> want(a.size(), 1);
    for (int64_t i = 0; i < n; i++) {
      for (int64_t j = 0; j < i; j++) {
        if (a[j] >= a[i]) want[i] = std::max(want[i], want[j] + 1);
      }
    }
    SCOPED_TRACE(testing::Message() << "seed " << seed << ", n " << n);
    const std::span<const int64_t> as(a);
    Solver s(nd);
    LisResult lr;
    s.solve_lis(as, lr, greater);
    EXPECT_EQ(lr.rank, want);
    LisFrontiers fr;
    s.solve_lis_frontiers(as, fr, greater);
    expect_frontiers(fr, layout_of(want));
    EXPECT_EQ(s.lis_length(as, greater),
              *std::max_element(want.begin(), want.end()));
  }
}

// kNonDecreasing solves run the tiers on the input's rank image. Halving
// the values makes neighbours of one level equal, so they chain.
TEST(LisPlanDifferential, NonDecreasingTies) {
  Options nd;
  nd.ties = TiesPolicy::kNonDecreasing;
  const int64_t n = 3 * kBlock + 77;
  std::vector<std::vector<int64_t>> inputs = {first_frontier_input(200, 300)};
  for (const int64_t e : {16, 32, 64, 128}) {
    inputs.push_back(tier_edge_input(e, kBlock, n, true, 301 + e));
  }
  for (std::vector<int64_t>& a : inputs) {
    for (int64_t& v : a) v /= 2;
    std::vector<std::pair<int64_t, int64_t>> keyed(a.size());
    for (size_t i = 0; i < a.size(); i++) {
      keyed[i] = {a[i], static_cast<int64_t>(i)};
    }
    check_plan(a, seq_bs_ranks(keyed), nd);
  }
}

// Typed keys reach the tiers through their rank image, under both ties
// policies.
TEST(LisPlanDifferential, DoubleKeysOnTheTiers) {
  const int64_t n = 3 * kBlock + 77;
  for (const int64_t e : {16, 32, 64, 128}) {
    SCOPED_TRACE(testing::Message() << "tails " << e << "+1");
    const std::vector<int64_t> a =
        tier_edge_input(e, kBlock + 1500, n, true, 400 + e);
    std::vector<double> d(a.size());
    for (size_t i = 0; i < a.size(); i++) {
      d[i] = 0.5 * static_cast<double>(a[i]);
    }
    const std::vector<int32_t> want = seq_bs_ranks(a);
    std::vector<std::pair<int64_t, int64_t>> keyed(a.size());
    for (size_t i = 0; i < a.size(); i++) {
      keyed[i] = {a[i], static_cast<int64_t>(i)};
    }
    const std::vector<int32_t> want_nd = seq_bs_ranks(keyed);
    Options nd;
    nd.ties = TiesPolicy::kNonDecreasing;
    on_both_toggles([&] {
      Solver strict;
      LisResult lr;
      strict.solve_lis(std::span<const double>(d), lr);
      EXPECT_EQ(lr.rank, want);
      Solver nondec(nd);
      LisFrontiers fr;
      nondec.solve_lis_frontiers(std::span<const double>(d), fr);
      expect_frontiers(fr, layout_of(want_nd));
    });
  }
}

TEST(LisPlanDifferential, ExtremeValues) {
  for (const int64_t ff : {int64_t{500}, 5 * kBlock}) {
    SCOPED_TRACE(testing::Message() << "first frontier " << ff);
    std::vector<int64_t> a = first_frontier_input(ff, 400 + ff);
    const size_t n = a.size();
    // INT64_MAX anywhere; INT64_MIN (a new prefix minimum) only in the
    // last tenth.
    for (size_t i = 0; i < n; i++) {
      if (uniform(41, i, 50) == 0) a[i] = kMax;
      if (i >= n - n / 10 && uniform(42, i, 200) == 0) a[i] = kMin;
    }
    check_plan(a, seq_bs_ranks(a));
  }
}

// k around the patience search's final count (16 tails) and its first
// probes (len - 16, len - 64): every rank count from 1 to k passes through
// the search as the tails grow. Small n, so the O(n^2) oracle checks too.
TEST(LisPlanDifferential, KAroundTheSearchCount) {
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
    check_plan(a, want);
  }
}

// The patience kernel alone against the O(n^2) oracle: random values from
// narrow and wide ranges (ties and none), sorted, reversed and all-equal
// runs, under std::less (both toggles) and std::greater, and with warm
// scratch reused across sizes.
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
    on_both_toggles([&] {
      seq_patience_ranks_into<int64_t>(as, lr, tails);
      ASSERT_EQ(lr.rank, want);
      seq_patience_frontiers_into<int64_t>(as, fr, tails);
      expect_frontiers(fr, layout_of(want));
    });

    std::vector<int64_t> neg(a.size());
    for (size_t i = 0; i < a.size(); i++) neg[i] = -a[i];
    seq_patience_ranks_into<int64_t, std::greater<int64_t>>(
        std::span<const int64_t>(neg), lr, tails);
    ASSERT_EQ(lr.rank, want);
  }
}

}  // namespace
}  // namespace parlis
