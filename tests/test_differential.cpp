// Differential harness: the parallel LIS/WLIS pipelines against brute-force
// O(n^2) oracles and the sequential baselines, on randomized fixed-seed
// inputs chosen to hit the hard spots (duplicate-heavy value ranges,
// reverse-sorted inputs, all-equal runs, negative weights).
//
// These suites (gtest prefix `Differential`) are registered three extra
// times in ctest under the `differential` label, with PARLIS_NUM_THREADS =
// 1, 4, and the hardware default — the answers must be identical at every
// worker count, and again under set_sequential_mode(true). Run selectively
// with `ctest -L differential`.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/swgs/swgs.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/wlis/seq_avl.hpp"
#include "parlis/wlis/wlis.hpp"
#include "parlis/wlis/wlis_workspace.hpp"

namespace parlis {
namespace {

// ------------------------------------------------------ input generation ---

struct DiffCase {
  const char* name;
  int64_t n;
  int64_t value_range;  // 0 = special patterns, see build_input
  uint64_t seed;
};

std::vector<int64_t> build_input(const DiffCase& c) {
  std::vector<int64_t> a(c.n);
  if (c.value_range > 0) {
    for (int64_t i = 0; i < c.n; i++) {
      a[i] = static_cast<int64_t>(
          uniform(c.seed, i, static_cast<uint64_t>(c.value_range)));
    }
    return a;
  }
  switch (c.seed % 3) {
    case 0:  // strictly decreasing: every frontier is a singleton
      for (int64_t i = 0; i < c.n; i++) a[i] = c.n - i;
      break;
    case 1:  // all equal: nothing chains
      for (int64_t i = 0; i < c.n; i++) a[i] = 7;
      break;
    default:  // long equal runs with jumps between them
      for (int64_t i = 0; i < c.n; i++) a[i] = (i / 37) * 5;
      break;
  }
  return a;
}

std::vector<int64_t> build_weights(const DiffCase& c, bool with_negatives) {
  std::vector<int64_t> w(c.n);
  for (int64_t i = 0; i < c.n; i++) {
    int64_t v = 1 + static_cast<int64_t>(uniform(c.seed + 1000, i, 400));
    if (with_negatives && uniform(c.seed + 2000, i, 4) == 0) v = -v;
    w[i] = v;
  }
  return w;
}

const DiffCase kCases[] = {
    {"tiny", 3, 2, 1},
    {"small_dups", 120, 8, 2},
    {"medium_uniform", 700, 1000000, 3},
    {"medium_dups", 900, 25, 4},
    {"decreasing", 500, 0, 3},   // seed % 3 == 0
    {"all_equal", 400, 0, 4},    // seed % 3 == 1
    {"equal_runs", 800, 0, 5},   // seed % 3 == 2
    {"larger", 1600, 300, 6},
};

class Differential : public ::testing::TestWithParam<DiffCase> {};

// ------------------------------------------------------------------- LIS ---

TEST_P(Differential, LisRanksMatchBruteForceAndSeqBs) {
  auto a = build_input(GetParam());
  LisResult r = lis_ranks(a);
  std::vector<int32_t> brute = brute_lis_ranks(a);
  std::vector<int32_t> seq = seq_bs_ranks(a);
  ASSERT_EQ(r.rank, brute);
  ASSERT_EQ(r.rank, seq);
  int32_t k = 0;
  for (int32_t t : brute) k = std::max(k, t);
  ASSERT_EQ(r.k, k);
  // Witness: a valid strictly-increasing subsequence of length k.
  std::vector<int64_t> seq_idx = lis_sequence(a);
  ASSERT_EQ(static_cast<int64_t>(seq_idx.size()), k);
  for (size_t t = 1; t < seq_idx.size(); t++) {
    ASSERT_LT(seq_idx[t - 1], seq_idx[t]);
    ASSERT_LT(a[seq_idx[t - 1]], a[seq_idx[t]]);
  }
}

// ------------------------------------------------------------------ WLIS ---

void check_wlis_case(const DiffCase& c, bool with_negatives) {
  auto a = build_input(c);
  auto w = build_weights(c, with_negatives);
  std::vector<int64_t> brute = brute_wlis_dp(a, w);
  std::vector<int64_t> avl = seq_avl_wlis(a, w);
  WlisResult tree = wlis(a, w, WlisStructure::kRangeTree);
  WlisResult veb = wlis(a, w, WlisStructure::kRangeVeb);
  WlisResult tab = wlis(a, w, WlisStructure::kRangeVebTabulated);
  ASSERT_EQ(avl, brute);
  ASSERT_EQ(tree.dp, brute);
  ASSERT_EQ(veb.dp, brute);
  ASSERT_EQ(tab.dp, brute);
  int64_t best = 0;
  for (int64_t d : brute) best = std::max(best, d);
  ASSERT_EQ(tree.best, best);
  ASSERT_EQ(veb.best, best);
  ASSERT_EQ(tab.best, best);
  // Witness: ascending indices, strictly increasing values, weights summing
  // to best. (best is clamped at 0; if every dp is negative the witness is
  // the lone argmax and only chain validity is checkable.)
  std::vector<int64_t> seq = wlis_sequence(a, w, tree);
  ASSERT_FALSE(seq.empty());
  int64_t total = 0;
  for (size_t t = 0; t < seq.size(); t++) {
    total += w[seq[t]];
    if (t > 0) {
      ASSERT_LT(seq[t - 1], seq[t]);
      ASSERT_LT(a[seq[t - 1]], a[seq[t]]);
    }
  }
  int64_t max_dp = *std::max_element(brute.begin(), brute.end());
  ASSERT_EQ(total, max_dp > 0 ? best : max_dp);
}

TEST_P(Differential, WlisStructuresMatchBruteForceAndSeqAvl) {
  check_wlis_case(GetParam(), /*with_negatives=*/false);
}

TEST_P(Differential, WlisWithNegativeWeightsMatchesOracles) {
  check_wlis_case(GetParam(), /*with_negatives=*/true);
}

// --------------------------------------------------------- sequential mode ---

TEST_P(Differential, SequentialModeProducesIdenticalResults) {
  const DiffCase& c = GetParam();
  auto a = build_input(c);
  auto w = build_weights(c, /*with_negatives=*/false);
  LisResult par_lis = lis_ranks(a);
  WlisResult par_wlis = wlis(a, w, WlisStructure::kRangeTree);
  bool prev = set_sequential_mode(true);
  LisResult seq_lis = lis_ranks(a);
  WlisResult seq_wlis = wlis(a, w, WlisStructure::kRangeTree);
  WlisResult seq_veb = wlis(a, w, WlisStructure::kRangeVeb);
  set_sequential_mode(prev);
  ASSERT_EQ(par_lis.rank, seq_lis.rank);
  ASSERT_EQ(par_lis.k, seq_lis.k);
  ASSERT_EQ(par_wlis.dp, seq_wlis.dp);
  ASSERT_EQ(par_wlis.best, seq_wlis.best);
  ASSERT_EQ(par_wlis.dp, seq_veb.dp);
}

// ------------------------------------------------- ties-policy oracles ---

// O(n^2) dp for the longest *non-decreasing* subsequence.
std::vector<int32_t> brute_nondec_ranks(const std::vector<int64_t>& a) {
  std::vector<int32_t> dp(a.size(), 1);
  for (size_t i = 0; i < a.size(); i++) {
    for (size_t j = 0; j < i; j++) {
      if (a[j] <= a[i]) dp[i] = std::max(dp[i], dp[j] + 1);
    }
  }
  return dp;
}

// O(n^2) weighted dp where equal values may chain.
std::vector<int64_t> brute_nondec_wlis_dp(const std::vector<int64_t>& a,
                                          const std::vector<int64_t>& w) {
  std::vector<int64_t> dp(a.size());
  for (size_t i = 0; i < a.size(); i++) {
    int64_t best = 0;
    for (size_t j = 0; j < i; j++) {
      if (a[j] <= a[i]) best = std::max(best, dp[j]);
    }
    dp[i] = w[i] + best;
  }
  return dp;
}

// The duplicate-value semantics contract, exercised on the tie-heavy sweep
// cases: under kStrict equal values never chain, under kNonDecreasing they
// chain in input order — and every backend must agree with the O(n^2)
// oracle for the policy in force.
TEST_P(Differential, NonDecreasingTiesMatchOracle) {
  const DiffCase& c = GetParam();
  auto a = build_input(c);
  auto w = build_weights(c, /*with_negatives=*/false);
  std::vector<int32_t> brute = brute_nondec_ranks(a);
  int32_t k = 0;
  for (int32_t t : brute) k = std::max(k, t);

  Options opts;
  opts.ties = TiesPolicy::kNonDecreasing;
  Solver solver(opts);
  LisResult lr;
  solver.solve_lis(std::span<const int64_t>(a), lr);
  ASSERT_EQ(lr.rank, brute);
  ASSERT_EQ(lr.k, k);
  const std::vector<int64_t> want = brute_nondec_wlis_dp(a, w);
  WlisResult wr;
  solver.solve_wlis(std::span<const int64_t>(a), std::span<const int64_t>(w),
                    wr);
  ASSERT_EQ(wr.dp, want);
  ASSERT_EQ(wr.k, k);
  // The rounds reach the policy through the rank image, every structure
  // on one shared workspace.
  WlisWorkspace ws;
  for (WlisStructure st :
       {WlisStructure::kRangeTree, WlisStructure::kRangeVeb,
        WlisStructure::kRangeVebTabulated}) {
    rank_space_into<int64_t>(a, TiesPolicy::kNonDecreasing, ws.rank_space,
                             ws.rank_scratch);
    wlis_compressed_into(std::span<const int64_t>(ws.rank_space.rank),
                         std::span<const int64_t>(w), ws, wr, st);
    ASSERT_EQ(wr.dp, want) << "structure " << static_cast<int>(st);
    ASSERT_EQ(wr.k, k);
  }
  // The free-function route to the same policy.
  ASSERT_EQ(longest_nondecreasing_ranks(a).rank, brute);
}

// Sequence recovery under both ties policies on tie-heavy inputs: the
// recovered indices must be ascending, the values must respect the policy,
// and the length / weight must match the oracle optimum. The
// kNonDecreasing recovery runs the unchanged strict reconstruction on the
// rank image — the rank-space reduction makes ties a non-event downstream.
TEST_P(Differential, SequenceRecoveryUnderBothTiesPolicies) {
  const DiffCase& c = GetParam();
  auto a = build_input(c);
  auto w = build_weights(c, /*with_negatives=*/false);

  // Strict recovery is covered by LisRanksMatchBruteForceAndSeqBs; here
  // add the weighted strict witness on tie-heavy inputs plus both
  // non-decreasing recoveries.
  RankSpace rs = rank_space<int64_t>(std::span<const int64_t>(a),
                                     TiesPolicy::kNonDecreasing);
  std::vector<int64_t> ranks = rs.rank;

  std::vector<int64_t> seq = lis_sequence(ranks);
  std::vector<int32_t> brute = brute_nondec_ranks(a);
  int32_t k = 0;
  for (int32_t t : brute) k = std::max(k, t);
  ASSERT_EQ(static_cast<int32_t>(seq.size()), k);
  for (size_t t = 1; t < seq.size(); t++) {
    ASSERT_LT(seq[t - 1], seq[t]);
    ASSERT_LE(a[seq[t - 1]], a[seq[t]]);  // non-decreasing, ties allowed
  }

  // Weighted: solve on the rank image, recover on the rank image, validate
  // against the original values.
  WlisResult wr = wlis(ranks, w);
  std::vector<int64_t> brute_dp = brute_nondec_wlis_dp(a, w);
  ASSERT_EQ(wr.dp, brute_dp);
  std::vector<int64_t> wseq = wlis_sequence(ranks, w, wr);
  ASSERT_FALSE(wseq.empty());
  int64_t total = 0;
  for (size_t t = 0; t < wseq.size(); t++) {
    total += w[wseq[t]];
    if (t > 0) {
      ASSERT_LT(wseq[t - 1], wseq[t]);
      ASSERT_LE(a[wseq[t - 1]], a[wseq[t]]);
    }
  }
  int64_t max_dp = *std::max_element(brute_dp.begin(), brute_dp.end());
  ASSERT_EQ(total, max_dp > 0 ? wr.best : max_dp);
}

// ------------------------------------------------------- generic keys ---

// Order-preserving injections of the int sweep inputs into other key
// types: halved doubles (exact in IEEE754 for this value range) and
// lexicographic (div, mod) pairs. Equal ints map to equal keys, so the
// tie structure — the hard part — is preserved and the int64 oracles
// remain the ground truth for both policies.
TEST_P(Differential, DoubleAndPairKeysMatchOracleThroughSolver) {
  const DiffCase& c = GetParam();
  auto a = build_input(c);
  auto w = build_weights(c, /*with_negatives=*/false);
  std::vector<double> ad(a.size());
  std::vector<std::pair<int64_t, int64_t>> ap(a.size());
  for (size_t i = 0; i < a.size(); i++) {
    ad[i] = 0.5 * static_cast<double>(a[i]);
    ap[i] = {a[i] / 97, a[i] % 97};
  }
  for (TiesPolicy ties :
       {TiesPolicy::kStrict, TiesPolicy::kNonDecreasing}) {
    std::vector<int32_t> brute_ranks = ties == TiesPolicy::kStrict
                                           ? brute_lis_ranks(a)
                                           : brute_nondec_ranks(a);
    std::vector<int64_t> brute_dp = ties == TiesPolicy::kStrict
                                        ? brute_wlis_dp(a, w)
                                        : brute_nondec_wlis_dp(a, w);
    Options opts;
    opts.ties = ties;
    Solver solver(opts);
    LisResult lr;
    WlisResult wr;

    solver.solve_lis(std::span<const double>(ad), lr);
    ASSERT_EQ(lr.rank, brute_ranks);
    solver.solve_wlis(std::span<const double>(ad),
                      std::span<const int64_t>(w), wr);
    ASSERT_EQ(wr.dp, brute_dp);

    solver.solve_lis(std::span<const std::pair<int64_t, int64_t>>(ap), lr);
    ASSERT_EQ(lr.rank, brute_ranks);
    solver.solve_wlis(std::span<const std::pair<int64_t, int64_t>>(ap),
                      std::span<const int64_t>(w), wr);
    ASSERT_EQ(wr.dp, brute_dp);

    // Custom comparator: descending doubles under std::greater must see
    // the mirrored input's oracle.
    std::vector<double> neg(ad.size());
    for (size_t i = 0; i < ad.size(); i++) neg[i] = -ad[i];
    solver.solve_lis(std::span<const double>(neg), lr,
                     std::greater<double>{});
    ASSERT_EQ(lr.rank, brute_ranks);

    // The SWGS baseline on the same rank image (small cases only: the
    // wake-up scheme is O(n log^3 n) with big constants). swgs_wlis_into
    // ranks its input into ws.rank_space, so it takes a copy of the image.
    if (c.n <= 900) {
      WlisWorkspace ws;
      rank_space_into<double>(std::span<const double>(ad), ties,
                              ws.rank_space, ws.rank_scratch);
      ASSERT_EQ(swgs_lis_ranks(ws.rank_space.rank).rank, brute_ranks);
      const std::vector<int64_t> image = ws.rank_space.rank;
      swgs_wlis_into(image, w, 42, ws, wr);
      ASSERT_EQ(wr.dp, brute_dp);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Differential, ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace parlis
