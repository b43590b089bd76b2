// Tests for the tournament tree (Alg. 1 machinery) and the LIS algorithms,
// including the Appendix A reconstruction and the SWGS baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <mutex>
#include <vector>

#include "parlis/lis/lis.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/lis/tournament_tree.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/swgs/swgs.hpp"
#include "parlis/util/generators.hpp"

namespace parlis {
namespace {

// ------------------------------------------------------- tournament tree ---

// Reference frontier: prefix-min objects of the live set, in input order.
std::vector<int64_t> reference_frontier(const std::vector<int64_t>& a,
                                        std::vector<bool>& alive) {
  std::vector<int64_t> out;
  int64_t cur = INT64_MAX;
  for (size_t i = 0; i < a.size(); i++) {
    if (!alive[i]) continue;
    if (a[i] <= cur) {
      out.push_back(static_cast<int64_t>(i));
      cur = a[i];
      alive[i] = false;
    } else {
      cur = std::min(cur, a[i]);
    }
  }
  return out;
}

TEST(TournamentTree, PaperRunningExample) {
  // Fig. 3: input {52,31,45,26,61,10,39,44}; frontiers {0,1,3,5},{2,6},{4,7}.
  std::vector<int64_t> a = {52, 31, 45, 26, 61, 10, 39, 44};
  TournamentTree<int64_t> t(a, INT64_MAX);
  EXPECT_EQ(t.extract_frontier_collect(),
            (std::vector<int64_t>{0, 1, 3, 5}));
  EXPECT_EQ(t.extract_frontier_collect(), (std::vector<int64_t>{2, 6}));
  EXPECT_EQ(t.extract_frontier_collect(), (std::vector<int64_t>{4, 7}));
  EXPECT_TRUE(t.empty());
}

TEST(TournamentTree, MinValueTracksLiveMinimum) {
  std::vector<int64_t> a = {5, 3, 8, 1};
  TournamentTree<int64_t> t(a, INT64_MAX);
  EXPECT_EQ(t.min_value(), 1);
  t.extract_frontier_collect();  // removes 5,3,1
  EXPECT_EQ(t.min_value(), 8);
}

TEST(TournamentTree, NonPowerOfTwoSizes) {
  for (int64_t n : {1, 2, 3, 5, 7, 9, 100, 1000, 1023, 1025}) {
    std::vector<int64_t> a(n);
    for (int64_t i = 0; i < n; i++) a[i] = hash64(20, n * 131 + i) % (3 * n);
    TournamentTree<int64_t> t(a, INT64_MAX);
    std::vector<bool> alive(n, true);
    while (!t.empty()) {
      auto got = t.extract_frontier_collect();
      auto want = reference_frontier(a, alive);
      ASSERT_EQ(got, want) << "n=" << n;
    }
    ASSERT_TRUE(std::none_of(alive.begin(), alive.end(),
                             [](bool b) { return b; }));
  }
}

TEST(TournamentTree, SinglePassMatchesCollect) {
  std::vector<int64_t> a(5000);
  for (size_t i = 0; i < a.size(); i++) a[i] = hash64(21, i) % 700;
  TournamentTree<int64_t> t1(a, INT64_MAX), t2(a, INT64_MAX);
  while (!t1.empty()) {
    std::vector<int64_t> got;
    std::mutex mu;
    t1.extract_frontier([&](int64_t i) {
      std::lock_guard<std::mutex> lk(mu);
      got.push_back(i);
    });
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, t2.extract_frontier_collect());
  }
  EXPECT_TRUE(t2.empty());
}

TEST(TournamentTree, DuplicatesArePrefixMinInclusive) {
  // Prefix-min uses <=, so equal values in a row all land in round 1.
  std::vector<int64_t> a = {4, 4, 4, 4};
  TournamentTree<int64_t> t(a, INT64_MAX);
  EXPECT_EQ(t.extract_frontier_collect(),
            (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_TRUE(t.empty());
}

// -------------------------------------------------------------------- LIS ---

TEST(Lis, PaperRunningExample) {
  std::vector<int64_t> a = {52, 31, 45, 26, 61, 10, 39, 44};
  LisResult r = lis_ranks(a);
  EXPECT_EQ(r.rank, (std::vector<int32_t>{1, 1, 2, 1, 3, 1, 2, 3}));
  EXPECT_EQ(r.k, 3);
}

TEST(Lis, EmptyAndSingleton) {
  EXPECT_EQ(lis_length(std::vector<int64_t>{}), 0);
  EXPECT_EQ(lis_length(std::vector<int64_t>{42}), 1);
}

TEST(Lis, StrictlyDecreasingIsOneRound) {
  std::vector<int64_t> a(1000);
  for (size_t i = 0; i < a.size(); i++) a[i] = 1000 - static_cast<int64_t>(i);
  LisResult r = lis_ranks(a);
  EXPECT_EQ(r.k, 1);
  for (int32_t x : r.rank) EXPECT_EQ(x, 1);
}

TEST(Lis, StrictlyIncreasingIsFullLength) {
  std::vector<int64_t> a(500);
  for (size_t i = 0; i < a.size(); i++) a[i] = static_cast<int64_t>(i);
  EXPECT_EQ(lis_length(a), 500);
}

TEST(Lis, AllEqualHasLisOne) {
  std::vector<int64_t> a(300, 7);
  EXPECT_EQ(lis_length(a), 1);  // strictly increasing: equal can't chain
}

struct LisCase {
  int64_t n;
  int64_t value_range;
  uint64_t seed;
};

class LisRandomized : public ::testing::TestWithParam<LisCase> {};

TEST_P(LisRandomized, MatchesBruteForceAndSeqBs) {
  auto [n, range, seed] = GetParam();
  std::vector<int64_t> a(n);
  for (int64_t i = 0; i < n; i++) {
    a[i] = static_cast<int64_t>(uniform(seed, i, range));
  }
  LisResult ours = lis_ranks(a);
  std::vector<int32_t> brute = brute_lis_ranks(a);
  EXPECT_EQ(ours.rank, brute);
  EXPECT_EQ(ours.rank, seq_bs_ranks(a));
  EXPECT_EQ(static_cast<int64_t>(ours.k), seq_bs_length(a));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LisRandomized,
    ::testing::Values(LisCase{1, 1, 1}, LisCase{2, 2, 2}, LisCase{10, 3, 3},
                      LisCase{100, 5, 4}, LisCase{100, 1000, 5},
                      LisCase{500, 2, 6}, LisCase{500, 500, 7},
                      LisCase{1000, 10, 8}, LisCase{1000, 100000, 9},
                      LisCase{2000, 40, 10}));

TEST(Lis, FrontiersPartitionInput) {
  auto a = range_pattern(20000, 50, 11);
  LisFrontiers fr = lis_frontiers(a);
  EXPECT_EQ(fr.frontier_offset.back(),
            static_cast<int64_t>(a.size()));
  std::vector<bool> seen(a.size(), false);
  for (int32_t r = 1; r <= fr.k; r++) {
    int64_t prev = -1;
    for (int64_t t = fr.frontier_offset[r - 1]; t < fr.frontier_offset[r];
         t++) {
      int64_t i = fr.frontier_flat[t];
      ASSERT_FALSE(seen[i]);
      seen[i] = true;
      ASSERT_LT(prev, i) << "frontier must be index-sorted";
      prev = i;
      ASSERT_EQ(fr.rank[i], r);
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Lis, FrontierValuesNonIncreasing) {
  // Lemma A.2: within a frontier, values are non-increasing.
  auto a = line_pattern(30000, 200, 12);
  LisFrontiers fr = lis_frontiers(a);
  for (int32_t r = 1; r <= fr.k; r++) {
    for (int64_t t = fr.frontier_offset[r - 1] + 1; t < fr.frontier_offset[r];
         t++) {
      ASSERT_GE(a[fr.frontier_flat[t - 1]], a[fr.frontier_flat[t]]);
    }
  }
}

// ---------------------------------------------------------- reconstruction ---

template <typename T>
void check_valid_lis(const std::vector<T>& a, const std::vector<int64_t>& seq,
                     int64_t k) {
  ASSERT_EQ(static_cast<int64_t>(seq.size()), k);
  for (size_t j = 1; j < seq.size(); j++) {
    ASSERT_LT(seq[j - 1], seq[j]);
    ASSERT_LT(a[seq[j - 1]], a[seq[j]]);
  }
}

TEST(LisSequence, ValidAndMaximal) {
  for (uint64_t seed = 0; seed < 8; seed++) {
    int64_t n = 200 + static_cast<int64_t>(hash64(22, seed) % 2000);
    std::vector<int64_t> a(n);
    for (int64_t i = 0; i < n; i++) a[i] = hash64(23, seed * 100000 + i) % 400;
    int64_t k = seq_bs_length(a);
    auto seq = lis_sequence(a);
    check_valid_lis(a, seq, k);
  }
  // The int64 extremes: INT64_MAX is the register tiers' empty-lane filler.
  std::vector<int64_t> ext(600);
  for (int64_t i = 0; i < 600; i++) {
    ext[i] = static_cast<int64_t>(hash64(24, i) % 300) - 150;
  }
  for (int64_t i : {17, 310}) ext[i] = std::numeric_limits<int64_t>::min();
  for (int64_t i : {50, 400, 599}) ext[i] = std::numeric_limits<int64_t>::max();
  check_valid_lis(ext, lis_sequence(ext), seq_bs_length(ext));
  // k past the tiers' kTierTails tails: the kernel spills to its memory loop.
  const std::vector<int64_t> deep = line_pattern(20000, 1000, 25);
  const int64_t deep_k = seq_bs_length(deep);
  ASSERT_GT(deep_k, simd::kTierTails);
  check_valid_lis(deep, lis_sequence(deep), deep_k);
  // A key type other than int64.
  std::vector<double> dbl(1500);
  for (int64_t i = 0; i < 1500; i++) {
    dbl[i] = static_cast<double>(hash64(26, i) % 5000) / 7.0;
  }
  check_valid_lis(dbl, lis_sequence(dbl), seq_bs_length(dbl));
}

TEST(LisSequence, DecisionsPointToPreviousRank) {
  auto a = range_pattern(5000, 30, 13);
  LisFrontiers fr = lis_frontiers(a);
  auto d = lis_decisions(a, fr);
  for (size_t i = 0; i < a.size(); i++) {
    if (fr.rank[i] == 1) {
      EXPECT_EQ(d[i], -1);
    } else {
      ASSERT_GE(d[i], 0);
      ASSERT_LT(d[i], static_cast<int64_t>(i));
      ASSERT_EQ(fr.rank[d[i]], fr.rank[i] - 1);
      ASSERT_LT(a[d[i]], a[i]);  // Lemma A.1: a usable best decision
    }
  }
}

TEST(LisSequence, EdgeCases) {
  EXPECT_TRUE(lis_sequence(std::vector<int64_t>{}).empty());
  EXPECT_EQ(lis_sequence(std::vector<int64_t>{9}),
            (std::vector<int64_t>{0}));
  auto seq = lis_sequence(std::vector<int64_t>{3, 2, 1});
  ASSERT_EQ(seq.size(), 1u);
}

// ------------------------------------------------------------------- SWGS ---

class SwgsRandomized : public ::testing::TestWithParam<LisCase> {};

TEST_P(SwgsRandomized, RanksMatchOurs) {
  auto [n, range, seed] = GetParam();
  std::vector<int64_t> a(n);
  for (int64_t i = 0; i < n; i++) {
    a[i] = static_cast<int64_t>(uniform(seed ^ 0x5555, i, range));
  }
  SwgsStats stats;
  LisResult sw = swgs_lis_ranks(a, seed, &stats);
  LisResult ours = lis_ranks(a);
  EXPECT_EQ(sw.rank, ours.rank);
  EXPECT_EQ(sw.k, ours.k);
  // The wake-up scheme re-checks each object O(log n) times whp.
  EXPECT_LE(stats.total_checks, 64 * std::max<int64_t>(n, 1));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SwgsRandomized,
    ::testing::Values(LisCase{1, 1, 1}, LisCase{50, 4, 2},
                      LisCase{300, 300, 3}, LisCase{1000, 20, 4},
                      LisCase{3000, 100000, 5}));

TEST(Swgs, DeterministicGivenSeed) {
  auto a = range_pattern(2000, 25, 14);
  SwgsStats s1, s2;
  auto r1 = swgs_lis_ranks(a, 99, &s1);
  auto r2 = swgs_lis_ranks(a, 99, &s2);
  EXPECT_EQ(r1.rank, r2.rank);
  EXPECT_EQ(s1.total_checks, s2.total_checks);
}

}  // namespace
}  // namespace parlis
