// Round granularity of the LIS rounds (kRoundGrain, tournament_tree.hpp): a
// round predicted below the grain runs inline, a larger one forks.
//
// RoundGrain.* reads the fork behaviour off scheduler_stats() (it rides the
// `parallel` ctest label, so the TSan leg races the mode switch). It drives
// the tournament through lis_ranks_into: the Solver would solve the deep
// inputs by patience sorting (see test_lis_plan.cpp).
// RoundGrainDifferential.* feeds frontier sizes that jump across the grain
// between rounds, so predicted and actual modes disagree, and checks the
// answers, the frontier layout and the visit count against the oracles and
// a sequential-mode run (the name puts it in the pinned-thread
// differential legs).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "parlis/lis/lis.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/generators.hpp"
#include "tests/frontier_inputs.hpp"

namespace parlis {
namespace {

// Mean spawns of `solves` warm lis_ranks_into calls on `a` (after one
// warm-up).
double spawns_per_solve(const std::vector<int64_t>& a, int solves,
                        LisResult& out) {
  TournamentStorage<int64_t> ws;
  const std::span<const int64_t> as(a);
  lis_ranks_into<int64_t>(as, out, ws);
  const uint64_t before = scheduler_stats().spawns;
  for (int s = 0; s < solves; s++) lis_ranks_into<int64_t>(as, out, ws);
  return static_cast<double>(scheduler_stats().spawns - before) / solves;
}

TEST(RoundGrain, DeepFrontiersDoNotFork) {
  if (num_workers() == 1) GTEST_SKIP() << "a 1-worker pool never forks";
  const std::vector<int64_t> a = line_pattern(1 << 16, 1 << 13, 3);
  LisResult out;
  const double spawns = spawns_per_solve(a, 4, out);
  ASSERT_EQ(out.rank, seq_bs_ranks(a));
  ASSERT_GT(out.k, 2000);  // thousands of rounds of a few elements each
  EXPECT_LT(spawns, 64.0);
}

TEST(RoundGrain, BulkFrontiersStillFork) {
  if (num_workers() == 1) GTEST_SKIP() << "a 1-worker pool never forks";
  const std::vector<int64_t> a = line_pattern(1 << 18, 16, 4);
  LisResult out;
  const double spawns = spawns_per_solve(a, 2, out);
  ASSERT_EQ(out.rank, seq_bs_ranks(a));
  ASSERT_LT(out.k, 64);  // frontiers of thousands, far above the grain
  EXPECT_GE(spawns, static_cast<double>(out.k));  // every round forks
}

// A round predicted small (the previous m was 1) that turns out large
// starts inline, then forks once its blocks have reported kRoundGrain
// leaves, so a misprediction costs O(kRoundGrain log n) span, not O(m).
TEST(RoundGrain, MispredictedRoundFallsBackToForking) {
  if (num_workers() == 1) GTEST_SKIP() << "a 1-worker pool never forks";
  const std::vector<int64_t> a =
      input_with_frontiers({1, 1, 16 * kRoundGrain}, 5);
  TournamentTree<int64_t> tree(std::span<const int64_t>(a),
                               std::numeric_limits<int64_t>::max());
  EXPECT_EQ(tree.extract_frontier([](int64_t) {}), 1);
  EXPECT_EQ(tree.extract_frontier([](int64_t) {}), 1);
  const uint64_t before = scheduler_stats().spawns;
  EXPECT_EQ(tree.extract_frontier([](int64_t) {}), 16 * kRoundGrain);
  EXPECT_GT(scheduler_stats().spawns, before);
  EXPECT_TRUE(tree.empty());
}

// Total visits of a pooled and a sequential-mode run of `solve`.
template <typename Solve>
std::pair<uint64_t, uint64_t> visits_pooled_and_sequential(const Solve& solve) {
  TournamentStorage<int64_t> ws;
  uint64_t base = ws.visits.read();
  solve(ws);
  const uint64_t pooled = ws.visits.read() - base;
  const bool prev = set_sequential_mode(true);
  base = ws.visits.read();
  solve(ws);
  const uint64_t sequential = ws.visits.read() - base;
  set_sequential_mode(prev);
  return {pooled, sequential};
}

void check_frontier_sizes(const std::vector<int64_t>& sizes, uint64_t seed) {
  const std::vector<int64_t> a = input_with_frontiers(sizes, seed);
  const std::span<const int64_t> as(a);
  const int32_t k = static_cast<int32_t>(sizes.size());
  const std::vector<int32_t> want = seq_bs_ranks(a);
  ASSERT_EQ(*std::max_element(want.begin(), want.end()), k);

  LisFrontiers want_fr;
  std::vector<int64_t> tails;
  seq_patience_frontiers_into<int64_t>(as, want_fr, tails);
  for (int32_t r = 1; r <= k; r++) {
    ASSERT_EQ(want_fr.frontier_offset[r] - want_fr.frontier_offset[r - 1],
              sizes[r - 1]);
  }

  TournamentStorage<int64_t> ws;
  LisResult lr;
  lis_ranks_into<int64_t>(as, lr, ws);
  EXPECT_EQ(lr.rank, want);
  EXPECT_EQ(lr.k, k);
  LisFrontiers fr;
  lis_frontiers_into<int64_t>(as, fr, ws);
  EXPECT_EQ(fr.rank, want);
  EXPECT_EQ(fr.frontier_offset, want_fr.frontier_offset);
  EXPECT_EQ(fr.frontier_flat, want_fr.frontier_flat);

  // lis_sequence runs lis_decisions, whose per-round loop follows the grain.
  const std::vector<int64_t> seq = lis_sequence(a);
  ASSERT_EQ(static_cast<int32_t>(seq.size()), k);
  for (size_t t = 1; t < seq.size(); t++) {
    ASSERT_LT(seq[t - 1], seq[t]);
    ASSERT_LT(a[seq[t - 1]], a[seq[t]]);
  }

  // extract_frontier returns each round's m, inline and forked alike.
  TournamentTree<int64_t> tree(as, std::numeric_limits<int64_t>::max());
  for (int32_t r = 1; r <= k; r++) {
    ASSERT_EQ(tree.extract_frontier([](int64_t) {}), sizes[r - 1]);
  }
  EXPECT_TRUE(tree.empty());

  // Inline and forked rounds visit exactly the same entries.
  LisResult scratch;
  const auto [ranks_pooled, ranks_seq] =
      visits_pooled_and_sequential([&](TournamentStorage<int64_t>& ws) {
        lis_ranks_into<int64_t>(as, scratch, ws);
      });
  EXPECT_EQ(ranks_pooled, ranks_seq);
  EXPECT_GT(ranks_pooled, 0u);
  LisFrontiers fscratch;
  const auto [fr_pooled, fr_seq] =
      visits_pooled_and_sequential([&](TournamentStorage<int64_t>& ws) {
        lis_frontiers_into<int64_t>(as, fscratch, ws);
      });
  EXPECT_EQ(fr_pooled, fr_seq);
}

TEST(RoundGrainDifferential, AlternatingAcrossTheGrain) {
  // Starting at 1: the first round forks on its n-sized prediction.
  std::vector<int64_t> sizes;
  for (int r = 0; r < 24; r++) {
    sizes.push_back(r % 2 == 0 ? 1 : 4 * kRoundGrain);
  }
  check_frontier_sizes(sizes, 11);
  std::rotate(sizes.begin(), sizes.begin() + 1, sizes.end());  // 4g first
  check_frontier_sizes(sizes, 12);
}

TEST(RoundGrainDifferential, RampUpAndDownAcrossTheGrain) {
  const int64_t g = kRoundGrain;
  const std::vector<int64_t> up = {1,     g / 8, g / 4, g / 2, g - 2, g - 1,
                                   g,     g + 1, g + 2, 2 * g, 3 * g, 4 * g};
  std::vector<int64_t> sizes = up;
  sizes.insert(sizes.end(), up.rbegin(), up.rend());
  check_frontier_sizes(sizes, 13);
  std::rotate(sizes.begin(), sizes.begin() + up.size(), sizes.end());
  check_frontier_sizes(sizes, 14);  // down first, then up
}

}  // namespace
}  // namespace parlis
