// Degenerate-input audit: n = 0, n = 1, and all-equal values through every
// entry point — the free functions, the rank-space pass under both ties
// policies, the Solver overloads (int64 and typed), and solve_many with
// empty batches and empty query spans. These are the shapes a serving
// deployment sees constantly (empty feeds, singleton series, constant
// series) and exactly the ones an off-by-one in a frontier loop or a rank
// scan silently corrupts.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/swgs/swgs.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/wlis/wlis.hpp"
#include "parlis/wlis/wlis_workspace.hpp"

namespace parlis {
namespace {

// ------------------------------------------------------------ rank space ---

TEST(EdgeCases, RankSpaceEmpty) {
  for (TiesPolicy ties : {TiesPolicy::kStrict, TiesPolicy::kNonDecreasing}) {
    RankSpace rs = rank_space<int64_t>(std::span<const int64_t>{}, ties);
    EXPECT_TRUE(rs.order.empty());
    EXPECT_TRUE(rs.pos.empty());
    EXPECT_TRUE(rs.rank.empty());
    EXPECT_TRUE(rs.qpos.empty());
    EXPECT_EQ(rs.n_distinct, 0);
  }
}

TEST(EdgeCases, RankSpaceSingleton) {
  std::vector<int64_t> a = {42};
  for (TiesPolicy ties : {TiesPolicy::kStrict, TiesPolicy::kNonDecreasing}) {
    RankSpace rs = rank_space<int64_t>(std::span<const int64_t>(a), ties);
    EXPECT_EQ(rs.order, (std::vector<int64_t>{0}));
    EXPECT_EQ(rs.pos, (std::vector<int64_t>{0}));
    EXPECT_EQ(rs.rank, (std::vector<int64_t>{0}));
    EXPECT_EQ(rs.qpos, (std::vector<int64_t>{0}));
    EXPECT_EQ(rs.n_distinct, 1);
  }
}

TEST(EdgeCases, RankSpaceAllEqual) {
  std::vector<int64_t> a(257, 7);
  RankSpace strict =
      rank_space<int64_t>(std::span<const int64_t>(a), TiesPolicy::kStrict);
  EXPECT_EQ(strict.n_distinct, 1);
  for (int64_t i = 0; i < 257; i++) {
    EXPECT_EQ(strict.rank[i], 0);
    EXPECT_EQ(strict.qpos[i], 0);
    EXPECT_EQ(strict.order[i], i);  // ties break by index: identity order
    EXPECT_EQ(strict.pos[i], i);
  }
  RankSpace nondec = rank_space<int64_t>(std::span<const int64_t>(a),
                                         TiesPolicy::kNonDecreasing);
  EXPECT_EQ(nondec.n_distinct, 257);
  for (int64_t i = 0; i < 257; i++) {
    EXPECT_EQ(nondec.rank[i], i);  // stable: input order is rank order
    EXPECT_EQ(nondec.qpos[i], i);
  }
}

// Crosses the 4096-element block boundary of the run scan with a run that
// spans blocks: the carried run start and dense rank must survive the
// block handoff.
TEST(EdgeCases, RankSpaceRunAcrossBlocks) {
  const int64_t n = 10000;
  std::vector<int64_t> a(n);
  for (int64_t i = 0; i < n; i++) a[i] = i < 5 ? 0 : 1;  // 9995-long run of 1
  RankSpace rs =
      rank_space<int64_t>(std::span<const int64_t>(a), TiesPolicy::kStrict);
  EXPECT_EQ(rs.n_distinct, 2);
  for (int64_t i = 0; i < n; i++) {
    EXPECT_EQ(rs.rank[i], a[i]);
    EXPECT_EQ(rs.qpos[i], a[i] == 0 ? 0 : 5);
  }
}

// ---------------------------------------------------------- free functions ---

TEST(EdgeCases, LisFreeFunctionsEmpty) {
  std::vector<int64_t> a;
  LisResult r = lis_ranks(a);
  EXPECT_EQ(r.k, 0);
  EXPECT_TRUE(r.rank.empty());
  LisFrontiers fr = lis_frontiers(a);
  EXPECT_EQ(fr.k, 0);
  EXPECT_EQ(fr.frontier_offset, (std::vector<int64_t>{0}));
  EXPECT_TRUE(lis_sequence(a).empty());
  EXPECT_EQ(longest_nondecreasing_length(a), 0);
}

TEST(EdgeCases, LisFreeFunctionsSingleton) {
  std::vector<int64_t> a = {-5};
  EXPECT_EQ(lis_ranks(a).k, 1);
  EXPECT_EQ(lis_sequence(a), (std::vector<int64_t>{0}));
  EXPECT_EQ(longest_nondecreasing_length(a), 1);
}

TEST(EdgeCases, LisFreeFunctionsAllEqual) {
  std::vector<int64_t> a(100, 3);
  LisResult r = lis_ranks(a);
  EXPECT_EQ(r.k, 1);
  for (int32_t t : r.rank) EXPECT_EQ(t, 1);
  EXPECT_EQ(static_cast<int64_t>(lis_sequence(a).size()), 1);
  EXPECT_EQ(longest_nondecreasing_length(a), 100);
}

TEST(EdgeCases, WlisEmptyAndSingleton) {
  std::vector<int64_t> empty_a, empty_w;
  for (WlisStructure st :
       {WlisStructure::kRangeTree, WlisStructure::kRangeVeb,
        WlisStructure::kRangeVebTabulated}) {
    WlisResult r = wlis(empty_a, empty_w, st);
    EXPECT_EQ(r.k, 0);
    EXPECT_EQ(r.best, 0);
    EXPECT_TRUE(r.dp.empty());
    EXPECT_TRUE(wlis_sequence(empty_a, empty_w, r).empty());

    std::vector<int64_t> a = {9}, w = {-4};
    WlisResult s = wlis(a, w, st);
    EXPECT_EQ(s.k, 1);
    EXPECT_EQ(s.dp, (std::vector<int64_t>{-4}));
    EXPECT_EQ(s.best, 0);  // the empty subsequence beats a negative chain
    EXPECT_EQ(wlis_sequence(a, w, s), (std::vector<int64_t>{0}));
  }
}

TEST(EdgeCases, WlisAllEqual) {
  std::vector<int64_t> a(60, 5), w(60);
  for (int64_t i = 0; i < 60; i++) w[i] = (i % 7) - 3;
  WlisResult r = wlis(a, w);
  EXPECT_EQ(r.k, 1);
  EXPECT_EQ(r.dp, w);  // nothing chains: dp[i] = w[i]
  EXPECT_EQ(r.best, 3);
}

TEST(EdgeCases, SwgsEmptySingletonAllEqual) {
  std::vector<int64_t> empty;
  SwgsStats stats;
  LisResult r = swgs_lis_ranks(empty, 1, &stats);
  EXPECT_EQ(r.k, 0);
  EXPECT_EQ(stats.total_checks, 0);
  WlisResult wr = swgs_wlis(empty, empty, 1, &stats);
  EXPECT_EQ(wr.k, 0);
  EXPECT_EQ(wr.best, 0);

  std::vector<int64_t> one = {11}, onew = {6};
  EXPECT_EQ(swgs_lis_ranks(one, 1).k, 1);
  EXPECT_EQ(swgs_wlis(one, onew, 1).best, 6);

  std::vector<int64_t> eq(40, 2), eqw(40, 1);
  LisResult re = swgs_lis_ranks(eq, 1);
  EXPECT_EQ(re.k, 1);
  EXPECT_EQ(swgs_wlis(eq, eqw, 1).best, 1);
}

// ------------------------------------------------------------------ Solver ---

TEST(EdgeCases, SolverDegenerateInputsBothPolicies) {
  for (TiesPolicy ties : {TiesPolicy::kStrict, TiesPolicy::kNonDecreasing}) {
    Options opts;
    opts.ties = ties;
    Solver solver(opts);
    LisResult lr;
    WlisResult wr;
    LisFrontiers fr;

    std::vector<int64_t> empty;
    solver.solve_lis(std::span<const int64_t>(empty), lr);
    EXPECT_EQ(lr.k, 0);
    solver.solve_lis_frontiers(std::span<const int64_t>(empty), fr);
    EXPECT_EQ(fr.k, 0);
    solver.solve_wlis(std::span<const int64_t>(empty),
                      std::span<const int64_t>(empty), wr);
    EXPECT_EQ(wr.best, 0);
    EXPECT_EQ(solver.lis_length(std::span<const int64_t>(empty)), 0);

    // Typed overloads on empty spans.
    solver.solve_lis(std::span<const double>{}, lr);
    EXPECT_EQ(lr.k, 0);
    solver.solve_wlis(std::span<const double>{}, std::span<const int64_t>{},
                      wr);
    EXPECT_EQ(wr.k, 0);

    std::vector<int64_t> one = {0}, onew = {5};
    solver.solve_lis(std::span<const int64_t>(one), lr);
    EXPECT_EQ(lr.k, 1);
    solver.solve_wlis(std::span<const int64_t>(one),
                      std::span<const int64_t>(onew), wr);
    EXPECT_EQ(wr.best, 5);

    std::vector<int64_t> eq(50, 9), eqw(50, 2);
    solver.solve_lis(std::span<const int64_t>(eq), lr);
    EXPECT_EQ(lr.k, ties == TiesPolicy::kStrict ? 1 : 50);
    solver.solve_wlis(std::span<const int64_t>(eq),
                      std::span<const int64_t>(eqw), wr);
    EXPECT_EQ(wr.best, ties == TiesPolicy::kStrict ? 2 : 100);

    // The SWGS baseline on the rank image under the same ties policy.
    WlisWorkspace ws;
    rank_space_into<int64_t>(std::span<const int64_t>(empty), ties,
                             ws.rank_space, ws.rank_scratch);
    EXPECT_EQ(swgs_lis_ranks(ws.rank_space.rank).k, 0);
    swgs_wlis_compressed_into(ws.rank_space.rank,
                              std::span<const int64_t>(empty), 42, ws, wr);
    EXPECT_EQ(wr.k, 0);
    rank_space_into<int64_t>(std::span<const int64_t>(eq), ties,
                             ws.rank_space, ws.rank_scratch);
    EXPECT_EQ(swgs_lis_ranks(ws.rank_space.rank).k,
              ties == TiesPolicy::kStrict ? 1 : 50);
    swgs_wlis_compressed_into(ws.rank_space.rank,
                              std::span<const int64_t>(eqw), 42, ws, wr);
    EXPECT_EQ(wr.best, ties == TiesPolicy::kStrict ? 2 : 100);
  }
}

TEST(EdgeCases, SolveManyEmptyBatchAndEmptyQuerySpans) {
  Solver solver;
  // Empty batch: a no-op, not a crash.
  solver.solve_many({}, {});

  // A batch mixing empty query spans with real ones, in both query shapes.
  std::vector<int64_t> a = {3, 1, 2, 5, 4};
  std::vector<int64_t> w = {1, 1, 1, 1, 1};
  std::vector<int32_t> rank_out(a.size(), -1);
  std::vector<Query> queries(4);
  queries[0].a = {};  // empty unweighted
  queries[1].a = std::span<const int64_t>(a);
  queries[1].rank_out = std::span<int32_t>(rank_out);
  queries[2].a = {};  // empty weighted (w empty too: |w| == |a|)
  queries[3].a = std::span<const int64_t>(a);
  queries[3].w = std::span<const int64_t>(w);
  std::vector<QueryResult> results(queries.size());
  solver.solve_many(queries, results);
  EXPECT_EQ(results[0].k, 0);
  EXPECT_EQ(results[0].best, 0);
  EXPECT_EQ(results[1].k, 3);  // 1 2 5 / 1 2 4
  EXPECT_EQ(rank_out, (std::vector<int32_t>{1, 1, 2, 3, 3}));
  EXPECT_EQ(results[2].k, 0);
  EXPECT_EQ(results[3].k, 3);
  EXPECT_EQ(results[3].best, 3);
}

// ------------------------------------------------------ sentinel values ---

// INT64_MAX is the tournament tree's default sentinel. A leaf holding it
// used to read as already removed, so such elements never got a rank (and
// WLIS never gave them a dp). They are ordinary values, the largest ones,
// on every int64 kStrict path.
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

void expect_entry_points_match_seq_bs(const std::vector<int64_t>& a) {
  SCOPED_TRACE(testing::Message() << "n = " << a.size());
  const std::vector<int32_t> want = seq_bs_ranks(a);
  const int32_t k = *std::max_element(want.begin(), want.end());
  const std::vector<int64_t> unit(a.size(), 1);
  const std::vector<int64_t> want_dp(want.begin(), want.end());
  const std::span<const int64_t> as(a);

  Solver solver;
  LisResult lr;
  solver.solve_lis(as, lr);
  EXPECT_EQ(lr.rank, want);
  EXPECT_EQ(lr.k, k);

  LisFrontiers fr, want_fr;
  std::vector<int64_t> tails;
  seq_patience_frontiers_into<int64_t>(as, want_fr, tails);
  solver.solve_lis_frontiers(as, fr);
  EXPECT_EQ(fr.rank, want);
  EXPECT_EQ(fr.k, k);
  EXPECT_EQ(fr.frontier_offset, want_fr.frontier_offset);
  EXPECT_EQ(fr.frontier_flat, want_fr.frontier_flat);

  WlisResult wr;
  solver.solve_wlis(as, std::span<const int64_t>(unit), wr);
  EXPECT_EQ(wr.dp, want_dp);
  EXPECT_EQ(wr.best, k);
  EXPECT_EQ(wr.k, k);

  std::vector<int32_t> rank_out(a.size(), -1);
  std::vector<int64_t> dp_out(a.size(), -1);
  std::vector<Query> queries(2);
  queries[0].a = as;
  queries[0].rank_out = std::span<int32_t>(rank_out);
  queries[1].a = as;
  queries[1].w = std::span<const int64_t>(unit);
  queries[1].dp_out = std::span<int64_t>(dp_out);
  std::vector<QueryResult> results(2);
  solver.solve_many(queries, results);
  EXPECT_EQ(rank_out, want);
  EXPECT_EQ(results[0].k, k);
  EXPECT_EQ(dp_out, want_dp);
  EXPECT_EQ(results[1].best, k);

  // The free functions share the kernels.
  EXPECT_EQ(lis_ranks(a).rank, want);
  EXPECT_EQ(static_cast<int32_t>(lis_sequence(a).size()), k);
  EXPECT_EQ(wlis(as, std::span<const int64_t>(unit)).dp, want_dp);
}

TEST(EdgeCases, Int64MaxIsAnOrdinaryValue) {
  // Ranks 1 2 3 (the sentinel bug gave k = 2, ranks 1 2 0).
  expect_entry_points_match_seq_bs({1, 2, kMax});
  // k = 1 (the bug gave 0).
  expect_entry_points_match_seq_bs(std::vector<int64_t>(5, kMax));
  // k = 3 either way, but ranks 1 2 2 3 3 (the bug gave 1 0 2 0 3).
  expect_entry_points_match_seq_bs({1, kMax, 2, kMax, 3});
}

// Large enough that the solves fork and solve_many runs the queries on
// the caller's context; the sentinels straddle tournament blocks.
TEST(EdgeCases, Int64MaxAcrossBlocks) {
  std::vector<int64_t> a(5000);
  for (int64_t i = 0; i < 5000; i++) {
    a[i] = uniform(17, i, 9) == 0 ? kMax : static_cast<int64_t>(
                                               uniform(18, i, 100000));
  }
  expect_entry_points_match_seq_bs(a);
}

// INT64_MIN, the largest value under std::greater (longest strictly
// decreasing run) and the sentinel a one-shot lis_ranks would take for that
// order, is an ordinary value to the Solver.
TEST(EdgeCases, CustomOrderSentinelIsAnOrdinaryValue) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  std::vector<int64_t> a = {5, kMin, 3, kMin, 1};
  Solver solver;
  LisResult lr;
  solver.solve_lis(std::span<const int64_t>(a), lr, std::greater<int64_t>{});
  EXPECT_EQ(lr.rank, (std::vector<int32_t>{1, 2, 2, 3, 3}));
  EXPECT_EQ(lr.k, 3);
}

// ------------------------------------------------------ weight overflow ---

// dp[i] = w[i] + max(0, best chain before i): a sum past INT64_MAX is
// Error{kInvalidArgument} on every Solver path (it used to wrap, which is
// UB). The prefix maximum is never negative, so INT64_MIN weights and
// sums that land exactly on INT64_MAX are fine.
void expect_overflow(const std::function<void()>& solve) {
  try {
    solve();
    ADD_FAILURE() << "expected Error{kInvalidArgument}, call succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
  }
}

TEST(EdgeCases, WlisWeightOverflowThrows) {
  const std::vector<int64_t> a = {1, 2, 3};
  const std::vector<int64_t> w = {kMax, kMax, 1};
  const std::vector<double> da = {1.0, 2.0, 3.0};
  Options nd;
  nd.ties = TiesPolicy::kNonDecreasing;
  // Between the documented Seq-AVL fallback (64 B/element) and the rank
  // space plus the pass (105 B/element), each plus 4 KiB once, at n = 3.
  Options tight;
  tight.memory_budget_bytes = 4096 + 3 * 80;
  for (const Options& opts : {Options{}, nd, tight}) {
    SCOPED_TRACE(testing::Message()
                 << "nondec " << (opts.ties == TiesPolicy::kNonDecreasing)
                 << ", budget " << opts.memory_budget_bytes);
    Solver solver(opts);
    WlisResult out;
    expect_overflow([&] { solver.solve_wlis(a, w, out); });
    if (opts.memory_budget_bytes == 0) {
      expect_overflow([&] {
        solver.solve_wlis(std::span<const double>(da), w, out);
      });
    }
    // solve_many: packed queries, and one above kPoolGateGrain on the
    // caller's context (the tight budget admits only the small ones).
    {
      Solver batch(opts);
      std::vector<Query> qs(2, Query{a, w});
      std::vector<QueryResult> rs(2);
      expect_overflow([&] { batch.solve_many(qs, rs); });
      if (opts.memory_budget_bytes == 0) {
        std::vector<int64_t> big(kPoolGateGrain + 1), big_w(big.size(), 1);
        std::iota(big.begin(), big.end(), int64_t{0});
        big_w[0] = big_w[1] = kMax;
        const Query q{big, big_w};
        QueryResult r;
        expect_overflow([&] {
          batch.solve_many(std::span<const Query>(&q, 1),
                           std::span<QueryResult>(&r, 1));
        });
      }
    }
    // The solver stays usable, and the edges of the domain hold.
    solver.solve_wlis(a, std::vector<int64_t>{kMax - 2, 1, 1}, out);
    EXPECT_EQ(out.dp, (std::vector<int64_t>{kMax - 2, kMax - 1, kMax}));
    EXPECT_EQ(out.best, kMax);
    const int64_t kMin = std::numeric_limits<int64_t>::min();
    solver.solve_wlis(a, std::vector<int64_t>{kMin, kMin, kMax}, out);
    EXPECT_EQ(out.dp, (std::vector<int64_t>{kMin, kMin, kMax}));
    EXPECT_EQ(out.best, kMax);
    const std::vector<int64_t> down = {3, 2, 1};
    solver.solve_wlis(down, std::vector<int64_t>(3, kMax), out);
    EXPECT_EQ(out.dp, std::vector<int64_t>(3, kMax));
    EXPECT_EQ(out.k, 1);
  }
}

TEST(EdgeCases, SolveManyNonDecreasingTies) {
  Options opts;
  opts.ties = TiesPolicy::kNonDecreasing;
  Solver solver(opts);
  std::vector<int64_t> eq(6, 4), w(6, 3);
  std::vector<Query> queries(2);
  queries[0].a = std::span<const int64_t>(eq);
  queries[1].a = std::span<const int64_t>(eq);
  queries[1].w = std::span<const int64_t>(w);
  std::vector<QueryResult> results(2);
  solver.solve_many(queries, results);
  EXPECT_EQ(results[0].k, 6);
  EXPECT_EQ(results[1].best, 18);
}

}  // namespace
}  // namespace parlis
