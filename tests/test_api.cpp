// Solver/session API regression tests: one warm Solver driven across
// growing and shrinking input sizes, every WlisStructure backend through
// one warm workspace, and a custom comparator, differential-checked against the legacy one-shot free
// functions (which remain the reference implementations). Also covers
// solve_many (mixed small/large, weighted/unweighted batches with optional
// per-element output spans) and the SWGS session entry points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/util/generators.hpp"
#include "parlis/wlis/wlis.hpp"
#include "parlis/wlis/wlis_workspace.hpp"

namespace parlis {
namespace {

std::vector<int64_t> random_values(int64_t n, uint64_t seed, uint64_t range) {
  std::vector<int64_t> a(n);
  for (int64_t i = 0; i < n; i++) {
    a[i] = static_cast<int64_t>(uniform(seed, i, range));
  }
  return a;
}

// One Solver, many sizes (growing then shrinking so buffers both expand
// and get reused oversized), checked against the one-shot functions.
TEST(Solver, WarmReuseMatchesFreeFunctionsAcrossSizes) {
  Solver solver;
  LisResult lis_out;
  WlisResult wlis_out;
  LisFrontiers fr_out;
  const int64_t sizes[] = {0, 1, 7, 500, 4096, 20000, 3000, 64, 9000, 2};
  for (int64_t n : sizes) {
    auto a = random_values(n, 77 + n, 3 * n + 5);
    auto w = uniform_weights(n, 78 + n);
    solver.solve_lis(a, lis_out);
    LisResult lis_ref = lis_ranks(a);
    EXPECT_EQ(lis_out.rank, lis_ref.rank) << "n=" << n;
    EXPECT_EQ(lis_out.k, lis_ref.k) << "n=" << n;

    solver.solve_lis_frontiers(a, fr_out);
    LisFrontiers fr_ref = lis_frontiers(a);
    EXPECT_EQ(fr_out.rank, fr_ref.rank) << "n=" << n;
    EXPECT_EQ(fr_out.frontier_flat, fr_ref.frontier_flat) << "n=" << n;
    EXPECT_EQ(fr_out.frontier_offset, fr_ref.frontier_offset) << "n=" << n;

    solver.solve_wlis(a, w, wlis_out);
    WlisResult wlis_ref = wlis(a, w);
    EXPECT_EQ(wlis_out.dp, wlis_ref.dp) << "n=" << n;
    EXPECT_EQ(wlis_out.best, wlis_ref.best) << "n=" << n;
    EXPECT_EQ(wlis_out.k, wlis_ref.k) << "n=" << n;
  }
}

// One warm workspace must serve every dominant-max backend of the rounds,
// and the Solver's pass must agree with each of them.
TEST(Solver, AllWlisBackendsAgreeThroughOneWarmSolver) {
  const WlisStructure backends[] = {WlisStructure::kRangeTree,
                                    WlisStructure::kRangeVeb,
                                    WlisStructure::kRangeVebTabulated};
  Solver solver;
  WlisWorkspace ws;
  WlisResult out, pass;
  for (int64_t n : {3000, 12000, 800, 12000}) {
    auto a = random_values(n, 11 * n + 3, 400);  // duplicate-heavy
    auto w = uniform_weights(n, 5 + n);
    solver.solve_wlis(a, w, pass);
    for (WlisStructure s : backends) {
      wlis_into(a, w, ws, out, s);
      EXPECT_EQ(out.dp, pass.dp)
          << "backend=" << static_cast<int>(s) << " n=" << n;
      EXPECT_EQ(out.best, pass.best);
      EXPECT_EQ(out.k, pass.k);
    }
  }
}

// Custom comparator: longest strictly *decreasing* subsequence via
// std::greater, cross-checked by running the default solver on the negated
// input. Interleaved with default-order solves to prove the storage is
// comparator-agnostic.
TEST(Solver, CustomComparatorSharesTheWorkspace) {
  Solver solver;
  LisResult dec_out, inc_out, ref_out;
  for (int64_t n : {1000, 6000, 250}) {
    auto a = random_values(n, 91 + n, 10 * n);
    std::vector<int64_t> neg(n);
    for (int64_t i = 0; i < n; i++) neg[i] = -a[i];
    solver.solve_lis(std::span<const int64_t>(a), dec_out,
                     std::greater<int64_t>{});
    solver.solve_lis(neg, ref_out);
    EXPECT_EQ(dec_out.rank, ref_out.rank) << "n=" << n;
    solver.solve_lis(a, inc_out);  // default order through the same storage
    EXPECT_EQ(inc_out.rank, lis_ranks(a).rank) << "n=" << n;
  }
}

// The value-sequence cache: repeated solves over identical values (with
// changing weights) take the score-reset fast path; any change to the
// values forces a full rebuild. Every combination must match the one-shot
// reference exactly.
TEST(Solver, ValueCacheFastPathMatchesReference) {
  Solver solver;
  WlisResult out;
  const int64_t n = 8000;
  auto a = random_values(n, 1, 300);   // duplicate-heavy
  auto a2 = random_values(n, 2, 300);  // same size, different values
  // Same values, four different weight vectors: hits after the first.
  for (uint64_t ws = 0; ws < 4; ws++) {
    auto w = uniform_weights(n, 100 + ws);
    solver.solve_wlis(a, w, out);
    WlisResult ref = wlis(a, w);
    EXPECT_EQ(out.dp, ref.dp) << "weights seed " << ws;
    EXPECT_EQ(out.best, ref.best);
  }
  // Interleave a different value sequence (miss), then return (miss again).
  auto w = uniform_weights(n, 7);
  solver.solve_wlis(a2, w, out);
  EXPECT_EQ(out.dp, wlis(a2, w).dp);
  solver.solve_wlis(a, w, out);
  EXPECT_EQ(out.dp, wlis(a, w).dp);
  // One-element value change must invalidate.
  auto a3 = a;
  a3[n / 2] ^= 1;
  solver.solve_wlis(a3, w, out);
  EXPECT_EQ(out.dp, wlis(a3, w).dp);
  // The rounds' backends share one workspace too, cached second solves
  // included, and agree with the Solver's pass.
  WlisWorkspace ws;
  WlisResult pass;
  solver.solve_wlis(a, w, pass);
  for (auto s : {WlisStructure::kRangeVeb, WlisStructure::kRangeTree}) {
    wlis_into(a, w, ws, out, s);
    wlis_into(a, w, ws, out, s);  // cached second solve
    EXPECT_EQ(out.dp, pass.dp);
    EXPECT_EQ(out.dp, wlis(a, w, s).dp);
  }
}

TEST(Solver, SolveManyMixedBatch) {
  Solver solver;
  // A batch mixing tiny and large, weighted and unweighted queries. Sizes
  // straddle kPoolGateGrain, the packing cutoff, so both execution paths
  // run.
  const int64_t cutoff = kPoolGateGrain;
  std::vector<std::vector<int64_t>> as, ws;
  std::vector<Query> queries;
  const int64_t sizes[] = {1,  17,         300,        cutoff,
                           64, cutoff + 1, 4 * cutoff, 9};
  int qi = 0;
  for (int64_t n : sizes) {
    for (int weighted = 0; weighted < 2; weighted++, qi++) {
      as.push_back(random_values(n, 1000 + qi, 2 * n + 3));
      ws.push_back(weighted ? uniform_weights(n, 2000 + qi)
                            : std::vector<int64_t>{});
    }
  }
  // Per-element outputs for a few queries (one small, one large).
  std::vector<int32_t> rank_out(sizes[2]);
  std::vector<int64_t> dp_out(4 * cutoff);
  for (size_t i = 0; i < as.size(); i++) {
    Query q;
    q.a = as[i];
    if (!ws[i].empty()) q.w = ws[i];
    queries.push_back(q);
  }
  queries[4].rank_out = rank_out;  // n=300 unweighted
  for (size_t i = 0; i < queries.size(); i++) {
    if (!queries[i].w.empty() &&
        static_cast<int64_t>(queries[i].a.size()) == 4 * cutoff) {
      queries[i].dp_out = dp_out;
    }
  }
  std::vector<QueryResult> results(queries.size());
  solver.solve_many(queries, results);
  for (size_t i = 0; i < queries.size(); i++) {
    if (queries[i].w.empty()) {
      LisResult ref = lis_ranks(as[i]);
      EXPECT_EQ(results[i].k, ref.k) << "query " << i;
      EXPECT_EQ(results[i].best, ref.k) << "query " << i;
      if (!queries[i].rank_out.empty()) {
        EXPECT_TRUE(std::equal(ref.rank.begin(), ref.rank.end(),
                               queries[i].rank_out.begin()));
      }
    } else {
      WlisResult ref = wlis(as[i], ws[i]);
      EXPECT_EQ(results[i].k, ref.k) << "query " << i;
      EXPECT_EQ(results[i].best, ref.best) << "query " << i;
      if (!queries[i].dp_out.empty()) {
        EXPECT_TRUE(std::equal(ref.dp.begin(), ref.dp.end(),
                               queries[i].dp_out.begin()));
      }
    }
  }
  // Re-drive the same batch through the warm solver: identical results.
  std::vector<QueryResult> again(queries.size());
  solver.solve_many(queries, again);
  for (size_t i = 0; i < queries.size(); i++) {
    EXPECT_EQ(again[i].k, results[i].k);
    EXPECT_EQ(again[i].best, results[i].best);
  }
}

TEST(Solver, SolveManyEmptyAndAllSmall) {
  Solver solver;
  std::vector<QueryResult> none;
  solver.solve_many({}, none);  // no queries: no-op
  std::vector<std::vector<int64_t>> as;
  std::vector<Query> queries;
  for (int64_t i = 0; i < 64; i++) {
    as.push_back(random_values(1 + i % 37, 31 * i, 50));
  }
  for (auto& a : as) queries.push_back(Query{.a = a});
  std::vector<QueryResult> results(queries.size());
  solver.solve_many(queries, results);
  for (size_t i = 0; i < queries.size(); i++) {
    EXPECT_EQ(results[i].k, lis_ranks(as[i]).k) << "query " << i;
  }
}

// A Solver holds only what its two plans touch: fresh, that is one thread
// context of empty vectors.
TEST(Solver, FreshSolverHoldsOnlyThePlansScratch) {
  EXPECT_LE(Solver().resident_bytes(), 512u);
}

// lis_length and options plumbing.
TEST(Solver, OptionsAndLength) {
  Options opts;
  opts.ties = TiesPolicy::kNonDecreasing;
  Solver solver(opts);
  EXPECT_EQ(solver.options().ties, TiesPolicy::kNonDecreasing);
  Solver strict;
  auto a = random_values(5000, 3, 5000);
  EXPECT_EQ(strict.lis_length(a), lis_length(a));
  EXPECT_EQ(solver.lis_length(a), longest_nondecreasing_length(a));
  auto tiny = random_values(50, 4, 50);  // thread-sequential entry mode
  EXPECT_EQ(strict.lis_length(tiny), lis_length(tiny));
  EXPECT_EQ(solver.lis_length(tiny), longest_nondecreasing_length(tiny));
}

}  // namespace
}  // namespace parlis
