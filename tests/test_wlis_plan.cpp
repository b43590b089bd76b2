// The Solver's WLIS plan (Solver::run_wlis, api/solver.hpp): the rank space
// of the keys, from the Solver's value cache or a rank-space pass, then
// one sequential Fenwick pass (wlis/wlis_sweep.hpp); Seq-AVL when the
// memory budget fits only that. Whatever the path, dp, best and k must
// match seq_avl_wlis / seq_bs_ranks and Alg. 2's rounds (wlis()).
//
// The suite name puts it in the pinned-thread differential legs (1, 4 and
// hw workers) and in the forced-scalar leg.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/swgs/swgs.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/failpoint.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/wlis/seq_avl.hpp"
#include "parlis/wlis/wlis.hpp"
#include "parlis/wlis/wlis_sweep.hpp"
#include "parlis/wlis/wlis_workspace.hpp"

namespace parlis {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

using Vec = std::vector<int64_t>;

// The strict answer for `a`: Seq-AVL's dp, its best, Seq-BS's k.
WlisResult oracle(const Vec& a, const Vec& w) {
  WlisResult r;
  r.dp = seq_avl_wlis(a, w);
  for (int64_t d : r.dp) r.best = std::max(r.best, d);
  const std::vector<int32_t> ranks = seq_bs_ranks(a);
  for (int32_t t : ranks) r.k = std::max(r.k, t);
  return r;
}

// Under kNonDecreasing, equal keys chain in input order: the strict answer
// for the (key, index) ranking.
Vec nondec_image(const Vec& a) {
  RankSpace rs;
  RankSpaceScratch scratch;
  rank_space_into<int64_t>(a, TiesPolicy::kNonDecreasing, rs, scratch);
  return rs.rank;
}

void expect_same(const WlisResult& got, const WlisResult& want) {
  EXPECT_EQ(got.dp, want.dp);
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.k, want.k);
}

struct Shape {
  std::string name;
  Vec a;
};

// Value shapes at size n: random with duplicates, INT64_MIN/MAX mixed in,
// all equal, strictly decreasing (k = 1), and a rising trend (deep k).
std::vector<Shape> shapes(int64_t n, uint64_t seed) {
  std::vector<Shape> out;
  Vec dup(n), extreme(n), equal(n, 7), down(n), deep(n);
  for (int64_t i = 0; i < n; i++) {
    dup[i] = static_cast<int64_t>(uniform(seed, i, 1 + n / 4));
    const uint64_t u = uniform(seed + 1, i, 8);
    extreme[i] = u == 0   ? kMin
                 : u == 1 ? kMax
                          : static_cast<int64_t>(hash64(seed + 2, i)) / 2;
    down[i] = n - i;
    deep[i] = 4 * i + static_cast<int64_t>(uniform(seed + 3, i, 16));
  }
  out.push_back({"duplicates", dup});
  out.push_back({"int64 extremes", extreme});
  out.push_back({"all equal", equal});
  out.push_back({"decreasing", down});
  out.push_back({"deep", deep});
  return out;
}

// Weights: positive, all zero, and mixed sign.
std::vector<std::pair<std::string, Vec>> weightings(int64_t n, uint64_t seed) {
  Vec pos(n), zero(n, 0), mixed(n);
  for (int64_t i = 0; i < n; i++) {
    pos[i] = 1 + static_cast<int64_t>(uniform(seed, i, 1000));
    mixed[i] = static_cast<int64_t>(uniform(seed + 1, i, 2001)) - 1000;
  }
  return {{"positive", pos}, {"zero", zero}, {"mixed sign", mixed}};
}

// Every shape and weighting at sizes up to and above kPoolGateGrain,
// under both ties policies, through the int64 and typed overloads.
TEST(WlisPlanDifferential, SolverMatchesSeqAvlAndTheRounds) {
  for (const int64_t n : {int64_t{1}, int64_t{300}, kPoolGateGrain,
                          int64_t{20000}}) {
    for (const Shape& sh : shapes(n, 10 + n)) {
      for (const auto& [wname, w] : weightings(n, 20 + n)) {
        SCOPED_TRACE(testing::Message() << "n " << n << ", " << sh.name
                                        << ", " << wname << " weights");
        const WlisResult strict = oracle(sh.a, w);
        expect_same(wlis(sh.a, w), strict);
        Solver solver;
        WlisResult out;
        solver.solve_wlis(sh.a, w, out);
        expect_same(out, strict);
        // Typed int64 under std::less takes the same plan.
        solver.solve_wlis<int64_t>(std::span<const int64_t>(sh.a), w, out);
        expect_same(out, strict);

        Options nd;
        nd.ties = TiesPolicy::kNonDecreasing;
        Solver nd_solver(nd);
        nd_solver.solve_wlis(sh.a, w, out);
        expect_same(out, oracle(nondec_image(sh.a), w));
      }
    }
  }
}

// double keys and a custom order solve on their rank image.
TEST(WlisPlanDifferential, TypedKeysMatchTheirIntegerTwins) {
  for (const int64_t n : {int64_t{500}, int64_t{20000}}) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    Vec a(n);
    std::vector<double> da(n);
    Vec neg(n);
    for (int64_t i = 0; i < n; i++) {
      a[i] = static_cast<int64_t>(uniform(31, i, 2 * n));
      da[i] = 0.5 * static_cast<double>(a[i]) - 3.25;  // same order
      neg[i] = -a[i];
    }
    const Vec w = weightings(n, 32)[2].second;  // mixed sign
    Solver solver;
    WlisResult out;
    solver.solve_wlis(std::span<const double>(da), w, out);
    expect_same(out, oracle(a, w));
    // Strictly decreasing runs of `neg` are increasing runs of `a`.
    solver.solve_wlis(std::span<const int64_t>(neg), w, out,
                      std::greater<int64_t>{});
    expect_same(out, oracle(a, w));
    expect_same(wlis(a, w), oracle(a, w));
    // INT64_MIN is the largest value under std::greater.
    Vec ext = {kMin, 5, kMax, kMin, -3};
    Vec mirror = {kMax, -5, kMin + 1, kMax, 3};
    const Vec ew = {4, -1, 9, 2, 6};
    solver.solve_wlis(std::span<const int64_t>(ext), ew, out,
                      std::greater<int64_t>{});
    expect_same(out, oracle(mirror, ew));
  }
}

// solve_many: packed queries (at most kPoolGateGrain elements, one thread
// each) and large ones (rank space on the pool) in one batch, both ties
// policies, dp_out spans filled.
TEST(WlisPlanDifferential, SolveManyPackedAndLargeQueries) {
  for (const TiesPolicy ties :
       {TiesPolicy::kStrict, TiesPolicy::kNonDecreasing}) {
    SCOPED_TRACE(ties == TiesPolicy::kStrict ? "strict" : "nondec");
    Options o;
    o.ties = ties;
    Solver solver(o);
    std::vector<Shape> inputs = shapes(600, 41);  // packed
    for (Shape& s : shapes(5000, 42)) inputs.push_back(std::move(s));
    std::vector<Vec> ws, dps;
    for (const Shape& s : inputs) {
      const int64_t n = static_cast<int64_t>(s.a.size());
      ws.push_back(weightings(n, 43 + n)[2].second);
      dps.emplace_back(s.a.size(), -1);
    }
    std::vector<Query> qs;
    for (size_t i = 0; i < inputs.size(); i++) {
      Query q{inputs[i].a, ws[i]};
      q.dp_out = std::span<int64_t>(dps[i]);
      qs.push_back(q);
    }
    std::vector<QueryResult> rs(qs.size());
    for (int round = 0; round < 2; round++) {  // the second one runs warm
      solver.solve_many(qs, rs);
      for (size_t i = 0; i < qs.size(); i++) {
        SCOPED_TRACE(inputs[i].name + ", n " +
                     std::to_string(inputs[i].a.size()));
        const WlisResult want =
            ties == TiesPolicy::kStrict
                ? oracle(inputs[i].a, ws[i])
                : oracle(nondec_image(inputs[i].a), ws[i]);
        EXPECT_EQ(dps[i], want.dp);
        EXPECT_EQ(rs[i].best, want.best);
        EXPECT_EQ(rs[i].k, want.k);
      }
    }
  }
}

// A budget between Seq-AVL (64 B/element) and the rank space plus the pass
// (105 B/element), each plus 4 KiB once: raw int64 values under kStrict
// degrade to Seq-AVL; a solve that needs a rank image has no smaller path.
TEST(WlisPlanDifferential, BudgetFallbackMatches) {
  const int64_t n = 12000;
  Options tight;
  tight.memory_budget_bytes = static_cast<uint64_t>(n) * 77 + (1 << 16);
  Options tight_nd = tight;
  tight_nd.ties = TiesPolicy::kNonDecreasing;
  for (const Shape& sh : shapes(n, 51)) {
    for (const auto& [wname, w] : weightings(n, 52)) {
      SCOPED_TRACE(sh.name + ", " + wname + " weights");
      Solver solver(tight);
      WlisResult out;
      solver.solve_wlis(sh.a, w, out);
      expect_same(out, oracle(sh.a, w));
      // Seq-AVL keeps no rank space (~12 B/element of patience scratch).
      EXPECT_LT(solver.resident_bytes(), static_cast<size_t>(16 * n));
      Query q{sh.a, w};
      QueryResult r;
      solver.solve_many(std::span<const Query>(&q, 1),
                        std::span<QueryResult>(&r, 1));
      EXPECT_EQ(r.best, out.best);
      EXPECT_EQ(r.k, out.k);
      Solver nd(tight_nd);
      try {
        nd.solve_wlis(sh.a, w, out);
        ADD_FAILURE() << "kNonDecreasing solve admitted under the budget";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded) << e.what();
      }
    }
  }
}

// One warm Solver alternating value-cache hits and misses, across sizes,
// with fresh weights on every call.
TEST(WlisPlanDifferential, WarmSolverAlternatesHitsAndMisses) {
  Solver solver;
  WlisResult out;
  const std::vector<Shape> big = shapes(12000, 61);
  const std::vector<Shape> small = shapes(700, 62);
  const std::vector<const Vec*> order = {
      &big[0].a, &big[0].a, &big[1].a, &big[0].a, &small[4].a,
      &small[4].a, &big[1].a, &big[1].a, &big[4].a, &big[0].a};
  uint64_t seed = 63;
  for (const Vec* a : order) {
    const int64_t n = static_cast<int64_t>(a->size());
    const Vec w = weightings(n, seed)[seed % 3].second;
    seed++;
    solver.solve_wlis(*a, w, out);
    expect_same(out, oracle(*a, w));
  }
}

// One rank space serves a Solver's value cache and every rank image. Raw
// weighted solves take turns with typed (double) LIS and weighted solves,
// so the rank space is overwritten between value-cache uses; under
// kNonDecreasing the int64 LIS solves run on rank images too. Then the same
// turns with an injected wlis.sweep fault on a value-cache hit and on a
// miss (where failpoints are compiled in). Every answer must match
// seq_avl_wlis / seq_bs_ranks, and only raw kStrict solves may hit.
TEST(WlisPlanDifferential, SharedRankSpaceAcrossInterleavedSolves) {
  const int64_t n = 5000;
  const std::vector<Shape> sh = shapes(n, 81);
  const Vec& a = sh[0].a;     // duplicates
  const Vec& b = sh[1].a;     // int64 extremes
  const Vec& deep = sh[4].a;  // exact as doubles
  std::vector<double> da(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; i++) da[i] = 0.25 * static_cast<double>(deep[i]);
  const std::span<const double> ds(da);
  const Vec w = weightings(n, 82)[2].second;  // mixed sign
  for (const TiesPolicy ties :
       {TiesPolicy::kStrict, TiesPolicy::kNonDecreasing}) {
    const bool strict = ties == TiesPolicy::kStrict;
    SCOPED_TRACE(strict ? "strict" : "nondec");
    auto image = [&](const Vec& v) { return strict ? v : nondec_image(v); };
    const WlisResult want_a = oracle(image(a), w);
    const WlisResult want_b = oracle(image(b), w);
    const WlisResult want_d = oracle(image(deep), w);
    const std::vector<int32_t> lis_a = seq_bs_ranks(image(a));
    const std::vector<int32_t> lis_d = seq_bs_ranks(image(deep));
    Options o;
    o.ties = ties;
    Solver s(o);
    WlisResult out;
    LisResult lr;
    LisFrontiers fr;
    auto wlis_of = [&](const Vec& v, const WlisResult& want, bool hit) {
      EXPECT_EQ(s.solve_wlis(v, w, out), strict && hit);
      expect_same(out, want);
    };
    auto typed_lis = [&] {
      s.solve_lis(ds, lr);
      EXPECT_EQ(lr.rank, lis_d);
    };
    wlis_of(a, want_a, false);
    wlis_of(a, want_a, true);
    typed_lis();
    wlis_of(a, want_a, false);  // the rank image dropped the key
    s.solve_lis(a, lr);         // kStrict: the raw values, no rank space
    EXPECT_EQ(lr.rank, lis_a);
    wlis_of(a, want_a, true);
    s.solve_wlis(ds, w, out);
    expect_same(out, want_d);
    wlis_of(b, want_b, false);
    s.solve_lis_frontiers(ds, fr);
    EXPECT_EQ(fr.rank, lis_d);
    wlis_of(b, want_b, false);
    wlis_of(b, want_b, true);

    if (!failpoints::enabled()) continue;
    // A fault in the pass leaves the key on a complete rank space.
    auto sweep_fault = [&](const Vec& v) {
      failpoints::arm_nth("wlis.sweep", 1);
      try {
        s.solve_wlis(v, w, out);
        ADD_FAILURE() << "wlis.sweep did not fire";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kFaultInjected) << e.what();
      }
      failpoints::disarm_all();
    };
    sweep_fault(b);  // on a hit
    typed_lis();
    sweep_fault(a);  // on a miss
    wlis_of(a, want_a, true);
    typed_lis();
    wlis_of(b, want_b, false);
    wlis_of(b, want_b, true);
  }
}

// One workspace reused by Alg. 2's rounds on two inputs, then by SWGS,
// must give each its correct answer under every structure: the workspace
// is scratch, so each call derives its own rank space, frontiers and range
// structure. The pass over the rank space SWGS left agrees with all three.
TEST(WlisPlanDifferential, ReusedWorkspaceServesEveryStructure) {
  const Vec a = shapes(6000, 71)[0].a;
  const Vec a2 = shapes(6000, 72)[4].a;
  const Vec w = weightings(6000, 73)[0].second;
  for (const WlisStructure st :
       {WlisStructure::kRangeTree, WlisStructure::kRangeVeb,
        WlisStructure::kRangeVebTabulated}) {
    SCOPED_TRACE(static_cast<int>(st));
    WlisWorkspace ws;
    WlisSweepScratch sweep;
    std::vector<int64_t> borrowed;
    WlisResult out;
    wlis_into(a, w, ws, out, st);
    expect_same(out, oracle(a, w));
    wlis_into(a2, w, ws, out, st);
    expect_same(out, oracle(a2, w));
    swgs_wlis_into(a, w, 5, ws, out);
    expect_same(out, oracle(a, w));
    wlis_sweep_into(ws.rank_space.rank, ws.rank_space.n_distinct, w, sweep,
                    borrowed, out);
    expect_same(out, oracle(a, w));
  }
}

// The kernel on its own against the O(n^2) recurrence at small n.
TEST(WlisPlanDifferential, PassMatchesBruteForce) {
  WlisSweepScratch scratch;
  std::vector<int64_t> borrowed;
  WlisResult out;
  for (uint64_t seed = 0; seed < 80; seed++) {
    const int64_t n = static_cast<int64_t>(uniform(seed, 0, 200));
    Vec rank(n), w(n);
    const int64_t u = 1 + static_cast<int64_t>(uniform(seed, 1, 60));
    for (int64_t i = 0; i < n; i++) {
      rank[i] = static_cast<int64_t>(uniform(seed, i + 2, u));
      w[i] = static_cast<int64_t>(uniform(seed, i + 500, 41)) - 20;
    }
    SCOPED_TRACE(testing::Message() << "seed " << seed << ", n " << n);
    WlisResult want;
    want.dp.resize(n);
    std::vector<int32_t> len(n);
    for (int64_t i = 0; i < n; i++) {
      int64_t q = 0;
      int32_t l = 0;
      for (int64_t j = 0; j < i; j++) {
        if (rank[j] < rank[i]) {
          q = std::max(q, want.dp[j]);
          l = std::max(l, len[j]);
        }
      }
      want.dp[i] = w[i] + q;
      len[i] = l + 1;
      want.best = std::max(want.best, want.dp[i]);
      want.k = std::max(want.k, len[i]);
    }
    wlis_sweep_into(rank, u, w, scratch, borrowed, out);
    expect_same(out, want);
  }
}

}  // namespace
}  // namespace parlis
