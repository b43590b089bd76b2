// The weighted pass's wavefront (wlis/wlis_sweep.cpp): index chunks x rank
// blocks, a diagonal's cells in parallel on the pool. Whatever the
// schedule, dp, best and k must equal Seq-AVL / Seq-BS and the one-cell
// pass bit for bit; the plan must pick the wavefront where it pays and one
// cell where the pool cannot help; and a failure inside a cell task must
// surface as the structured Error and leave the Solver coherent.
//
// The suite name puts it in the pinned-thread differential legs (1, 4 and
// hw workers) and in the TSan leg, which races the diagonal hand-offs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/cancel.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/generators.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/wlis/seq_avl.hpp"
#include "parlis/wlis/wlis_sweep.hpp"

namespace parlis {
namespace {

using Vec = std::vector<int64_t>;

// The strict answer for `a`: Seq-AVL's dp, its best, Seq-BS's k.
WlisResult oracle(const Vec& a, const Vec& w) {
  WlisResult r;
  r.dp = seq_avl_wlis(a, w);
  for (int64_t d : r.dp) r.best = std::max(r.best, d);
  for (int32_t t : seq_bs_ranks(a)) r.k = std::max(r.k, t);
  return r;
}

void expect_same(const WlisResult& got, const WlisResult& want) {
  EXPECT_EQ(got.dp, want.dp);
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.k, want.k);
}

// set_sequential_mode for one scope.
class SequentialMode {
 public:
  SequentialMode() : prev_(set_sequential_mode(true)) {}
  ~SequentialMode() { set_sequential_mode(prev_); }
  SequentialMode(const SequentialMode&) = delete;
  SequentialMode& operator=(const SequentialMode&) = delete;

 private:
  bool prev_;
};

uint64_t spawns() { return scheduler_stats().spawns; }

struct Shape {
  std::string name;
  Vec a;
};

// The line pattern at k ~ 10, 60, 500, 3,500 and 25,000 (falling trends
// realize about half their target, rising ones about all of it), the
// range pattern with u = 1 and 8 (fewer ranks than chunks) and 100, random
// 63-bit values, and sorted, reversed and all-equal inputs.
std::vector<Shape> shapes(int64_t n, uint64_t seed) {
  std::vector<Shape> out;
  for (const int64_t k : {10, 100, 1000, 3500, 25000}) {
    out.push_back({"line target " + std::to_string(k),
                   line_pattern(n, k, seed)});
  }
  for (const int64_t u : {1, 8, 100}) {
    out.push_back({"range u=" + std::to_string(u), range_pattern(n, u, seed)});
  }
  Vec random(n), sorted(n), reversed(n), equal(n, 7);
  for (int64_t i = 0; i < n; i++) {
    random[i] = static_cast<int64_t>(hash64(seed, i) >> 1);
    sorted[i] = i;
    reversed[i] = n - i;
  }
  out.push_back({"random", random});
  out.push_back({"sorted", sorted});
  out.push_back({"reversed", reversed});
  out.push_back({"all equal", equal});
  return out;
}

Vec positive_weights(int64_t n, uint64_t seed) {
  Vec w(n);
  for (int64_t i = 0; i < n; i++) {
    w[i] = 1 + static_cast<int64_t>(uniform(seed, i, 1000));
  }
  return w;
}

// The banded input the wavefront is for: wlis_bulk's falling line.
Vec banded(int64_t n) { return line_pattern(n, 100, 5); }

// Every shape through the Solver (its plan, on the pool), the Solver in
// sequential mode (one cell), and the wavefront forced at 3, 16 and 32
// chunks on the same ranks, against the oracle. At 2^18 + 3 only the line
// at k ~ 60 (target 100) and the random values run, to keep the sanitizer
// legs short.
TEST(WlisWavefrontDifferential, EveryScheduleMatchesSeqAvl) {
  for (const int64_t n :
       {kWavefrontMinN - 1, kWavefrontMinN, (int64_t{1} << 18) + 3}) {
    const Vec w = positive_weights(n, 3 + n);
    for (const Shape& sh : shapes(n, 40 + n)) {
      if (n > kWavefrontMinN && sh.name != "line target 100" &&
          sh.name != "random") {
        continue;
      }
      SCOPED_TRACE(testing::Message() << "n " << n << ", " << sh.name);
      const WlisResult want = oracle(sh.a, w);
      Solver pooled;
      WlisResult out;
      pooled.solve_wlis(sh.a, w, out);
      expect_same(out, want);
      pooled.solve_wlis(sh.a, w, out);  // a value-cache hit: the pass alone
      expect_same(out, want);
      {
        SequentialMode seq;
        Solver one_cell;
        one_cell.solve_wlis(sh.a, w, out);
        expect_same(out, want);
      }
      RankSpace rs;
      RankSpaceScratch scratch;
      rank_only_into<int64_t>(sh.a, TiesPolicy::kStrict, rs, scratch);
      WlisSweepScratch sweep;
      Vec borrowed;
      for (const int chunks : {3, 16, 32}) {
        SCOPED_TRACE(testing::Message() << chunks << " chunks");
        internal::wlis_wavefront_into(rs.rank, rs.n_distinct, w, sweep,
                                      borrowed, chunks, out);
        expect_same(out, want);
      }
    }
  }
}

// Non-decreasing ties, double keys, and zero and negative weights, on the
// banded input, the random values and the range pattern.
TEST(WlisWavefrontDifferential, TiesKeysAndWeights) {
  const int64_t n = kWavefrontMinN;
  Vec zero_neg(n);
  for (int64_t i = 0; i < n; i++) {
    zero_neg[i] = static_cast<int64_t>(uniform(7, i, 7)) - 3;
  }
  const Vec pos = positive_weights(n, 8);
  for (const Shape& sh : shapes(n, 9)) {
    if (sh.name != "line target 100" && sh.name != "random" &&
        sh.name != "range u=100") {
      continue;
    }
    for (const Vec* w : {&pos, static_cast<const Vec*>(&zero_neg)}) {
      SCOPED_TRACE(testing::Message()
                   << sh.name << (w == &pos ? ", positive" : ", zero/negative")
                   << " weights");
      WlisResult out;
      Solver strict;
      strict.solve_wlis(sh.a, *w, out);
      expect_same(out, oracle(sh.a, *w));

      // kNonDecreasing: the strict answer on the (key, index) ranking.
      RankSpace rs;
      RankSpaceScratch scratch;
      rank_space_into<int64_t>(sh.a, TiesPolicy::kNonDecreasing, rs,
                               scratch);
      Options nd;
      nd.ties = TiesPolicy::kNonDecreasing;
      Solver nondec(nd);
      nondec.solve_wlis(sh.a, *w, out);
      expect_same(out, oracle(rs.rank, *w));

      // double keys in the same order as the 52-bit-masked int64 keys.
      Vec masked(n);
      std::vector<double> keys(n);
      for (int64_t i = 0; i < n; i++) {
        masked[i] = sh.a[i] & ((int64_t{1} << 52) - 1);
        keys[i] = 0.5 * static_cast<double>(masked[i]);
      }
      Solver typed;
      typed.solve_wlis(std::span<const double>(keys), *w, out);
      expect_same(out, oracle(masked, *w));
    }
  }
}

// The plan, by the spawn delta of one solve: the banded input runs the
// wavefront on a pool of 4 or more workers (the plan's constants come from
// 4; on 2 or 3 it may keep one cell) and one cell on 1; a sorted input
// (every cell on the main diagonal), sequential mode and thread-sequential
// mode run one cell; solve_many's packed queries fork only the packing
// loop, once per task past the first.
TEST(WlisWavefrontDifferential, PlanPicksTheWavefrontWhereItPays) {
  const int64_t n = int64_t{1} << 16;
  const Vec line = banded(n);
  const Vec w = positive_weights(n, 11);
  Vec sorted(n);
  for (int64_t i = 0; i < n; i++) sorted[i] = 3 * i;
  const bool pool = num_workers() > 1;
  Solver s;
  WlisResult out;
  s.solve_wlis(line, w, out);  // warm
  uint64_t before = spawns();
  s.solve_wlis(line, w, out);
  if (num_workers() >= 4 || !pool) {
    EXPECT_EQ(spawns() > before, pool) << "banded input";
  }

  s.solve_wlis(sorted, w, out);
  before = spawns();
  s.solve_wlis(sorted, w, out);
  EXPECT_EQ(spawns(), before) << "sorted input";
  expect_same(out, oracle(sorted, w));
  {
    SequentialMode seq;
    before = spawns();
    s.solve_wlis(line, w, out);
    EXPECT_EQ(spawns(), before) << "sequential mode";
  }
  const bool prev = set_thread_sequential(true);
  before = spawns();
  s.solve_wlis(line, w, out);
  set_thread_sequential(prev);
  EXPECT_EQ(spawns(), before) << "thread-sequential mode";

  // Packed queries solve in thread-sequential mode: the batch forks its
  // packing loop (min(q, num_workers()) tasks, grain 1) and nothing else.
  const int64_t q = 8, m = kPoolGateGrain;
  std::vector<Query> queries(q);
  std::vector<QueryResult> results(q);
  for (int64_t i = 0; i < q; i++) {
    queries[i].a = std::span<const int64_t>(line).subspan(i * m, m);
    queries[i].w = std::span<const int64_t>(w).subspan(i * m, m);
  }
  s.solve_many(queries, results);  // warm the task contexts
  before = spawns();
  s.solve_many(queries, results);
  const int64_t tasks = std::min<int64_t>(q, num_workers());
  EXPECT_EQ(spawns() - before, static_cast<uint64_t>(tasks - 1))
      << "solve_many";
  for (int64_t i = 0; i < q; i++) {
    const Vec qa(queries[i].a.begin(), queries[i].a.end());
    const Vec qw(queries[i].w.begin(), queries[i].w.end());
    const WlisResult want = oracle(qa, qw);
    EXPECT_EQ(results[i].best, want.best);
    EXPECT_EQ(results[i].k, want.k);
  }
}

// An overflow planted in the last chunk throws kInvalidArgument from
// whichever cell task meets it, and the next solve on the same Solver
// equals a cold one.
TEST(WlisWavefrontDifferential, OverflowInALateCellThrowsAndRecovers) {
  const int64_t n = int64_t{1} << 16;
  const Vec a = banded(n);
  const Vec w = positive_weights(n, 13);
  const WlisResult want = oracle(a, w);
  // The last element of the last 1/32 of the input with a positive
  // predecessor max: a weight that makes its dp one past INT64_MAX.
  int64_t at = -1;
  for (int64_t i = n - 1; i >= n - n / 32 && at < 0; i--) {
    if (want.dp[i] > w[i]) at = i;
  }
  ASSERT_GE(at, 0);
  Vec bad = w;
  bad[at] = std::numeric_limits<int64_t>::max() - (want.dp[at] - w[at]) + 1;
  Solver s;
  WlisResult out;
  s.solve_wlis(a, w, out);
  try {
    s.solve_wlis(a, bad, out);
    ADD_FAILURE() << "expected Error{kInvalidArgument}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
  }
  s.solve_wlis(a, w, out);
  expect_same(out, want);
  Solver cold;
  cold.solve_wlis(a, w, out);
  expect_same(out, want);
}

// A token tripped from another thread while the wavefront runs: the solve
// throws kCancelled, from a cell task's poll or the entry's, and the
// re-armed Solver's next solve equals a cold one.
TEST(WlisWavefrontDifferential, CancelFromAnotherThreadLeavesSolverCoherent) {
  const int64_t n = int64_t{1} << 18;
  const Vec a = banded(n);
  const Vec w = positive_weights(n, 17);
  Solver s;
  WlisResult out;
  s.solve_wlis(a, w, out);  // the cache hit below is the pass alone
  const WlisResult want = out;
  const CancelToken token = CancelToken::make();
  s.set_cancel(token);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    token.request_cancel();
  });
  bool cancelled = false;
  for (int r = 0; r < 10000 && !cancelled; r++) {
    try {
      s.solve_wlis(a, w, out);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCancelled) << e.what();
      cancelled = true;
    }
  }
  canceller.join();
  EXPECT_TRUE(cancelled);
  s.set_cancel(CancelToken{});
  s.solve_wlis(a, w, out);
  expect_same(out, want);
  Solver cold;
  cold.solve_wlis(a, w, out);
  expect_same(out, want);
}

}  // namespace
}  // namespace parlis
