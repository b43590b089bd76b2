// Speculative chunked patience (lis/speculative.cpp): G index chunks run
// the register tiers in parallel from empty tails, and the caller walks
// their extension events against the true tails, replaying side by side
// where they diverge. Whatever the chunking, the ranks and k must equal
// seq_bs_ranks bit for bit; the plan must fork only where speculation can
// pay; and a speculative solve must leave the Solver holding what a
// one-thread solve would.
//
// The suite name puts it in the pinned-thread differential legs (1, 4 and
// hw workers), in the TSan leg, which races the chunk hand-offs, and in the
// avx512 leg, where the chunks run the vector tiers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/lis/patience.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/generators.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/util/simd.hpp"

namespace parlis {
namespace {

using Vec = std::vector<int64_t>;
using internal::kSpeculateMinN;
using internal::SpeculationTrace;

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int kForcedChunks[] = {2, 3, 4, 16};

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

int32_t max_rank(const std::vector<int32_t>& r) {
  return r.empty() ? 0 : *std::max_element(r.begin(), r.end());
}

// The forced entry over `chunks` chunks, with the SIMD toggle on and off,
// against seq_bs_ranks. Returns the toggle-on trace.
SpeculationTrace expect_forced(const Vec& a, int chunks) {
  const std::vector<int32_t> want = seq_bs_ranks(a);
  SpeculationTrace on;
  for (const bool vector : {true, false}) {
    SCOPED_TRACE(testing::Message() << chunks << " chunks, simd "
                                    << (vector ? "on" : "off"));
    const bool prev = simd::set_enabled(vector);
    std::vector<int32_t> rank(a.size(), -1);
    Vec tails;
    SpeculationTrace trace;
    const int32_t k = internal::speculative_patience_ranks_forced(
        a, rank.data(), tails, chunks, &trace);
    simd::set_enabled(prev);
    EXPECT_EQ(rank, want);
    EXPECT_EQ(k, max_rank(want));
    if (vector) on = trace;
  }
  return on;
}

// The Solver's plan on `a`: solve_lis and solve_lis_frontiers.
void expect_solver(const Vec& a) {
  const std::vector<int32_t> want = seq_bs_ranks(a);
  Solver s;
  LisResult out;
  s.solve_lis(a, out);
  EXPECT_EQ(out.rank, want);
  EXPECT_EQ(out.k, max_rank(want));
  LisFrontiers fr;
  s.solve_lis_frontiers(a, fr);
  EXPECT_EQ(fr.rank, want);
  EXPECT_EQ(fr.k, max_rank(want));
  EXPECT_EQ(static_cast<int64_t>(fr.frontier_offset.size()), fr.k + 1);
}

struct Shape {
  std::string name;
  Vec a;
};

// The wavefront suite's shapes: the line pattern at k ~ 10, 60, 500,
// 3,500 and 25,000, the range pattern with u = 1, 8 and 100, random 63-bit
// values, and sorted, reversed and all-equal inputs.
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

// The banded input speculation is for: lis_bulk's falling line (k ~ 60).
Vec banded(int64_t n) { return line_pattern(n, 100, 5); }

// Every shape through the Solver's plan and the forced entry at 2, 3, 4
// and 16 chunks. At 2^18 + 3 only the banded line and the random values
// run, to keep the sanitizer legs short.
TEST(SpeculativePatienceDifferential, EveryShapeMatchesSeqBs) {
  for (const int64_t n :
       {kSpeculateMinN - 1, kSpeculateMinN, (int64_t{1} << 18) + 3}) {
    for (const Shape& sh : shapes(n, 60 + n)) {
      if (n > kSpeculateMinN && sh.name != "line target 100" &&
          sh.name != "random") {
        continue;
      }
      SCOPED_TRACE(testing::Message() << "n " << n << ", " << sh.name);
      expect_solver(sh.a);
      for (const int g : kForcedChunks) expect_forced(sh.a, g);
    }
  }
}

// Small inputs of every size class, banded with a random window, with
// extremes planted and random chunk counts: boundaries land everywhere,
// including inside the caller's first block and on one-element chunks.
TEST(SpeculativePatienceDifferential, RandomizedSmallInputs) {
  for (uint64_t seed = 0; seed < 120; seed++) {
    const int64_t n = 1 + static_cast<int64_t>(uniform(seed, 0, 9000));
    const int64_t window = 2 + static_cast<int64_t>(uniform(seed, 1, 600));
    Vec a(n);
    for (int64_t i = 0; i < n; i++) {
      a[i] = -(i / window) * 64 + static_cast<int64_t>(uniform(seed, i, 200));
      const uint64_t plant = uniform(seed ^ 0x5a5a, i, 500);
      if (plant == 0) a[i] = kMax;
      if (plant == 1) a[i] = kMin;
    }
    const int chunks = 1 + static_cast<int>(uniform(seed, 2, 16));
    SCOPED_TRACE(testing::Message() << "seed " << seed << ", n " << n
                                    << ", window " << window);
    expect_forced(a, chunks);
  }
}

// A chunk whose events agree, then diverge, re-agree, diverge again with
// B's prefix partly rebuilt from the true tails, and re-agree before its
// end. Two chunks: chunk 0 leaves the tails 10, 20, ..., 60; chunk 1 runs
// 1, 2 (both runs agree), 35 (extends B to 3 tails while the true third
// is 30: the first divergence), 31 and 29 (agreement again), then 45, 32
// and 30 (the second divergence and its end). Six elements replay.
TEST(SpeculativePatienceDifferential, DivergenceAfterAgreement) {
  const int64_t m = 3 * 4096;
  Vec a;
  for (int64_t v = 10; v <= 60; v += 10) a.push_back(v);
  a.resize(m, 60);
  a.push_back(1);
  a.push_back(2);
  a.insert(a.end(), 100, 2);
  for (int64_t v : {35, 31, 29}) a.push_back(v);
  a.insert(a.end(), 100, 2);
  for (int64_t v : {45, 32, 30}) a.push_back(v);
  a.resize(2 * m, 1);
  const SpeculationTrace trace = expect_forced(a, 2);
  EXPECT_EQ(trace.replayed, 6);
  EXPECT_EQ(trace.resumed_at, -1);
  EXPECT_EQ(max_rank(seq_bs_ranks(a)), 6);

  // With 35 and 31 as chunk 1's last two elements it ends still diverged
  // (31 keeps the third slots apart), and chunk 2, all zeros, starts from
  // the replay's exact tails.
  Vec cut(a.begin(), a.begin() + m + 2);
  cut.resize(2 * m - 2, 2);
  cut.push_back(35);
  cut.push_back(31);
  cut.resize(3 * m, 0);
  const SpeculationTrace t3 = expect_forced(cut, 3);
  EXPECT_EQ(t3.replayed, 2);
  EXPECT_EQ(t3.resumed_at, -1);
}

// An input whose true tails number exactly e just before `at`: level
// l = i * e / at holds values falling with i, so each level adds one tail.
// a[at] is above every earlier value when `overflow` (tail e + 1), else
// below the e-th tail; the values then fall through every earlier one.
Vec tier_edge_input(int64_t e, int64_t at, int64_t n, bool overflow,
                    uint64_t seed) {
  Vec a(static_cast<size_t>(n));
  for (int64_t i = 0; i < at; i++) a[i] = (i * e / at) * at + (at - i);
  int64_t v = overflow ? (e + 1) * at : (e - 1) * at;
  const int64_t step = 2 * (e + 1) * at / std::max<int64_t>(1, n - at) + 1;
  for (int64_t i = at; i < n; i++) {
    a[i] = v;
    v = std::max<int64_t>(0, v - 1 - static_cast<int64_t>(
                                         uniform(seed, i, step)));
  }
  return a;
}

// Chunk boundaries where the true tails cross a tier edge (16, 32, 64,
// 128), with the boundary's element adding a tail or not.
TEST(SpeculativePatienceDifferential, ChunkBoundariesAtTierEdges) {
  for (const int64_t e : {16, 32, 64, 128}) {
    for (const bool overflow : {false, true}) {
      SCOPED_TRACE(testing::Message() << e << " tails, overflow "
                                      << overflow);
      const int64_t m = 2 * 4096 + 7;
      const Vec a = tier_edge_input(e, m, 2 * m, overflow, 9 + e);
      expect_forced(a, 2);
      const Vec b = tier_edge_input(e, m, 4 * m, overflow, 10 + e);
      expect_forced(b, 4);
    }
  }
}

// A chunk that reaches exactly 128 tails from empty keeps speculating; one
// that reaches 129 hands its first element and the true tails to the
// one-thread kernel. Chunk 0 holds five tails above every later value.
TEST(SpeculativePatienceDifferential, ChunkOf128And129Tails) {
  const int64_t m = 2 * 4096;
  for (const int64_t run : {128, 129}) {
    SCOPED_TRACE(testing::Message() << "chunk 1 rises through " << run);
    Vec a;
    for (int64_t v = 1000; v < 1005; v++) a.push_back(v);
    a.resize(m, 1004);
    for (int64_t v = 0; v < run; v++) a.push_back(v);
    a.resize(2 * m, 0);
    const SpeculationTrace trace = expect_forced(a, 2);
    EXPECT_EQ(trace.resumed_at, run == 128 ? -1 : m);
    EXPECT_EQ(max_rank(seq_bs_ranks(a)), run);
  }
  // 128 true tails after chunk 1, and chunk 2 opens above all of them: its
  // first event diverges, and the replay hands over at the 129th tail.
  Vec a;
  for (int64_t v = 1000; v < 1005; v++) a.push_back(v);
  a.resize(m, 1004);
  for (int64_t v = 0; v < 128; v++) a.push_back(v);
  a.resize(2 * m, 0);
  a.push_back(500);
  a.resize(3 * m, 1);
  const SpeculationTrace trace = expect_forced(a, 3);
  EXPECT_EQ(trace.resumed_at, 2 * m);
}

// INT64_MAX is the tiers' empty-slot filler and INT64_MIN every order's
// least key: planted in banded inputs, at chunk boundaries, and as whole
// chunks.
TEST(SpeculativePatienceDifferential, ExtremeValues) {
  const int64_t n = kSpeculateMinN;
  Vec a = banded(n);
  for (int64_t i = 0; i < n; i += 997) a[i] = kMax;
  for (int64_t i = 500; i < n; i += 1009) a[i] = kMin;
  for (int64_t c = 1; c < 16; c++) {
    a[c * n / 16] = c % 2 ? kMax : kMin;  // every forced chunk's first
  }
  expect_solver(a);
  for (const int g : kForcedChunks) expect_forced(a, g);

  Vec halves(n, kMax);
  std::fill(halves.begin(), halves.begin() + n / 4, kMin);
  for (int64_t i = n / 2; i < 3 * n / 4; i++) halves[i] = i;
  expect_solver(halves);
  for (const int g : kForcedChunks) expect_forced(halves, g);
}

// Inputs that never converge replay past the budget, and the one-thread
// kernel finishes them: random values and a rising line.
TEST(SpeculativePatienceDifferential, BudgetHandsOverToTheKernel) {
  const int64_t n = kSpeculateMinN;
  Vec noise(n);
  for (int64_t i = 0; i < n; i++) {
    noise[i] = static_cast<int64_t>(uniform(3, i, 1 << 20));
  }
  for (const Vec& a : {noise, line_pattern(n, 600, 4)}) {
    const SpeculationTrace trace = expect_forced(a, 4);
    EXPECT_GE(trace.resumed_at, 0);
    expect_solver(a);
  }
}

// A banded first half, then a rising line above it and uniform keys at
// the end: the chunk that meets the line passes 128 tails in its first
// block, so the one-thread kernel takes the true tails (k ~ 60) at the
// line's first element, climbs the tiers into the window, slides with the
// line and lands the uniform keys among the window's frozen tails.
TEST(SpeculativePatienceDifferential, HandOverEntersTheWindow) {
  const int64_t n = 2 * kSpeculateMinN;
  Vec a = banded(n);
  const int64_t top = *std::max_element(a.begin(), a.begin() + n / 2);
  for (int64_t i = n / 2; i < n; i++) {
    a[i] = top + 4 * (i - n / 2) + static_cast<int64_t>(uniform(11, i, 256));
  }
  const uint64_t span = static_cast<uint64_t>(a[n - 4 * 4096]);
  for (int64_t i = n - 4 * 4096 + 1; i < n; i++) {
    a[i] = static_cast<int64_t>(uniform(12, i, span));
  }
  ASSERT_GT(max_rank(seq_bs_ranks(a)), 2 * simd::kTierTails);
  for (const int g : {2, 4}) {
    EXPECT_EQ(expect_forced(a, g).resumed_at, n / 2) << g << " chunks";
  }
  expect_solver(a);
}

// Through the Solver: both ties policies, double keys and std::greater,
// on the banded input and the random values. Every one but std::greater
// on raw int64 keys solves on a rank image, which speculates.
TEST(SpeculativePatienceDifferential, TiesKeysAndOrders) {
  const int64_t n = kSpeculateMinN;
  Vec ties(n);
  for (int64_t i = 0; i < n; i++) {
    ties[i] = static_cast<int64_t>(uniform(6, i, 4096));
  }
  for (const bool banded_input : {true, false}) {
    const Vec in = banded_input ? banded(n) : ties;
    SCOPED_TRACE(banded_input ? "banded" : "random with ties");
    Options nd;
    nd.ties = TiesPolicy::kNonDecreasing;
    LisResult out;

    // kNonDecreasing: the strict answer on the (key, index) ranking.
    RankSpace rs;
    RankSpaceScratch scratch;
    rank_space_into<int64_t>(in, TiesPolicy::kNonDecreasing, rs, scratch);
    Solver nondec(nd);
    nondec.solve_lis(in, out);
    EXPECT_EQ(out.rank, seq_bs_ranks(rs.rank));

    // double keys in the same order as the int64 keys.
    std::vector<double> keys(n);
    for (int64_t i = 0; i < n; i++) keys[i] = 0.5 * static_cast<double>(in[i]);
    Solver typed;
    typed.solve_lis(std::span<const double>(keys), out);
    EXPECT_EQ(out.rank, seq_bs_ranks(in));

    // std::greater: the negated input's ranks, on raw keys (the memory
    // loop) and under kNonDecreasing (a rank image).
    Vec neg(n);
    for (int64_t i = 0; i < n; i++) neg[i] = -in[i];
    Solver greater;
    greater.solve_lis(std::span<const int64_t>(in), out,
                      std::greater<int64_t>{});
    EXPECT_EQ(out.rank, seq_bs_ranks(neg));
    rank_space_into<int64_t>(neg, TiesPolicy::kNonDecreasing, rs, scratch);
    nondec.solve_lis(std::span<const int64_t>(in), out,
                     std::greater<int64_t>{});
    EXPECT_EQ(out.rank, seq_bs_ranks(rs.rank));
  }
}

// The plan, by the spawn delta of one warm solve: the banded input forks
// from kSpeculateMinN elements on a pool of 2 or more workers and not
// below it; sequential and thread-sequential mode never fork, nor does an
// input whose tiers spill within the caller's first block.
TEST(SpeculativePatienceDifferential, PlanForksOnlyWhereItCanPay) {
  const bool pool = num_workers() > 1;
  Solver s;
  LisResult out;
  auto delta = [&](const Vec& a) {
    s.solve_lis(a, out);
    const uint64_t before = spawns();
    s.solve_lis(a, out);
    EXPECT_EQ(out.rank, seq_bs_ranks(a));
    return spawns() - before;
  };
  EXPECT_EQ(delta(banded(kSpeculateMinN - 1)), 0u) << "below the minimum";
  const Vec line = banded(kSpeculateMinN);
  EXPECT_EQ(delta(line) > 0, pool) << "banded input";
  {
    SequentialMode seq;
    EXPECT_EQ(delta(line), 0u) << "sequential mode";
  }
  const bool prev = set_thread_sequential(true);
  EXPECT_EQ(delta(line), 0u) << "thread-sequential mode";
  set_thread_sequential(prev);
  Vec deep(kSpeculateMinN);
  for (int64_t i = 0; i < kSpeculateMinN; i++) {
    deep[i] = i < 4096 ? i : static_cast<int64_t>(uniform(8, i, 1 << 30));
  }
  EXPECT_EQ(delta(deep), 0u) << "first block spills";
  std::vector<int32_t> rank(deep.size());
  Vec tails;
  SpeculationTrace trace;
  internal::speculative_patience_ranks_forced(deep, rank.data(), tails, 4,
                                              &trace);
  EXPECT_EQ(trace.resumed_at, simd::kTierTails);
}

// A speculative solve leaves the Solver holding exactly what the same
// solve does on one thread: on the banded input (no spill) and on one that
// hands over and spills to the memory loop.
TEST(SpeculativePatienceDifferential, ResidentBytesMatchOneThread) {
  const int64_t n = 2 * kSpeculateMinN;
  Vec spills = banded(n);
  for (int64_t i = n / 2; i < n / 2 + 300; i++) spills[i] = kMax - n + i;
  for (const Vec& in : {banded(n), spills}) {
    Solver pooled;
    LisResult out;
    pooled.solve_lis(in, out);
    EXPECT_EQ(out.rank, seq_bs_ranks(in));
    size_t one_thread = 0;
    {
      SequentialMode seq;
      Solver s;
      s.solve_lis(in, out);
      one_thread = s.resident_bytes();
    }
    EXPECT_EQ(pooled.resident_bytes(), one_thread);
  }
}

}  // namespace
}  // namespace parlis
