// Speculative chunked patience: the pooled form of the patience kernel
// (lis/patience.hpp describes the two phases and the lemma behind them).
//
// In its own translation unit so that the Solver's headers only declare it:
// inlined into solver.cpp it moved the tiers and the thread context's
// destructor out of line there, which slowed small solves that never
// speculate (EXPERIMENTS.md, "Speculative chunked patience").
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "parlis/lis/patience.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/failpoint.hpp"

namespace parlis {
namespace internal {

namespace {

constexpr int64_t kTails = simd::kTierTails;
// The poll stride, and the block the caller runs in the tiers before it
// forks: inputs that spill within it are deep and never fork.
constexpr int64_t kBlock = 4096;
constexpr int kMaxChunks = 16;
// A chunk may replay at most 1 / kBudgetShare of its elements.
constexpr int64_t kBudgetShare = 4;

// One chunk's phase-1 state, on the caller's stack.
struct alignas(64) Chunk {
  int64_t tails[kTails];  // the tiers' block: B at `stop`
  int64_t first[kTails];  // first[r - 1]: the chunk's first element of rank r
  int64_t lo, hi;         // the chunk is a[lo, hi)
  int64_t len;            // B's length at `stop`
  int64_t stop;           // hi, or where the chunk stopped

  void start(int64_t l, int64_t h) {
    std::fill(tails, tails + kTails, std::numeric_limits<int64_t>::max());
    lo = l;
    hi = h;
    len = 0;
    stop = l;
  }
};

// Records the first elements of ranks len0 + 1 .. len in rank[lo, ...).
// A chunk runs from empty tails, so each rank first appears after the one
// below it, and an element's rank is at most one above every earlier one.
void record_events(const int32_t* rank, int64_t lo, int64_t len0, int64_t len,
                   int64_t* first) {
  for (int64_t j = lo, r = len0; r < len; j++) {
    if (rank[j] > r) first[r++] = j;
  }
}

// Phase 1 for chunk c, from ch.stop: the tiers a block at a time. A chunk
// whose tiers spill lowers `spilled` to its index; the chunks after it
// stop at their next block, since phase 2 uses nothing past it.
void run_chunk(const int64_t* a, int32_t* rank, Chunk& ch, int c,
               std::atomic<int>& spilled) {
  int64_t i = ch.stop;
  while (i < ch.hi && spilled.load(std::memory_order_relaxed) > c) {
    poll_cancellation();
    PARLIS_FAILPOINT("lis.speculate");
    const int64_t lo = i, hi = std::min(ch.hi, i + kBlock), len = ch.len;
    i = patience_tiers(a, lo, hi, rank, ch.tails, ch.len);
    record_events(rank, lo, len, ch.len, ch.first);
    if (i < hi) {
      int s = spilled.load(std::memory_order_relaxed);
      while (s > c && !spilled.compare_exchange_weak(
                          s, c, std::memory_order_relaxed)) {
      }
      break;
    }
  }
  ch.stop = i;
}

// B's tails just before element i, slots [0, m), into b: each slot's last
// element of [from, i), where the ranks are the chunk's own, or, without
// one, t's slot, since B was a prefix of the true tails t at `from`.
void rebuild_prefix(const int64_t* a, const int32_t* rank, int64_t from,
                    int64_t i, int64_t m, const int64_t* t, int64_t* b) {
  uint64_t seen[kTails / 64] = {};
  int64_t left = m;
  for (int64_t j = i - 1; j >= from && left > 0; j--) {
    const int64_t s = rank[j] - 1;
    const uint64_t bit = uint64_t{1} << (s & 63);
    if ((seen[s >> 6] & bit) == 0) {
      seen[s >> 6] |= bit;
      b[s] = a[j];
      left--;
    }
  }
  for (int64_t s = 0; s < m && left > 0; s++) {
    if ((seen[s >> 6] >> (s & 63) & 1) == 0) {
      b[s] = t[s];
      left--;
    }
  }
}

int32_t speculate(std::span<const int64_t> a, int32_t* rank,
                  std::vector<int64_t>& tails, int g,
                  SpeculationTrace* trace) {
  const int64_t n = static_cast<int64_t>(a.size());
  const int64_t* x = a.data();
  int64_t replayed = 0;
  // The one-thread kernel from element `at` with the true tails t[0, len).
  auto hand_over = [&](int64_t at, const int64_t* t, int64_t len) {
    if (trace != nullptr) *trace = SpeculationTrace{replayed, at};
    return patience_ranks<int64_t, std::less<int64_t>>(
        a, rank, tails, std::less<int64_t>{}, PatienceResume{at, t, len});
  };
  Chunk chunks[kMaxChunks];
  Chunk& first = chunks[0];
  first.start(0, n / g);
  poll_cancellation();
  const int64_t head = std::min(first.hi, kBlock);
  first.stop = patience_tiers(x, 0, head, rank, first.tails, first.len);
  if (first.stop < head) return hand_over(first.stop, first.tails, first.len);
  record_events(rank, 0, 0, first.len, first.first);

  // Phase 1.
  std::atomic<int> spilled{g};
  parallel_for(
      0, g,
      [&](int64_t c) {
        Chunk& ch = chunks[c];
        if (c > 0) ch.start(c * n / g, (c + 1) * n / g);
        run_chunk(x, rank, ch, static_cast<int>(c), spilled);
      },
      /*grain=*/1);

  // Phase 2: t holds the true tails, exact from B's length on while B is a
  // prefix of them, and exact everywhere after a replay.
  alignas(64) int64_t t[kTails];
  int64_t b[kTails];
  int64_t tlen = 0;
  for (int c = 0; c < g; c++) {
    const Chunk& ch = chunks[c];
    if (ch.stop < ch.hi) {
      // Chunk 0's run is the true one, so it goes on where it stopped;
      // any other restarts from the true tails at its first element.
      return c == 0 ? hand_over(ch.stop, ch.tails, ch.len)
                    : hand_over(ch.lo, t, tlen);
    }
    const int64_t budget_end = replayed + (ch.hi - ch.lo) / kBudgetShare;
    int64_t from = ch.lo;  // where B was last a prefix of the true tails
    bool agree = true;
    for (int64_t ev = 0; ev < ch.len;) {
      const int64_t i = ch.first[ev];
      // The event extends B to ev + 1 tails; the true rank is the same
      // unless the true tails hold more, the next of them below a[i].
      if (ev >= tlen || !(t[ev] < x[i])) {
        ev++;
        continue;
      }
      poll_cancellation();
      rebuild_prefix(x, rank, from, i, ev, t, b);
      std::copy_n(b, ev, t);
      // Twin replay: t by search, B by the chunk's ranks; `diff` counts
      // the slots below B's length where they differ.
      int64_t blen = ev, diff = 0, j = i;
      auto differs = [&](int64_t s) {
        return static_cast<int64_t>(s < blen && t[s] != b[s]);
      };
      for (; j < ch.hi; j++) {
        const int64_t v = x[j];
        const int64_t st = patience_search(t, tlen, v, std::less<int64_t>{});
        if (replayed == budget_end || st == kTails) {
          return hand_over(j, t, tlen);
        }
        if ((++replayed & (kBlock - 1)) == 0) poll_cancellation();
        const int64_t sb = rank[j] - 1;
        diff -= differs(sb) + (st != sb ? differs(st) : 0);
        b[sb] = v;
        blen += sb == blen;
        t[st] = v;
        tlen += st == tlen;
        diff += differs(sb) + (st != sb ? differs(st) : 0);
        rank[j] = static_cast<int32_t>(st + 1);
        if (diff == 0) break;
      }
      if (j == ch.hi) {
        agree = false;
        break;
      }
      from = j + 1;
      ev = blen;
    }
    if (agree) {
      std::copy_n(ch.tails, ch.len, t);
      tlen = std::max(tlen, ch.len);
    }
  }
  if (trace != nullptr) *trace = SpeculationTrace{replayed, -1};
  return static_cast<int32_t>(tlen);
}

// The plan: one thread where speculation cannot pay, G = p chunks
// otherwise.
int32_t plan_and_run(std::span<const int64_t> a, int32_t* rank,
                     std::vector<int64_t>& tails) {
  const int g = std::min(num_workers(), kMaxChunks);
  if (static_cast<int64_t>(a.size()) < kSpeculateMinN || sequential_mode() ||
      g == 1) {
    return patience_ranks<int64_t, std::less<int64_t>>(a, rank, tails,
                                                       std::less<int64_t>{});
  }
  return speculate(a, rank, tails, g, nullptr);
}

}  // namespace

void speculative_patience_ranks_into(std::span<const int64_t> a,
                                     LisResult& res,
                                     std::vector<int64_t>& tails) {
  res.rank.resize(a.size());
  res.k = plan_and_run(a, res.rank.data(), tails);
}

void speculative_patience_frontiers_into(std::span<const int64_t> a,
                                         LisFrontiers& res,
                                         std::vector<int64_t>& tails) {
  res.rank.resize(a.size());
  res.k = plan_and_run(a, res.rank.data(), tails);
  lay_out_frontiers(res);
}

int32_t speculative_patience_ranks_forced(std::span<const int64_t> a,
                                          int32_t* rank,
                                          std::vector<int64_t>& tails,
                                          int chunks,
                                          SpeculationTrace* trace) {
  if (a.empty()) {
    if (trace != nullptr) *trace = SpeculationTrace{};
    return 0;
  }
  const int g = static_cast<int>(
      std::min<int64_t>(std::clamp(chunks, 1, kMaxChunks),
                        static_cast<int64_t>(a.size())));
  return speculate(a, rank, tails, g, trace);
}

}  // namespace internal
}  // namespace parlis
