// Parallel LIS (Alg. 1, Thm. 1.1) and LIS reconstruction (Appendix A).
//
// The phase-parallel algorithm: round r extracts from the tournament tree
// every *prefix-min* object among the live objects; by Lemma 3.1 those are
// exactly the objects of rank r (dp value r). Total cost O(n log k) work and
// O(k log n) span for LIS length k.
//
// Round granularity: a round whose frontier is predicted below kRoundGrain
// (tournament_tree.hpp) runs on the calling thread. The tree predicts from
// the previous round's m; the per-round loops here (the rank fill of
// lis_frontiers_into, the decisions of lis_decisions) are parallel_fors at
// grain kRoundGrain, so they run inline exactly when the round's m is at
// most kRoundGrain. Work and the Thm. 3.2 visit count are unchanged; an
// inline round adds at most O(kRoundGrain log n) span, so the O~(k) span
// bound still holds.
//
// Sentinel-valued inputs: a value not below `inf` (INT64_MAX under the
// default sentinel) would read as an already-removed leaf and never get a
// rank. The tournament build flags it, and the solve reruns on the input's
// kStrict rank image, whose values all lie below n.
//
// Two entry-point shapes per solve:
//  * lis_ranks / lis_frontiers — one-shot free functions returning fresh
//    result structs (allocate per call; kept as thin wrappers),
//  * lis_ranks_into / lis_frontiers_into — span inputs, caller-injected
//    TournamentStorage and result buffers. Repeated same-size solves reuse
//    every buffer and allocate nothing.
// parlis::Solver runs neither: on a 4-core AVX-512 Xeon the patience
// kernel below (seq_patience_ranks_into) beat Alg. 1's rounds on the pool
// at every k measured (EXPERIMENTS.md, "Register tiers"). The rounds stay
// as the paper's algorithm and the tests' and figures' reference.
#pragma once

#include <algorithm>
#include <utility>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "parlis/lis/tournament_tree.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/failpoint.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/util/simd.hpp"

namespace parlis {

/// Result of the phase-parallel LIS pass.
struct LisResult {
  /// rank[i] = dp[i] = length of the LIS ending at A_i (1-based ranks).
  std::vector<int32_t> rank;
  /// k = LIS length = max rank (0 for empty input).
  int32_t k = 0;

  /// Measured heap bytes held — the serving layer's eviction accounting.
  size_t resident_bytes() const { return vec_bytes(rank); }
};

/// Result with the per-round frontiers materialized (needed by WLIS and by
/// the reconstruction): frontier r (1-based) is
/// frontier_flat[frontier_offset[r-1] .. frontier_offset[r]), sorted by
/// index ascending.
struct LisFrontiers {
  std::vector<int32_t> rank;
  int32_t k = 0;
  std::vector<int64_t> frontier_flat;
  std::vector<int64_t> frontier_offset;  // size k+1

  size_t resident_bytes() const {
    return vec_bytes(rank) + vec_bytes(frontier_flat) +
           vec_bytes(frontier_offset);
  }
};

namespace internal {

// Runs solve(ranks, storage, n) on the kStrict rank image of `a`: the
// fallback for inputs holding a value not below the caller's sentinel.
// Ranks are dense in [0, n), so n is a valid sentinel for them. Allocates
// the rank space (the path is rare); int64 solves reuse the caller's
// tournament storage.
template <typename T, typename Less, typename Solve>
void solve_on_rank_image(std::span<const T> a, TournamentStorage<T>& ws,
                         Less less, const Solve& solve) {
  const RankSpace rs = rank_space<T, Less>(a, TiesPolicy::kStrict, less);
  const std::span<const int64_t> ranks(rs.rank);
  const int64_t n = static_cast<int64_t>(a.size());
  if constexpr (std::is_same_v<T, int64_t>) {
    solve(ranks, ws, n);
  } else {
    TournamentStorage<int64_t> own;
    solve(ranks, own, n);
  }
}

}  // namespace internal

/// Computes all dp values (Alg. 1) into `res`, reusing its buffers and the
/// injected tournament storage. "Increasing" means strictly increasing
/// under `less`; `inf` should exceed every input value under `less` (an
/// input that reaches it is solved on its rank image instead).
template <typename T, typename Less = std::less<T>>
void lis_ranks_into(std::span<const T> a, LisResult& res,
                    TournamentStorage<T>& ws,
                    T inf = std::numeric_limits<T>::max(), Less less = Less{}) {
  res.rank.resize(a.size());  // the rounds write every rank
  res.k = 0;
  if (a.empty()) return;
  {
    TournamentTree<T, Less> tree(a, inf, ws, less);
    if (!tree.has_inf_input()) {
      int32_t r = 0;
      while (!tree.empty()) {
        // Round boundary: the one cancellation/deadline poll of the LIS
        // kernel (one thread-local load when no scope is installed).
        internal::poll_cancellation();
        PARLIS_FAILPOINT("lis.round");
        ++r;
        tree.extract_frontier([&](int64_t i) { res.rank[i] = r; });
      }
      res.k = r;
      return;
    }
  }
  internal::solve_on_rank_image<T, Less>(
      a, ws, less, [&](std::span<const int64_t> ranks,
                       TournamentStorage<int64_t>& st, int64_t rank_inf) {
        lis_ranks_into<int64_t>(ranks, res, st, rank_inf);
      });
}

namespace internal {

// A patience search halves the tails down to at most this many candidates,
// then counts them branch-free.
inline constexpr int64_t kPatienceWindow = 16;

// The number of t[0, m) below x under `less`, branch-free. A hand-vectorized
// AVX-512 count of the 16-tail window measured at most 7% faster at its
// call site, and slower on deep inputs: under the SIMD layer's 10% bar
// (EXPERIMENTS.md), so it stays scalar.
template <typename T, typename Less>
inline int64_t count_tails_below(const T* t, int64_t m, const T& x,
                                 Less less) {
  int64_t c = 0;
  for (int64_t j = 0; j < m; j++) c += static_cast<int64_t>(less(t[j], x));
  return c;
}

// The number of tails below x under `less`, i.e. std::lower_bound's offset
// in the strictly increasing t[0, len). The search works from the end: on
// the line inputs nine in ten elements land within the last 400 tails, on
// deep ones within the last 20 (EXPERIMENTS.md, "Plan methodology"). The
// last kPatienceWindow tails are tried first, behind the one branch, which
// such inputs predict well. Otherwise probes at len - 16·4^j (j >= 1)
// narrow the window without branching; their addresses repeat from one
// element to the next. Since the tails are sorted, the probes below x form
// a suffix of the probe sequence: the first of them bounds the window from
// below, the last probe not below x from above. Halving steps then move
// `base` by a masked add, and the final window is counted whole.
template <typename T, typename Less>
inline int64_t patience_search(const T* t, int64_t len, const T& x,
                               Less less) {
  if (len <= kPatienceWindow) return count_tails_below(t, len, x, less);
  int64_t hi = len - kPatienceWindow;
  if (less(t[hi], x)) {
    return hi + count_tails_below(t + hi, kPatienceWindow, x, less);
  }
  int64_t lo = 0;
  for (int64_t s = 4 * kPatienceWindow; s < len; s *= 4) {
    const int64_t below = -static_cast<int64_t>(less(t[len - s], x));
    lo = std::max(lo, below & (len - s + 1));
    hi = std::min(hi, len - s + (below & s));
  }
  const T* base = t + lo;
  int64_t m = hi - lo;
  while (m > kPatienceWindow) {
    const int64_t half = m / 2;
    base += half & -static_cast<int64_t>(less(base[half - 1], x));
    m -= half;
  }
  // Every tail before base is below x and none from base + m on is, so a
  // window of exactly kPatienceWindow tails that covers [base, base + m)
  // counts the rest.
  base = std::min(base, t + (len - kPatienceWindow));
  return (base - t) + count_tails_below(base, kPatienceWindow, x, less);
}

// The register tiers' scalar twin: the memory kernel's loop below over the
// tiers' kTierTails-slot block, with their stop rule (util/simd.hpp,
// patience_tiers_i64).
inline int64_t patience_tiers_scalar(const int64_t* a, int64_t i, int64_t hi,
                                     int32_t* rank, int64_t* t,
                                     int64_t& len) {
  for (; i < hi; i++) {
    const int64_t x = a[i];
    const int64_t pos = patience_search(t, len, x, std::less<int64_t>{});
    if (pos == simd::kTierTails) break;
    rank[i] = static_cast<int32_t>(pos + 1);
    t[pos] = x;
    len += pos == len;
  }
  return i;
}

// The front end of patience_ranks for int64 keys under std::less: the
// vector tiers behind the SIMD toggle, else their twin.
inline int64_t patience_tiers(const int64_t* a, int64_t i, int64_t hi,
                              int32_t* rank, int64_t* t, int64_t& len) {
#if PARLIS_SIMD_BACKEND == 4
  if (simd::enabled()) return simd::patience_tiers_i64(a, i, hi, rank, t, len);
#endif
  return patience_tiers_scalar(a, i, hi, rank, t, len);
}

// Patience sorting (Seq-BS): rank[i] is one more than the number of tails
// below a[i], and a[i] then becomes that tail (or a new last one). Returns
// k. int64 keys under std::less (raw values and every rank image) start in
// the tiers of patience_tiers while there are at most kTierTails tails;
// the element that needs one more spills them to `tails`, and the memory
// loop goes on from it. `tails` is scratch whose size is the memory loop's
// capacity: it doubles up to |a| + 1 slots and is kept, so a warm call
// allocates nothing. Polls cancellation every 4096 elements, on either
// side of the spill. Cache-line aligned, so its speed does not move with
// its link address.
template <typename T, typename Less>
[[gnu::aligned(64)]] int32_t patience_ranks(std::span<const T> a, int32_t* rank,
                                            std::vector<T>& tails, Less less) {
  constexpr bool kTiers = std::is_same_v<T, int64_t> &&
                          std::is_same_v<Less, std::less<int64_t>>;
  const int64_t n = static_cast<int64_t>(a.size());
  int64_t len = 0;
  int64_t i = 0;
  T* t = nullptr;
  int64_t cap = 0;
  auto hold_tails = [&](int64_t slots) {
    if (static_cast<int64_t>(tails.size()) < slots) {
      tails.resize(static_cast<size_t>(slots));
    }
    t = tails.data();
    cap = static_cast<int64_t>(tails.size());
  };
  [[maybe_unused]] alignas(64) int64_t tier[kTiers ? simd::kTierTails : 1];
  [[maybe_unused]] bool in_tiers = kTiers;
  if constexpr (kTiers) {
    std::fill(tier, tier + simd::kTierTails,
              std::numeric_limits<int64_t>::max());
  } else {
    hold_tails(2 * kPatienceWindow);
  }
  for (int64_t lo = 0; lo < n; lo += 4096) {
    poll_cancellation();
    const int64_t hi = std::min(n, lo + 4096);
    if constexpr (kTiers) {
      if (in_tiers) {
        i = patience_tiers(a.data(), i, hi, rank, tier, len);
        if (i == hi) continue;
        // a[i] needs tail kTierTails + 1, so n > len: the spill fits.
        in_tiers = false;
        hold_tails(std::min(2 * len, n + 1));
        std::copy(tier, tier + len, t);
      }
    }
    for (; i < hi; i++) {
      const T x = a[i];
      const int64_t pos = patience_search(t, len, x, less);
      rank[i] = static_cast<int32_t>(pos + 1);
      // t[pos] is not below x, so x may always replace it; pos == len
      // writes the spare slot and extends the tails.
      t[pos] = x;
      len += pos == len;
      if (len == cap) [[unlikely]] hold_tails(std::min(2 * cap, n + 1));
    }
  }
  return static_cast<int32_t>(len);
}

// Lays the frontiers of res.rank (ranks 1..res.k) out flat, index-ascending
// per frontier: the layout lis_frontiers_into produces. Counts rank r at
// offset[r + 1] and prefix-sums, so offset[r] is where frontier r starts;
// placing index i at offset[rank]++ in ascending i then leaves offset[r]
// where frontier r ends, with no cursor array. The spare last slot (rank
// k's count) is dropped afterwards. Allocation-free when warm.
inline void lay_out_frontiers(LisFrontiers& res) {
  const int64_t n = static_cast<int64_t>(res.rank.size());
  res.frontier_flat.resize(res.rank.size());
  std::vector<int64_t>& off = res.frontier_offset;
  off.assign(static_cast<size_t>(res.k) + 2, 0);
  for (int64_t i = 0; i < n; i++) off[res.rank[i] + 1]++;
  for (int32_t r = 1; r <= res.k; r++) off[r + 1] += off[r];
  for (int64_t i = 0; i < n; i++) res.frontier_flat[off[res.rank[i]]++] = i;
  off.pop_back();
}

}  // namespace internal

/// Sequential patience sorting (Seq-BS) with the same output contract as
/// lis_ranks_into: the Solver's LIS path. O(n log k) time on the calling
/// thread, O(n) while k <= 128 (the register tiers). `tails` is O(k)
/// scratch, reused across calls; its contents after the call are
/// unspecified. Polls cancellation every 4096 elements.
template <typename T, typename Less = std::less<T>>
void seq_patience_ranks_into(std::span<const T> a, LisResult& res,
                             std::vector<T>& tails, Less less = Less{}) {
  res.rank.resize(a.size());
  res.k = internal::patience_ranks<T, Less>(a, res.rank.data(), tails, less);
}

/// Frontier-materializing form of seq_patience_ranks_into: ranks via
/// patience, then one counting pass lays the frontiers out flat,
/// index-ascending per round — the same layout lis_frontiers_into
/// produces. Allocation-free when warm.
template <typename T, typename Less = std::less<T>>
void seq_patience_frontiers_into(std::span<const T> a, LisFrontiers& res,
                                 std::vector<T>& tails, Less less = Less{}) {
  res.rank.resize(a.size());
  res.k = internal::patience_ranks<T, Less>(a, res.rank.data(), tails, less);
  internal::lay_out_frontiers(res);
}

/// One-shot form of lis_ranks_into.
template <typename T, typename Less = std::less<T>>
LisResult lis_ranks(const std::vector<T>& a,
                    T inf = std::numeric_limits<T>::max(),
                    Less less = Less{}) {
  LisResult res;
  TournamentStorage<T> ws;
  lis_ranks_into<T, Less>(std::span<const T>(a.data(), a.size()), res, ws, inf,
                          less);
  return res;
}

/// Span form (vector arguments resolve to the template above).
inline LisResult lis_ranks(std::span<const int64_t> a) {
  LisResult res;
  TournamentStorage<int64_t> ws;
  lis_ranks_into<int64_t>(a, res, ws);
  return res;
}

/// Computes dp values and the per-round frontiers (two-pass extraction)
/// into `res`, reusing its buffers and the injected tournament storage.
/// Every object is extracted in exactly one round, so frontier_flat is
/// sized n once and each round writes its frontier directly into the next
/// flat region — no per-round vector, no copying. `inf` as for
/// lis_ranks_into.
template <typename T, typename Less = std::less<T>>
void lis_frontiers_into(std::span<const T> a, LisFrontiers& res,
                        TournamentStorage<T>& ws,
                        T inf = std::numeric_limits<T>::max(),
                        Less less = Less{}) {
  const int64_t n = static_cast<int64_t>(a.size());
  res.rank.resize(a.size());  // the rounds write every rank
  res.k = 0;
  res.frontier_offset.clear();
  res.frontier_offset.push_back(0);
  res.frontier_flat.resize(n);
  if (a.empty()) return;
  {
    TournamentTree<T, Less> tree(a, inf, ws, less);
    if (!tree.has_inf_input()) {
      int32_t r = 0;
      int64_t off = 0;
      while (!tree.empty()) {
        internal::poll_cancellation();
        PARLIS_FAILPOINT("lis.round");
        ++r;
        const int64_t m =
            tree.extract_frontier_collect_into(res.frontier_flat.data() + off);
        const int64_t* f = res.frontier_flat.data() + off;
        parallel_for(0, m, [&](int64_t j) { res.rank[f[j]] = r; },
                     kRoundGrain);
        off += m;
        res.frontier_offset.push_back(off);
      }
      res.k = r;
      return;
    }
  }
  internal::solve_on_rank_image<T, Less>(
      a, ws, less, [&](std::span<const int64_t> ranks,
                       TournamentStorage<int64_t>& st, int64_t rank_inf) {
        lis_frontiers_into<int64_t>(ranks, res, st, rank_inf);
      });
}

/// One-shot form of lis_frontiers_into.
template <typename T, typename Less = std::less<T>>
LisFrontiers lis_frontiers(const std::vector<T>& a,
                           T inf = std::numeric_limits<T>::max(),
                           Less less = Less{}) {
  LisFrontiers res;
  TournamentStorage<T> ws;
  lis_frontiers_into<T, Less>(std::span<const T>(a.data(), a.size()), res, ws,
                              inf, less);
  return res;
}

/// LIS length only.
template <typename T, typename Less = std::less<T>>
int64_t lis_length(const std::vector<T>& a,
                   T inf = std::numeric_limits<T>::max(), Less less = Less{}) {
  return lis_ranks(a, inf, less).k;
}

/// Longest *non-decreasing* subsequence: equal values may chain. Reduces to
/// the strict algorithm through the shared rank-space pass under the
/// kNonDecreasing ties policy (stable (value, index) ranking), so the
/// tournament tree runs on the one shared int64 rank kernel instead of
/// instantiating over (value, index) pairs. The `inf` parameter is retained
/// for signature compatibility but unused: ranks are dense, so n is always
/// a valid sentinel.
template <typename T>
LisResult longest_nondecreasing_ranks(
    const std::vector<T>& a, T inf = std::numeric_limits<T>::max()) {
  (void)inf;
  RankSpace rs = rank_space<T>(std::span<const T>(a.data(), a.size()),
                               TiesPolicy::kNonDecreasing);
  LisResult res;
  TournamentStorage<int64_t> ws;
  lis_ranks_into<int64_t>(std::span<const int64_t>(rs.rank), res, ws,
                          static_cast<int64_t>(a.size()));
  return res;
}

template <typename T>
int64_t longest_nondecreasing_length(
    const std::vector<T>& a, T inf = std::numeric_limits<T>::max()) {
  return longest_nondecreasing_ranks(a, inf).k;
}

/// Best decisions (Appendix A): d[i] is the index of A_i's predecessor in an
/// LIS ending at A_i (-1 for rank-1 objects). By Lemma A.1 / A.2 this is the
/// last object of the previous frontier with index < i.
template <typename T>
std::vector<int64_t> lis_decisions(const std::vector<T>& a,
                                   const LisFrontiers& fr) {
  (void)a;
  std::vector<int64_t> d(fr.rank.size(), -1);
  for (int32_t r = 2; r <= fr.k; r++) {
    const int64_t* prev = fr.frontier_flat.data() + fr.frontier_offset[r - 2];
    int64_t prev_n = fr.frontier_offset[r - 1] - fr.frontier_offset[r - 2];
    const int64_t* cur = fr.frontier_flat.data() + fr.frontier_offset[r - 1];
    int64_t cur_n = fr.frontier_offset[r] - fr.frontier_offset[r - 1];
    parallel_for(
        0, cur_n,
        [&](int64_t j) {
          // Last index of the previous frontier strictly before cur[j].
          const int64_t* it = std::lower_bound(prev, prev + prev_n, cur[j]);
          d[cur[j]] = *(it - 1);  // rank r-1 object before cur[j] exists
        },
        kRoundGrain);
  }
  return d;
}

/// Returns the indices of one longest increasing subsequence of `a`
/// (ascending indices, strictly increasing values).
template <typename T>
std::vector<int64_t> lis_sequence(const std::vector<T>& a,
                                  T inf = std::numeric_limits<T>::max()) {
  LisFrontiers fr = lis_frontiers(a, inf);
  if (fr.k == 0) return {};
  std::vector<int64_t> d = lis_decisions(a, fr);
  // Start from any object of the last frontier and follow decisions back.
  std::vector<int64_t> seq(fr.k);
  int64_t cur = fr.frontier_flat[fr.frontier_offset[fr.k - 1]];
  for (int32_t r = fr.k; r >= 1; r--) {
    seq[r - 1] = cur;
    cur = d[cur];
  }
  return seq;
}

}  // namespace parlis
