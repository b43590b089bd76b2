// The Solver's LIS kernel: patience sorting (the paper's Seq-BS baseline),
// in AVX-512 register tiers while there are at most 128 tails, each tier
// beside its scalar twin and the dispatch under the SIMD toggle
// (util/simd.hpp). On a 4-core AVX-512 Xeon it beat Alg. 1's rounds on the
// pool at every k measured (EXPERIMENTS.md, "Register tiers"), so
// parlis::Solver and LisSession run it. Its pooled form, speculative
// chunked patience (declared at the end, defined in lis/speculative.cpp),
// runs index chunks of the tiers on the pool and replays only where a
// chunk's run disagrees with the true one; the Solver runs it from
// kSpeculateMinN elements up. seq_patience_ranks_into and
// seq_patience_frontiers_into stay on one thread: they are the figures'
// Seq-BS baseline and the tests' reference. Alg. 1 and the reconstruction
// stay in lis/lis.hpp, which includes this header; the result structs live
// here, so the Solver's headers include none of Alg. 1's tournament tree.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "parlis/util/exec_context.hpp"
#include "parlis/util/resident.hpp"
#include "parlis/util/simd.hpp"

namespace parlis {

/// Result of an LIS pass.
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

// ------------------------------------------------ patience tail tiers ------
//
// The patience kernel's front end for int64 keys under std::less: while
// there are at most kTierTails tails, they stay in a 64-byte-aligned block
// t[0, kTierTails) whose slots from len on hold INT64_MAX (the empty-lane
// filler; a real INT64_MAX tail is harmless, since no key is above it).
// Element a[i] gets rank 1 + #tails below it and replaces the first tail
// not below it, exactly as in the scalar loop.
//
// The update needs no lane index: lane j takes min(t[j], x) exactly when
// the tail before it, t[j - 1], is below x (lane 0 always qualifies). That
// lowers t[pos] to x and leaves every other lane as it was, and the number
// of qualifying lanes is the rank. Two layouts, picked per tier by the
// paired rows in EXPERIMENTS.md ("Register tiers"):
//  - 16 and 32 tails live in 2 and 4 zmm registers. Each element costs one
//    lane shift, one compare and one masked min per register and a
//    popcount; the next element waits only on the shift, compare and min.
//  - 64 and 128 tails live in 8 and 16 L1 lines, with each line's last
//    tail in 1 or 2 summary registers. The summary compare counts the lines
//    wholly below x; the element then touches only the next line. Holding
//    64 or 128 tails in 8 or 16 registers is throughput-bound (two port-5
//    ops per register per element) and ran 1.4-2.8x slower.

namespace simd {

/// Tails the tiers hold before the caller spills them to memory.
inline constexpr int64_t kTierTails = 128;

#if PARLIS_SIMD_BACKEND == 4
namespace detail {

// Lanes of v moved up by one, lane 0 from lane 7 of `below`. The masked
// form with a full mask is the same instruction; the unmasked intrinsic's
// undefined pass-through trips GCC 12's -Wmaybe-uninitialized.
inline __m512i shift_up1(__m512i v, __m512i below) {
  return _mm512_mask_alignr_epi64(v, 0xFF, v, below, 7);
}

// Tails t[0, 8R) in R registers; runs until hi or an element above t[8R-1].
template <int R>
inline int64_t patience_regs(const int64_t* a, int64_t i, int64_t hi,
                             int32_t* rank, int64_t* t, int64_t& len) {
  __m512i v[R];
  for (int r = 0; r < R; r++) v[r] = _mm512_load_si512(t + 8 * r);
  int64_t last = t[8 * R - 1];
  int64_t k = len;
  for (; i < hi; i++) {
    const int64_t y = a[i];
    if (y > last) [[unlikely]] break;  // would need tail 8R + 1
    const __m512i x = _mm512_set1_epi64(y);
    uint32_t below = 0;
    for (int r = 0; r < R; r++) {
      const __m512i prev = shift_up1(v[r], r ? v[r - 1] : v[r]);
      __mmask8 m = _mm512_cmplt_epi64_mask(prev, x);
      if (r == 0) m = _kor_mask8(m, 1);
      v[r] = _mm512_mask_min_epi64(v[r], m, v[r], x);
      below |= static_cast<uint32_t>(_cvtmask8_u32(m)) << (8 * r);
    }
    const int64_t rk = std::popcount(below);
    rank[i] = static_cast<int32_t>(rk);
    k = rk > k ? rk : k;
    last = rk == 8 * R ? y : last;
  }
  for (int r = 0; r < R; r++) _mm512_store_si512(t + 8 * r, v[r]);
  len = k;
  return i;
}

// Tails t[0, 8L) in L lines, summarized by their last tails; same stop rule.
// The summary changes only when an element replaces a line's last tail, one
// element in eight on spread inputs: a branch there beat a masked move,
// which puts the summary on the element-to-element chain.
template <int L>
inline int64_t patience_lines(const int64_t* a, int64_t i, int64_t hi,
                              int32_t* rank, int64_t* t, int64_t& len) {
  constexpr int kS = L / 8;
  const __m512i every8th = _mm512_set_epi64(63, 55, 47, 39, 31, 23, 15, 7);
  __m512i s[kS];
  for (int j = 0; j < kS; j++) {
    s[j] = _mm512_mask_i64gather_epi64(every8th, 0xFF, every8th, t + 64 * j,
                                       8);
  }
  int64_t last = t[8 * L - 1];
  int64_t k = len;
  for (; i < hi; i++) {
    const int64_t y = a[i];
    if (y > last) [[unlikely]] break;
    const __m512i x = _mm512_set1_epi64(y);
    uint32_t full = 0;  // lines whose every tail is below y
    for (int j = 0; j < kS; j++) {
      full |= static_cast<uint32_t>(
                  _cvtmask8_u32(_mm512_cmplt_epi64_mask(s[j], x)))
              << (8 * j);
    }
    const int64_t r = std::popcount(full);
    int64_t* line = t + 8 * r;
    const __m512i v = _mm512_load_si512(line);
    const __mmask8 m = _kor_mask8(
        _mm512_cmplt_epi64_mask(shift_up1(v, v), x), 1);
    _mm512_store_si512(line, _mm512_mask_min_epi64(v, m, v, x));
    const int64_t c = std::popcount(_cvtmask8_u32(m));
    if (c == 8) {
      const uint32_t bit = uint32_t{1} << r;
      s[0] = _mm512_mask_mov_epi64(s[0], static_cast<__mmask8>(bit), x);
      if constexpr (kS == 2) {
        s[1] = _mm512_mask_mov_epi64(s[1], static_cast<__mmask8>(bit >> 8), x);
      }
    }
    const int64_t rk = 8 * r + c;
    rank[i] = static_cast<int32_t>(rk);
    k = rk > k ? rk : k;
    last = rk == 8 * L ? y : last;
  }
  len = k;
  return i;
}

}  // namespace detail

/// Ranks a[i, hi) against the tails t[0, len) (layout above; t 64-byte
/// aligned), updating t and len. Returns hi, or the index of the first
/// element that would need tail kTierTails + 1, whose rank is not written.
/// A full tier hands its tails to the next one.
inline int64_t patience_tiers_i64(const int64_t* a, int64_t i, int64_t hi,
                                  int32_t* rank, int64_t* t, int64_t& len) {
  if (len <= 16) {
    i = detail::patience_regs<2>(a, i, hi, rank, t, len);
    if (i == hi) return i;
  }
  if (len <= 32) {
    i = detail::patience_regs<4>(a, i, hi, rank, t, len);
    if (i == hi) return i;
  }
  if (len <= 64) {
    i = detail::patience_lines<8>(a, i, hi, rank, t, len);
    if (i == hi) return i;
  }
  return detail::patience_lines<16>(a, i, hi, rank, t, len);
}
#endif  // PARLIS_SIMD_BACKEND == 4

}  // namespace simd

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
// tiers' kTierTails-slot block, with their stop rule
// (simd::patience_tiers_i64 above).
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

// Where patience_ranks starts: element `at`, with the `len` tails
// tails[0, len) of a[0, at) (len <= kTierTails). The default is the start
// of the input. Only int64 keys under std::less resume; the pooled form
// (speculative_patience_ranks_into below) hands its true tails over this
// way.
struct PatienceResume {
  int64_t at = 0;
  const int64_t* tails = nullptr;
  int64_t len = 0;
};

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
                                            std::vector<T>& tails, Less less,
                                            const PatienceResume& from = {}) {
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
    std::copy_n(from.tails, from.len, tier);
    len = from.len;
    i = from.at;
  } else {
    hold_tails(2 * kPatienceWindow);
  }
  for (int64_t lo = i; lo < n; lo += 4096) {
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

// ------------------------------------------- speculative chunked patience --
//
// The pooled form of patience_ranks<int64_t, std::less>, defined in
// lis/speculative.cpp. Phase 1 runs G index chunks in parallel, each in
// the register tiers from empty tails, and records each chunk's end tails
// and the first index of each of its ranks (its extension events). Phase
// 2, on the caller, walks the chunks in order against the true tails T.
// While a chunk's tails B are a prefix of T, the next element gets the
// same rank in both runs and B stays a prefix, except when it extends B to
// length L while T[L - 1] is below it; so only those events are checked,
// against T's suffix, which the chunk has not touched. At the first event
// that fails, the caller rebuilds B's prefix from the chunk's ranks and
// replays the two runs side by side, counting the slots where they
// differ, until the count is 0 again. Only replayed elements get a new
// rank; a chunk that ends in agreement leaves T = B ++ T's suffix.
//
// The one-thread kernel takes the true tails and runs the rest of the
// input when a chunk or T passes kTierTails tails or a chunk replays more
// than a quarter of its elements. Every chunk's state lives on the
// caller's stack, so a warm solve allocates nothing beyond what
// patience_ranks would.

/// The fewest elements the Solver's LIS speculates on; smaller inputs run
/// patience_ranks on the calling thread.
inline constexpr int64_t kSpeculateMinN = int64_t{1} << 16;

/// seq_patience_ranks_into for int64 keys under std::less, on the pool:
/// the same bits. The plan runs the one-thread kernel in sequential or
/// thread-sequential mode, on a 1-worker pool, below kSpeculateMinN
/// elements, and when the tiers spill within the first 4096 elements (deep
/// inputs); otherwise it speculates over G = num_workers() chunks (at most
/// 16). Chunk tasks poll the caller's cancellation scope (the scheduler
/// runs them under it) every 4096 elements, as does the replay; on a throw
/// the contents of `res` are unspecified. Allocation-free when warm.
void speculative_patience_ranks_into(std::span<const int64_t> a,
                                     LisResult& res,
                                     std::vector<int64_t>& tails);

/// The frontier-materializing form: the ranks as above, then
/// lay_out_frontiers on the calling thread.
void speculative_patience_frontiers_into(std::span<const int64_t> a,
                                         LisFrontiers& res,
                                         std::vector<int64_t>& tails);

/// What one speculative solve did: the elements phase 2 replayed, and
/// where the one-thread kernel took over (-1 when it did not).
struct SpeculationTrace {
  int64_t replayed = 0;
  int64_t resumed_at = -1;
};

/// The ranks of speculative_patience_ranks_into over `chunks` index chunks
/// (clamped to [1, 16]) into rank[0, |a|), run whether or not the plan
/// would pick it; returns k. For the differential tests.
int32_t speculative_patience_ranks_forced(std::span<const int64_t> a,
                                          int32_t* rank,
                                          std::vector<int64_t>& tails,
                                          int chunks,
                                          SpeculationTrace* trace = nullptr);

}  // namespace internal

/// Sequential patience sorting (Seq-BS) with the same output contract as
/// lis_ranks_into (lis/lis.hpp): the Solver's LIS path. O(n log k) time on
/// the calling thread, O(n) while k <= 128 (the register tiers). `tails`
/// is O(k) scratch, reused across calls; its contents after the call are
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

}  // namespace parlis
