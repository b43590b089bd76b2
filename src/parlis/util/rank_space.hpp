// Rank-space reduction: the one preprocessing pass every backend shares.
//
// Every algorithm in this repo — the tournament tree of Alg. 1, the range
// tree of Sec. 4.1, the Mono-vEB structure of Sec. 4.2 / Appendix E, and
// the SWGS dominance oracle — is comparison-based: it only ever consumes
// the *rank* of a value within the input, never the value itself. This
// header centralizes the reduction from an arbitrary strictly-ordered key
// sequence (int64, double, timestamps, tuples under a comparator, ...) to
// its rank image, so one compression pass feeds all backends and each key
// type costs exactly one template instantiation of the sort — the int64
// solver core downstream is shared.
//
// The pass is a parallel sort of the index permutation by (key, index)
// (O(n log n) work via the scheduler's merge sort, allocation-free base
// case) followed by blocked run scans. Workspace-injected: repeated
// same-size compressions through one RankSpace/RankSpaceScratch pair
// perform zero heap allocations — the contract the warm Solver path gates
// with the operator-new hook test.
//
// Ties are a policy, not an accident:
//  * kStrict        — equal keys share a rank; a strictly-increasing
//    subsequence of ranks is a strictly-increasing subsequence of keys.
//  * kNonDecreasing — keys are ranked stably by (key, index), so equal
//    keys get increasing ranks in input order; a strictly-increasing
//    subsequence of ranks is a *non-decreasing* subsequence of keys.
// Either way the downstream solvers run the strict algorithm on the rank
// image and never learn which policy (or key type) produced it.
//
// rank_only_into is the cheaper form for callers that read only `rank` and
// `n_distinct` (the Solver's plans): int64 keys under std::less whose span
// is small enough are ranked through a presence bitmap (util/rank_space.cpp),
// which runs on the pool from kRankPoolMinN keys up when the keys are
// banded, and every other input takes rank_space_into. For int64 keys under
// std::less the run scan finds run starts with an AVX-512 kernel
// (run_masks, below).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/primitives.hpp"
#include "parlis/util/resident.hpp"
#include "parlis/util/simd.hpp"

namespace parlis {

/// How equal keys interact in an "increasing" subsequence (see above).
enum class TiesPolicy { kStrict, kNonDecreasing };

/// The rank image of a key sequence. After rank_space_into all arrays have
/// the input length n; after rank_only_into's bitmap path only `rank` does,
/// and `order`, `pos` and `qpos` are empty.
struct RankSpace {
  /// Indices sorted by (key, index): order[p] is the index of the p-th
  /// smallest key (ties by input position). This is the y_by_pos
  /// permutation the WLIS range structures are built over.
  std::vector<int64_t> order;
  /// Inverse permutation: pos[order[p]] = p (the value-order position of
  /// index i — where updates for point i land in the range structures).
  std::vector<int64_t> pos;
  /// Dense rank in [0, n_distinct): rank[i] counts the distinct keys
  /// strictly below key i. Under kNonDecreasing, rank == pos (every
  /// element is its own rank; n_distinct == n).
  std::vector<int64_t> rank;
  /// qpos[i] = number of *elements* with key strictly below key i — the
  /// start of key i's run in `order`, i.e. the x-prefix bound of i's
  /// dominant-max query. Under kNonDecreasing, qpos == pos.
  std::vector<int64_t> qpos;
  int64_t n_distinct = 0;

  /// Measured heap bytes held (vector capacities) — eviction accounting.
  size_t resident_bytes() const {
    return vec_bytes(order) + vec_bytes(pos) + vec_bytes(rank) +
           vec_bytes(qpos);
  }
};

/// Reusable scratch for rank_space_into (merge buffer + per-block run
/// carries; the int64 vector scan adds a contiguous sorted-key image and
/// per-block run-start bit masks). rank_only_into's bitmap path borrows
/// `run_masks` for its presence words, `sort_buf` for their popcount
/// prefix, then for its kNonDecreasing counts, and the carries for each
/// 4096-key block's min and max. Same-size re-compressions through one
/// scratch allocate nothing.
struct RankSpaceScratch {
  std::vector<int64_t> sort_buf;
  std::vector<int64_t> carry_qpos;  // incoming run start per block
  std::vector<int64_t> carry_rank;  // incoming dense rank per block
  std::vector<int64_t> sorted_keys;  // keys[order[p]], gathered once (SIMD)
  std::vector<uint64_t> run_masks;   // run-start bits, 64 words/block (SIMD)

  size_t resident_bytes() const {
    return vec_bytes(sort_buf) + vec_bytes(carry_qpos) +
           vec_bytes(carry_rank) + vec_bytes(sorted_keys) +
           vec_bytes(run_masks);
  }
};

namespace internal {

/// Makes `v` hold at least `need` elements, growing its capacity to exactly
/// `need` when it must (resize alone may double it). It never shrinks, so a
/// warm call neither allocates nor refills: for scratch that its user
/// writes before it reads. Returns v.data().
template <typename T>
T* hold(std::vector<T>& v, size_t need) {
  if (v.capacity() < need) {
    v.clear();
    v.reserve(need);
  }
  if (v.size() < need) v.resize(need);
  return v.data();
}

/// Resizes `v` to `need` elements, growing its capacity to exactly `need`
/// when it must: for the rank space's arrays, whose size is n.
template <typename T>
void resize_exact(std::vector<T>& v, size_t need) {
  if (v.capacity() < need) {
    v.clear();
    v.reserve(need);
  }
  v.resize(need);
}

}  // namespace internal

// ------------------------------------------------------------ run scan ---
// rank_space_rescan_strict's kernel, with its scalar twin and dispatch
// (toggle: util/simd.hpp).

namespace simd {

/// Run-start bit masks over a contiguous ascending-sorted key image:
/// bit (p - lo) of out[(p - lo) / 64] is set iff position p starts a run,
/// i.e. s[p] != s[p - 1] (for p == lo, compared against the previous
/// block's last key; `force_first` marks p == 0, which always starts a
/// run). Requires hi > lo, s[lo - 1] readable when !force_first, and out
/// zero-filled for ceil((hi - lo) / 64) words by the kernel itself.
inline void run_masks_i64_scalar(const int64_t* s, int64_t lo, int64_t hi,
                                 bool force_first, uint64_t* out) {
  const int64_t n = hi - lo;
  for (int64_t w = 0; w < (n + 63) / 64; w++) out[w] = 0;
  if (force_first || s[lo] != s[lo - 1]) out[0] |= 1;
  for (int64_t p = lo + 1; p < hi; p++) {
    if (s[p] != s[p - 1]) {
      const int64_t off = p - lo;
      out[off >> 6] |= uint64_t{1} << (off & 63);
    }
  }
}

#if PARLIS_SIMD_BACKEND == 4
namespace detail {

// ORs `nbits` bits at bit offset `off` of the mask array (may straddle one
// word boundary).
inline void or_bits(uint64_t* out, int64_t off, uint64_t bits, int nbits) {
  out[off >> 6] |= bits << (off & 63);
  int spill = static_cast<int>(off & 63) + nbits - 64;
  if (spill > 0) out[(off >> 6) + 1] |= bits >> (nbits - spill);
}

inline void run_masks_i64_vec(const int64_t* s, int64_t lo, int64_t hi,
                              bool force_first, uint64_t* out) {
  const int64_t n = hi - lo;
  for (int64_t w = 0; w < (n + 63) / 64; w++) out[w] = 0;
  if (force_first || s[lo] != s[lo - 1]) out[0] |= 1;
  int64_t p = lo + 1;
  for (; p + 8 <= hi; p += 8) {
    __m512i a = _mm512_loadu_si512(s + p);
    __m512i b = _mm512_loadu_si512(s + p - 1);
    uint64_t neq = _mm512_cmpneq_epi64_mask(a, b);
    if (neq) or_bits(out, p - lo, neq, 8);
  }
  for (; p < hi; p++) {
    if (s[p] != s[p - 1]) {
      const int64_t off = p - lo;
      out[off >> 6] |= uint64_t{1} << (off & 63);
    }
  }
}

}  // namespace detail
#endif  // PARLIS_SIMD_BACKEND == 4

inline void run_masks_i64(const int64_t* s, int64_t lo, int64_t hi,
                          bool force_first, uint64_t* out) {
#if PARLIS_SIMD_BACKEND == 4
  if (enabled()) {
    detail::run_masks_i64_vec(s, lo, hi, force_first, out);
    return;
  }
#endif
  run_masks_i64_scalar(s, lo, hi, force_first, out);
}

}  // namespace simd

/// Recomputes the kStrict run-scan outputs (qpos, rank, n_distinct) from an
/// already-sorted `rs.order`. This is the scan half of rank_space_into,
/// exposed on its own so the paired scalar-vs-SIMD bench rows and the
/// kernel tests can exercise the run scan without paying for the sort.
/// Requires rs.order/pos filled for `keys` (any prior rank_space_into).
///
/// kStrict is a blocked two-pass run scan over the sorted order. Position p
/// starts a run iff its key differs from its predecessor's; the run start
/// is qpos, the number of run starts at or before p (minus one) is the
/// dense rank. Pass 1 computes each block's outgoing (run start, run
/// count); a short sequential sweep turns them into incoming carries;
/// pass 2 replays each block. The carries live in the scratch, so the
/// whole scan is allocation-free when warm.
///
/// int64 keys under std::less take the vector path: the sorted key image is
/// gathered once into contiguous scratch (the scalar scan gathers twice,
/// through `order`, per pass), pass 1 derives per-block run-start *bit
/// masks* with vector neighbor-compares (sorted order makes "predecessor
/// differs" and "predecessor is less" the same test), and both passes then
/// read popcounts/bits instead of re-comparing keys.
template <typename Key, typename Less = std::less<Key>>
void rank_space_rescan_strict(std::span<const Key> keys, RankSpace& rs,
                              RankSpaceScratch& scratch, Less less = Less{}) {
  const int64_t n = static_cast<int64_t>(keys.size());
  rs.n_distinct = 0;
  if (n == 0) return;
  constexpr int64_t kBlock = 4096;
  constexpr int64_t kMaskWords = kBlock / 64;
  const int64_t nblocks = (n + kBlock - 1) / kBlock;
  internal::hold(scratch.carry_qpos, static_cast<size_t>(nblocks));
  internal::hold(scratch.carry_rank, static_cast<size_t>(nblocks));
  [[maybe_unused]] constexpr bool kSimdKeys =
      std::is_same_v<Key, int64_t> && std::is_same_v<Less, std::less<int64_t>>;
  if constexpr (kSimdKeys) {
    if (simd::enabled()) {
      internal::hold(scratch.sorted_keys, static_cast<size_t>(n));
      internal::hold(scratch.run_masks,
                     static_cast<size_t>(nblocks * kMaskWords));
      const int64_t* order = rs.order.data();
      int64_t* sorted = scratch.sorted_keys.data();
      parallel_for(0, n, [&](int64_t p) { sorted[p] = keys[order[p]]; });
      parallel_for(0, nblocks, [&](int64_t b) {
        const int64_t lo = b * kBlock, hi = std::min(n, lo + kBlock);
        uint64_t* mw = scratch.run_masks.data() + b * kMaskWords;
        simd::run_masks_i64(sorted, lo, hi, /*force_first=*/b == 0, mw);
        int64_t last = -1, runs = 0;
        for (int64_t w = (hi - lo - 1) / 64; w >= 0; w--) {
          runs += std::popcount(mw[w]);
          if (last < 0 && mw[w] != 0) {
            last = lo + 64 * w + (63 - std::countl_zero(mw[w]));
          }
        }
        scratch.carry_qpos[b] = last;  // -1: block opens no run
        scratch.carry_rank[b] = runs;
      });
      int64_t carry_start = 0, carry_rank = 0;
      for (int64_t b = 0; b < nblocks; b++) {
        const int64_t last = scratch.carry_qpos[b];
        const int64_t runs = scratch.carry_rank[b];
        scratch.carry_qpos[b] = carry_start;
        scratch.carry_rank[b] = carry_rank;
        if (last >= 0) carry_start = last;
        carry_rank += runs;
      }
      rs.n_distinct = carry_rank;
      parallel_for(0, nblocks, [&](int64_t b) {
        const int64_t lo = b * kBlock, hi = std::min(n, lo + kBlock);
        const uint64_t* mw = scratch.run_masks.data() + b * kMaskWords;
        int64_t start = scratch.carry_qpos[b];
        int64_t rank = scratch.carry_rank[b] - 1;  // rank of the open run
        for (int64_t p = lo; p < hi; p++) {
          const int64_t off = p - lo;
          if ((mw[off >> 6] >> (off & 63)) & 1) {
            start = p;
            rank++;
          }
          rs.qpos[order[p]] = start;
          rs.rank[order[p]] = rank;
        }
      });
      return;
    }
  }
  auto run_starts = [&](int64_t p) {
    return p == 0 || less(keys[rs.order[p - 1]], keys[rs.order[p]]);
  };
  parallel_for(0, nblocks, [&](int64_t b) {
    const int64_t lo = b * kBlock, hi = std::min(n, lo + kBlock);
    int64_t last = -1, runs = 0;
    for (int64_t p = lo; p < hi; p++) {
      if (run_starts(p)) {
        last = p;
        runs++;
      }
    }
    scratch.carry_qpos[b] = last;  // -1: block opens no run
    scratch.carry_rank[b] = runs;
  });
  int64_t carry_start = 0, carry_rank = 0;
  for (int64_t b = 0; b < nblocks; b++) {
    const int64_t last = scratch.carry_qpos[b];
    const int64_t runs = scratch.carry_rank[b];
    scratch.carry_qpos[b] = carry_start;
    scratch.carry_rank[b] = carry_rank;
    if (last >= 0) carry_start = last;
    carry_rank += runs;
  }
  rs.n_distinct = carry_rank;
  parallel_for(0, nblocks, [&](int64_t b) {
    const int64_t lo = b * kBlock, hi = std::min(n, lo + kBlock);
    int64_t start = scratch.carry_qpos[b];
    int64_t rank = scratch.carry_rank[b] - 1;  // rank of the open run
    for (int64_t p = lo; p < hi; p++) {
      if (run_starts(p)) {
        start = p;
        rank++;
      }
      rs.qpos[rs.order[p]] = start;
      rs.rank[rs.order[p]] = rank;
    }
  });
}

/// Compresses `keys` into `rs` under `ties`, reusing every buffer in `rs`
/// and `scratch`. `less` must be a strict weak ordering; keys i and j are
/// equal iff neither less(keys[i], keys[j]) nor less(keys[j], keys[i]).
template <typename Key, typename Less = std::less<Key>>
void rank_space_into(std::span<const Key> keys, TiesPolicy ties,
                     RankSpace& rs, RankSpaceScratch& scratch,
                     Less less = Less{}) {
  const int64_t n = static_cast<int64_t>(keys.size());
  // Exact growth, so that after rank_only_into's bitmap at a smaller n the
  // arrays hold what a fresh pair would.
  for (std::vector<int64_t>* v : {&rs.order, &rs.pos, &rs.rank, &rs.qpos}) {
    internal::resize_exact(*v, static_cast<size_t>(n));
  }
  rs.n_distinct = 0;
  if (n == 0) return;
  internal::hold(scratch.sort_buf, static_cast<size_t>(n));
  parallel_for(0, n, [&](int64_t i) { rs.order[i] = i; });
  // (key, index) is a total order, so the allocation-free std::sort base
  // case applies.
  sort_with_buffer_total(rs.order.data(), scratch.sort_buf.data(), n,
                         [&](int64_t i, int64_t j) {
                           if (less(keys[i], keys[j])) return true;
                           if (less(keys[j], keys[i])) return false;
                           return i < j;
                         });
  parallel_for(0, n, [&](int64_t p) { rs.pos[rs.order[p]] = p; });
  if (ties == TiesPolicy::kNonDecreasing) {
    // Stable (key, index) ranking: the sorted position itself. Ranks are a
    // permutation of [0, n) and every key is distinct in rank space.
    parallel_for(0, n, [&](int64_t i) {
      rs.rank[i] = rs.pos[i];
      rs.qpos[i] = rs.pos[i];
    });
    rs.n_distinct = n;
    return;
  }
  rank_space_rescan_strict<Key, Less>(keys, rs, scratch, less);
}

/// The most presence words rank_only_into's bitmap path uses for n keys.
/// A word and its popcount prefix take 16 B, and the sort path holds 32 B
/// per element besides `rank` (order, pos, qpos and the merge buffer), so
/// the bitmap never holds more than the arrays it replaces.
inline uint64_t rank_only_max_words(int64_t n) {
  return 2 * static_cast<uint64_t>(n);
}

namespace internal {

/// From this many keys up, rank_only_into's bitmap runs its phases on the
/// pool (EXPERIMENTS.md, "Rank on the pool"); below it the pool's forks cost
/// more than they save.
inline constexpr int64_t kRankPoolMinN = int64_t{1} << 17;

/// How rank_by_bitmap ranked: not at all (kTooWide: n = 0, or the span needs
/// more than rank_only_max_words(n) words), with the bit set, prefix and
/// rank on the calling thread (kCaller), or on the pool by word segments
/// that each task owns (kSegments).
enum class BitmapPath { kTooWide, kCaller, kSegments };

/// rank_only_into's bitmap path (util/rank_space.cpp). After kTooWide
/// nothing but the scratch's carries is written.
BitmapPath rank_by_bitmap(std::span<const int64_t> keys, TiesPolicy ties,
                          RankSpace& rs, RankSpaceScratch& scratch);

}  // namespace internal

/// Fills `rs.rank` and `rs.n_distinct` exactly as rank_space_into would
/// under `ties`, for callers that read nothing else. int64 keys under
/// std::less whose span [min, max] fits in rank_only_max_words(n) words
/// take a bitmap path, O(n + span/64): one bit per present key, a popcount
/// prefix over the words, and rank = prefix + popcount of the key's word
/// below its bit; under kNonDecreasing it then counts each dense rank's
/// occurrences and hands out positions in input order. From
/// internal::kRankPoolMinN keys up, outside sequential and
/// thread-sequential mode and on 2 or more workers, its min/max pass runs
/// on the pool, and so do the bit set, prefix and rank when the keys are
/// banded (each task then owns a segment of the words); otherwise, and
/// for the kNonDecreasing counts, the calling thread runs them. That path
/// leaves `order`, `pos` and `qpos` empty. Every other input (other key
/// types or orders, wider spans, n = 0) runs rank_space_into, which fills
/// all four arrays. The ranks are the same bits on every path, and warm
/// same-size calls allocate nothing.
template <typename Key, typename Less = std::less<Key>>
void rank_only_into(std::span<const Key> keys, TiesPolicy ties, RankSpace& rs,
                    RankSpaceScratch& scratch, Less less = Less{}) {
  if constexpr (std::is_same_v<Key, int64_t> &&
                std::is_same_v<Less, std::less<int64_t>>) {
    if (internal::rank_by_bitmap(keys, ties, rs, scratch) !=
        internal::BitmapPath::kTooWide) {
      return;
    }
  }
  rank_space_into<Key, Less>(keys, ties, rs, scratch, less);
}

/// One-shot convenience form (fresh buffers per call).
template <typename Key, typename Less = std::less<Key>>
RankSpace rank_space(std::span<const Key> keys,
                     TiesPolicy ties = TiesPolicy::kStrict,
                     Less less = Less{}) {
  RankSpace rs;
  RankSpaceScratch scratch;
  rank_space_into<Key, Less>(keys, ties, rs, scratch, less);
  return rs;
}

}  // namespace parlis
