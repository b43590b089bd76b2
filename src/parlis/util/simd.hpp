// Vectorized comparison kernels: the one place SIMD lives.
//
// Three hot loops in this repo are dense comparison sweeps that a vector
// body beats by a measured margin: the 8-ary tournament tree's min-of-8
// reductions and prefix-min sweeps, the rank-space pass's neighbor-compare
// run scan over sorted keys, and the patience kernel's search while it has
// at most 128 tails. This header provides those sweeps as free functions
// with three properties the rest of the codebase relies on:
//
//  1. **Compile-time backend dispatch.** `PARLIS_SIMD` (CMake, default ON)
//     compiles the vector paths when the target ISA has the AVX-512
//     F/DQ/BW/VL quartet (one 512-bit vector is a whole 8-ary tournament
//     level, and compares write `__mmask` registers directly). Every other
//     target — AVX2, SSE, non-x86, `-DPARLIS_SIMD=OFF` — compiles cleanly
//     to the scalar path, which GCC auto-vectorizes where it pays; the
//     vector code is preprocessed away, never #error'd.
//  2. **The scalar twin is always compiled and reachable.** Every kernel
//     `foo(...)` has a `foo_scalar(...)` twin with the same signature and
//     bit-identical results, and the dispatching `foo` consults a process
//     runtime toggle (`set_enabled`). The differential harness flips the
//     toggle and diffs whole solves vectorized-vs-scalar in one process;
//     the forced-scalar CI leg (-DPARLIS_SIMD=OFF) diffs across builds.
//     The one exception is patience_tiers_i64: its twin is the patience
//     kernel's own search loop, so the twin and the dispatch live next to
//     that loop (lis/lis.hpp, internal::patience_tiers).
//  3. **No hidden relaxation.** Each kernel's contract is stated in terms
//     of the scalar loop it replaces, and the vector implementations follow
//     the exact same comparison semantics (total order on int64), so
//     results are bit-for-bit equal — not "close enough". Nothing here
//     touches floating point.
//
// A vector body stays only while a paired bench row at its call site shows
// it >= 10% faster than its twin (EXPERIMENTS.md, "SIMD-kernel
// methodology"); bodies and backend tiers that no row measures are deleted.
//
// ThreadSanitizer: vector loads are invisible to TSan's instrumentation,
// so a racy access inside a vector kernel would silently vanish from the
// race report. Under TSan the backend is therefore forced to scalar at
// compile time — the TSan CI leg races the scalar twins, which are the
// same accesses the vector path performs.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>

// ----------------------------------------------------- backend selection ---

// 4 = AVX-512 (the F/DQ/BW/VL quartet), 0 = scalar twins only.
#if defined(PARLIS_SIMD_ENABLED) && defined(__AVX512F__) && \
    defined(__AVX512DQ__) && defined(__AVX512BW__) && defined(__AVX512VL__)
#if defined(__SANITIZE_THREAD__)
#define PARLIS_SIMD_BACKEND 0  // TSan: race-checkable scalar twins only
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PARLIS_SIMD_BACKEND 0
#else
#define PARLIS_SIMD_BACKEND 4
#endif
#else
#define PARLIS_SIMD_BACKEND 4
#endif
#else
#define PARLIS_SIMD_BACKEND 0
#endif

#if PARLIS_SIMD_BACKEND == 4
#include <immintrin.h>
#endif

namespace parlis::simd {

/// True when the vector backend is compiled in (the runtime toggle can still
/// route every kernel to its scalar twin).
inline constexpr bool kVectorized = PARLIS_SIMD_BACKEND == 4;

/// Compiled backend, for bench/test introspection: "avx512" or "scalar".
inline const char* backend_name() { return kVectorized ? "avx512" : "scalar"; }

// Runtime toggle: default on. The differential harness and the paired
// scalar-vs-SIMD bench rows flip this to diff both paths in one process.
// One relaxed load per kernel call; the kernels all amortize it over at
// least a cache line of work.
inline std::atomic<bool> g_runtime_enabled{true};

inline bool enabled() {
  return kVectorized && g_runtime_enabled.load(std::memory_order_relaxed);
}

/// Returns the previous value (tests restore it).
inline bool set_enabled(bool on) {
  return g_runtime_enabled.exchange(on, std::memory_order_relaxed);
}

/// What actually runs right now: "scalar" when disabled or not compiled.
inline const char* active_backend_name() {
  return enabled() ? backend_name() : "scalar";
}

// ------------------------------------------------------- scalar twins ------
//
// Exactly the loops the vector kernels replace. These are the reference
// implementations the tests diff against and the only code paths on
// targets without AVX-512, -DPARLIS_SIMD=OFF builds and TSan builds.

/// Minimum of the 8 contiguous int64 at p (ties keep the value — min over a
/// total order, so "first" vs "any" minimum is indistinguishable).
inline int64_t min8_i64_scalar(const int64_t* p) {
  int64_t m = p[0];
  for (int j = 1; j < 8; j++) {
    if (p[j] < m) m = p[j];
  }
  return m;
}

/// Candidate mask of an 8-ary tournament level: bit j set iff
/// p[j] <= bound && p[j] < inf. The prefix-min sweep only ever enters or
/// absorbs children in this set (any child with p[j] > bound can neither
/// qualify against the running bound, which starts at `bound` and only
/// decreases, nor lower it), so the caller walks just these bits.
inline uint32_t cand_mask8_i64_scalar(const int64_t* p, int64_t bound,
                                      int64_t inf) {
  uint32_t m = 0;
  for (int j = 0; j < 8; j++) {
    if (p[j] <= bound && p[j] < inf) m |= uint32_t{1} << j;
  }
  return m;
}

/// Leaf-level prefix-min extraction sweep: exactly the scalar loop
///
///   cur = bound;
///   for j in 0..8: x = p[j];
///     if (x <= cur && x < inf) { extracted |= 1 << j; p[j] = inf; }
///     if (x < cur) cur = x;
///
/// i.e. lane j is extracted iff p[j] <= min(bound, p[0..j-1]) (the running
/// bound is exactly the exclusive prefix-min) and p[j] < inf. Extracted
/// lanes are overwritten with inf, `*new_min` receives the post-sweep
/// min-of-8, and the extracted-lane mask is returned. The vector form
/// computes the exclusive prefix-min across lanes, so the whole sweep —
/// including the level-min refresh — runs branchless out of registers.
inline uint32_t sweep8_extract_i64_scalar(int64_t* p, int64_t bound,
                                          int64_t inf, int64_t* new_min) {
  int64_t cur = bound;
  uint32_t extracted = 0;
  for (int j = 0; j < 8; j++) {
    const int64_t x = p[j];
    if (x <= cur && x < inf) {
      extracted |= uint32_t{1} << j;
      p[j] = inf;
    }
    if (x < cur) cur = x;
  }
  *new_min = min8_i64_scalar(p);
  return extracted;
}

/// Counting twin of sweep8_extract: the same sweep without mutation, i.e.
/// #lanes with p[j] <= min(bound, p[0..j-1]) && p[j] < inf.
inline int64_t sweep8_count_i64_scalar(const int64_t* p, int64_t bound,
                                       int64_t inf) {
  int64_t cur = bound;
  int64_t c = 0;
  for (int j = 0; j < 8; j++) {
    const int64_t x = p[j];
    if (x <= cur && x < inf) c++;
    if (x < cur) cur = x;
  }
  return c;
}

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

// ------------------------------------------------------- AVX-512 bodies ----

#if PARLIS_SIMD_BACKEND == 4
namespace detail {

// Lane shift toward higher indices by (8 - imm) quadwords, vacated low
// lanes filled from the top of `fill`: valignr concatenates [v | fill] and
// takes quadwords imm..imm+7.
#define PARLIS_SHIFT_UP_512(v, fill, by) _mm512_alignr_epi64(v, fill, 8 - (by))

// Exclusive prefix-min over the 8 lanes of v seeded with `bound`:
// e[j] = min(bound, v[0..j-1]). Three shift+min steps build the inclusive
// prefix, one more shifts it to exclusive and folds the seed in.
inline __m512i eprefix_min8_512(__m512i v, __m512i bound, __m512i inf) {
  __m512i i = _mm512_min_epi64(v, PARLIS_SHIFT_UP_512(v, inf, 1));
  i = _mm512_min_epi64(i, PARLIS_SHIFT_UP_512(i, inf, 2));
  i = _mm512_min_epi64(i, PARLIS_SHIFT_UP_512(i, inf, 4));
  return _mm512_min_epi64(bound, PARLIS_SHIFT_UP_512(i, inf, 1));
}

inline int64_t min8_i64_vec(const int64_t* p) {
  return _mm512_reduce_min_epi64(_mm512_loadu_si512(p));
}

inline uint32_t cand_mask8_i64_vec(const int64_t* p, int64_t bound,
                                   int64_t inf) {
  __m512i v = _mm512_loadu_si512(p);
  return static_cast<uint32_t>(
      _mm512_cmple_epi64_mask(v, _mm512_set1_epi64(bound)) &
      _mm512_cmplt_epi64_mask(v, _mm512_set1_epi64(inf)));
}

inline uint32_t sweep8_extract_i64_vec(int64_t* p, int64_t bound, int64_t inf,
                                       int64_t* new_min) {
  __m512i I = _mm512_set1_epi64(inf);
  __m512i v = _mm512_loadu_si512(p);
  __m512i e = eprefix_min8_512(v, _mm512_set1_epi64(bound), I);
  // Lane j extracted iff p[j] <= e[j] && p[j] < inf.
  __mmask8 ext = _mm512_cmple_epi64_mask(v, e) & _mm512_cmplt_epi64_mask(v, I);
  __m512i nv = _mm512_mask_mov_epi64(v, ext, I);
  _mm512_storeu_si512(p, nv);
  *new_min = _mm512_reduce_min_epi64(nv);
  return ext;
}

inline int64_t sweep8_count_i64_vec(const int64_t* p, int64_t bound,
                                    int64_t inf) {
  __m512i I = _mm512_set1_epi64(inf);
  __m512i v = _mm512_loadu_si512(p);
  __m512i e = eprefix_min8_512(v, _mm512_set1_epi64(bound), I);
  return std::popcount(static_cast<uint32_t>(
      _mm512_cmple_epi64_mask(v, e) & _mm512_cmplt_epi64_mask(v, I)));
}

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

// ------------------------------------------------------ dispatch wrappers --
//
// Each reads the runtime toggle once; on scalar-only builds the toggle is
// constant-false and the wrapper inlines to the twin.

inline int64_t min8_i64(const int64_t* p) {
#if PARLIS_SIMD_BACKEND == 4
  if (enabled()) return detail::min8_i64_vec(p);
#endif
  return min8_i64_scalar(p);
}

inline uint32_t cand_mask8_i64(const int64_t* p, int64_t bound, int64_t inf) {
#if PARLIS_SIMD_BACKEND == 4
  if (enabled()) return detail::cand_mask8_i64_vec(p, bound, inf);
#endif
  return cand_mask8_i64_scalar(p, bound, inf);
}

inline uint32_t sweep8_extract_i64(int64_t* p, int64_t bound, int64_t inf,
                                   int64_t* new_min) {
#if PARLIS_SIMD_BACKEND == 4
  if (enabled()) return detail::sweep8_extract_i64_vec(p, bound, inf, new_min);
#endif
  return sweep8_extract_i64_scalar(p, bound, inf, new_min);
}

inline int64_t sweep8_count_i64(const int64_t* p, int64_t bound, int64_t inf) {
#if PARLIS_SIMD_BACKEND == 4
  if (enabled()) return detail::sweep8_count_i64_vec(p, bound, inf);
#endif
  return sweep8_count_i64_scalar(p, bound, inf);
}

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

// ------------------------------------------------ patience tail tiers ------
//
// The patience kernel's front end for int64 keys under std::less
// (lis/lis.hpp): while there are at most kTierTails tails, they stay in a
// 64-byte-aligned block t[0, kTierTails) whose slots from len on hold
// INT64_MAX (the empty-lane filler; a real INT64_MAX tail is harmless, since
// no key is above it). Element a[i] gets rank 1 + #tails below it and
// replaces the first tail not below it, exactly as in the scalar loop.
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

}  // namespace parlis::simd
