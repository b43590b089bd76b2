// The patience kernel's sliding window: the per-block body that
// internal::patience_ranks (lis/patience.hpp describes the window) runs
// once per 4096 elements after its 128-tail tier fills, for int64 keys
// under std::less with the SIMD toggle on.
//
// In its own translation unit, like lis/speculative.cpp: a kernel inline
// in a header that solver.hpp includes moved code out of line in
// solver.cpp and slowed small solves that never reach it (EXPERIMENTS.md,
// "Speculative chunked patience").
#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "parlis/lis/patience.hpp"

namespace parlis::internal {

#if PARLIS_SIMD_BACKEND == 4
namespace {

constexpr int64_t kSlots = simd::kTierTails;
constexpr int64_t kFreeze = kSlots / 2;  // the tails one slide freezes

}  // namespace

// simd::detail::patience_lines<16>'s loop, with the ranks offset by the
// frozen tails, the frozen branch in front and a slide where the tier
// stops.
WindowBlock patience_window(const int64_t* a, int64_t i, int64_t hi,
                            int32_t* rank, int64_t* w, int64_t len,
                            int64_t base, std::vector<int64_t>& tails,
                            int64_t n) {
  const __m512i every8th = _mm512_set_epi64(63, 55, 47, 39, 31, 23, 15, 7);
  __m512i s[2];
  auto summarize = [&] {
    for (int j = 0; j < 2; j++) {
      s[j] = _mm512_mask_i64gather_epi64(every8th, 0xFF, every8th,
                                         w + 64 * j, 8);
    }
  };
  summarize();
  int64_t* t = tails.data();
  // The top frozen tail; with none, the first element slides (it needs
  // tail kSlots + 1, so it is above INT64_MIN).
  int64_t frozen_top =
      base > 0 ? t[base - 1] : std::numeric_limits<int64_t>::min();
  int64_t last = w[kSlots - 1];
  int64_t k = len;
  for (; i < hi; i++) {
    const int64_t y = a[i];
    if (y <= frozen_top) [[unlikely]] {
      const int64_t pos = patience_search(t, base, y, std::less<int64_t>{});
      rank[i] = static_cast<int32_t>(pos + 1);
      t[pos] = y;
      frozen_top = pos == base - 1 ? y : frozen_top;
      continue;
    }
    if (y > last) [[unlikely]] {
      // y needs tail base + kSlots + 1: freeze the bottom half and slide.
      grow_tails_above(tails, base + kSlots, n);
      t = tails.data();
      std::copy_n(w, kFreeze, t + base);
      std::copy_n(w + kFreeze, kSlots - kFreeze, w);
      std::fill(w + kSlots - kFreeze, w + kSlots,
                std::numeric_limits<int64_t>::max());
      base += kFreeze;
      k = kSlots - kFreeze;
      frozen_top = t[base - 1];
      last = std::numeric_limits<int64_t>::max();
      summarize();
    }
    const __m512i x = _mm512_set1_epi64(y);
    const uint32_t full =
        static_cast<uint32_t>(_cvtmask8_u32(_mm512_cmplt_epi64_mask(s[0], x))) |
        static_cast<uint32_t>(_cvtmask8_u32(_mm512_cmplt_epi64_mask(s[1], x)))
            << 8;
    const int64_t r = std::popcount(full);
    int64_t* line = w + 8 * r;
    const __m512i v = _mm512_load_si512(line);
    const __mmask8 m = _kor_mask8(
        _mm512_cmplt_epi64_mask(simd::detail::shift_up1(v, v), x), 1);
    _mm512_store_si512(line, _mm512_mask_min_epi64(v, m, v, x));
    const int64_t c = std::popcount(_cvtmask8_u32(m));
    if (c == 8) {
      const uint32_t bit = uint32_t{1} << r;
      s[0] = _mm512_mask_mov_epi64(s[0], static_cast<__mmask8>(bit), x);
      s[1] = _mm512_mask_mov_epi64(s[1], static_cast<__mmask8>(bit >> 8), x);
    }
    const int64_t rk = 8 * r + c;
    rank[i] = static_cast<int32_t>(base + rk);
    k = rk > k ? rk : k;
    last = rk == kSlots ? y : last;
  }
  grow_tails_above(tails, base + k, n);
  return WindowBlock{k, base};
}
#endif  // PARLIS_SIMD_BACKEND == 4

}  // namespace parlis::internal
