#include "parlis/wlis/wlis_sweep.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "parlis/util/error.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/failpoint.hpp"

namespace parlis {

namespace {

[[noreturn]] void throw_overflow(int64_t i) {
  throw Error(ErrorCode::kInvalidArgument,
              "weighted LIS: dp[" + std::to_string(i) +
                  "] overflows int64 (w[i] plus the best chain before it)");
}

}  // namespace

// Cache-line aligned, like internal::patience_ranks.
[[gnu::aligned(64)]] void wlis_sweep_into(
    std::span<const int64_t> rank, int64_t universe,
    std::span<const int64_t> w, WlisSweepScratch& s, WlisResult& out) {
  assert(rank.size() == w.size());
  const int64_t n = static_cast<int64_t>(rank.size());
  constexpr int64_t kPoll = 4096;
  // Node 0 is unused: rank r lives at node r + 1, so the ranks below r are
  // the prefix [1, r]. Zeroed nodes read as max(0, ·) of nothing.
  s.fenwick.assign(static_cast<size_t>(universe) + 1, {0, 0});
  WlisSweepScratch::Node* f = s.fenwick.data();
  out.dp.resize(static_cast<size_t>(n));
  int64_t* dp = out.dp.data();
  int64_t best = 0, k = 0;
  for (int64_t lo = 0; lo < n; lo += kPoll) {
    internal::poll_cancellation();
    PARLIS_FAILPOINT("wlis.sweep");
    const int64_t hi = std::min(n, lo + kPoll);
    for (int64_t i = lo; i < hi; i++) {
      const int64_t r = rank[i];
      assert(r >= 0 && r < universe);
      int64_t q = 0, len = 0;
      for (int64_t j = r; j > 0; j &= j - 1) {
        q = std::max(q, f[j].dp);
        len = std::max(len, f[j].len);
      }
      int64_t d;
      if (__builtin_add_overflow(w[i], q, &d)) [[unlikely]] throw_overflow(i);
      len++;
      dp[i] = d;
      best = std::max(best, d);
      k = std::max(k, len);
      for (int64_t j = r + 1; j <= universe; j += j & -j) {
        f[j].dp = std::max(f[j].dp, d);
        f[j].len = std::max(f[j].len, len);
      }
    }
  }
  out.best = best;
  out.k = static_cast<int32_t>(k);
}

}  // namespace parlis
