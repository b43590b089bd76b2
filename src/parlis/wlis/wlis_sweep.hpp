// The Solver's weighted-LIS kernel: a Fenwick-tree pass over a dense rank
// image, run as one cell on the calling thread or as a wavefront of cells
// on the pool.
//
// Element i queries the maximum dp among ranks below rank[i] (the walk
// down the Fenwick tree), sets dp[i] = w[i] + max(0, that maximum), and
// publishes dp[i] at rank[i] (the walk up). The same walks carry the LIS
// length ending at each element, so k needs no second pass. O(n log u)
// work for u distinct ranks, O(u) scratch.
//
// The recurrence is a 2-D dominance max (j < i and rank[j] < rank[i]), so
// it tiles like other 2-D dynamic programs (the wavefront of parallel
// Smith-Waterman): cell (c, b) holds index chunk c's elements whose rank
// lies in rank block b, and the cells of one anti-diagonal share no chunk
// and no block. An element's predecessor max is the max of three exact
// parts: a corner value per cell (earlier chunks, lower blocks), a running
// max over its chunk's earlier lower-block elements (the row), and block
// b's own Fenwick tree, filled by the cells of column b in chunk order.
// Max does not depend on order, so every schedule gives the same dp, best
// and k. The one-cell schedule is the whole pass in one cell.
//
// Alg. 2's range-tree rounds (wlis.hpp) compute the same dp in Õ(k) span
// but O(n log^2 n) work; on a 4-core host the pass wins at every k
// measured (EXPERIMENTS.md, "WLIS plan methodology"), so parlis::Solver
// runs this and the rounds remain the paper's algorithm behind wlis() /
// wlis_into(). This header, which also defines WlisResult, is all of the
// weighted side the Solver includes: none of the rounds' entry points,
// workspace, range structures or vEB trees.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parlis/util/resident.hpp"

namespace parlis {

/// Result of a weighted LIS solve (this pass, and Alg. 2's rounds in wlis.hpp).
struct WlisResult {
  std::vector<int64_t> dp;  // dp[i] per Eq. (2)
  int64_t best = 0;         // max weighted increasing subsequence sum
  int32_t k = 0;            // LIS length (number of rounds)

  /// Measured heap bytes held — the serving layer's eviction accounting.
  size_t resident_bytes() const { return vec_bytes(dp); }
};

/// Reusable scratch of wlis_sweep_into: one Fenwick node per rank, holding
/// the prefix maxima of dp and of the LIS length. A warm call over at most
/// as many ranks as the last allocates nothing. The Solver keeps one in
/// each thread context, beside its rank space (api/solver.hpp).
struct WlisSweepScratch {
  struct Node {
    int64_t dp;
    int64_t len;
  };
  std::vector<Node> fenwick;

  size_t resident_bytes() const { return vec_bytes(fenwick); }
};

/// The fewest elements wlis_sweep_into runs as a wavefront; smaller inputs
/// run one cell.
inline constexpr int64_t kWavefrontMinN = int64_t{1} << 15;

/// dp, best and k of the weighted LIS of `rank`, a dense rank image whose
/// values all lie in [0, universe), with weights `w` (|w| == |rank|):
/// dp[i] = w[i] + max(0, max{dp[j] : j < i, rank[j] < rank[i]}),
/// best = max(0, max dp), k = the LIS length.
///
/// The plan runs one cell on the calling thread below kWavefrontMinN
/// elements or 2^14 ranks, in sequential or thread-sequential mode, and on
/// a 1-worker pool. Otherwise it prices the wavefront of G = 4p (at most
/// 32) chunks on a strided sample, then on exact cell counts (one parallel
/// pass), and runs it on the pool when it prices well below the one-cell
/// pass. The wavefront borrows `borrowed` for a per-element length array
/// and its cell tables, n + 7 G^2 words, growing it to exactly that when
/// it is smaller; what it leaves there is scratch.
///
/// Polls cancellation (the caller's scope, under which the scheduler runs
/// each pool task) on entry to every cell and every 4096 positions it
/// scans. A sum that overflows int64 throws Error{kInvalidArgument}; the
/// prefix maximum is never negative, so only a positive weight can
/// overflow. When cells run in parallel, which overflowing element the
/// error names is unspecified.
/// On any throw the contents of `out` are unspecified.
void wlis_sweep_into(std::span<const int64_t> rank, int64_t universe,
                     std::span<const int64_t> w, WlisSweepScratch& s,
                     std::vector<int64_t>& borrowed, WlisResult& out);

namespace internal {

/// Throws the pass's Error{kInvalidArgument} for a dp[i] past INT64_MAX.
[[noreturn]] void throw_wlis_overflow(int64_t i);

/// dp[i] = w + max(0, q) with the pass's overflow check: the add of Alg. 2's
/// rounds and of SWGS (wlis.cpp, swgs.cpp).
inline int64_t checked_dp(int64_t w, int64_t q, int64_t i) {
  int64_t d;
  if (__builtin_add_overflow(w, q > 0 ? q : 0, &d)) [[unlikely]] {
    throw_wlis_overflow(i);
  }
  return d;
}

/// wlis_sweep_into's wavefront over `chunks` index chunks (clamped to
/// [1, 32]; 1 is the one-cell schedule), run whether or not the plan would
/// pick it. For the differential tests.
void wlis_wavefront_into(std::span<const int64_t> rank, int64_t universe,
                         std::span<const int64_t> w, WlisSweepScratch& s,
                         std::vector<int64_t>& borrowed, int chunks,
                         WlisResult& out);

}  // namespace internal

}  // namespace parlis
