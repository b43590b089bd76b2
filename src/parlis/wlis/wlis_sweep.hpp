// The Solver's weighted-LIS kernel: one sequential left-to-right pass over
// a dense rank image, with a Fenwick tree of prefix maxima over the ranks.
//
// Element i queries the maximum dp among ranks below rank[i] (the walk
// down the Fenwick tree), sets dp[i] = w[i] + max(0, that maximum), and
// publishes dp[i] at rank[i] (the walk up). The same walks carry the LIS
// length ending at each element, so k needs no second pass. O(n log u)
// work for u distinct ranks, O(u) scratch.
//
// Alg. 2's range-tree rounds (wlis.hpp) compute the same dp in Õ(k) span
// but O(n log^2 n) work; on a 4-core host the pass wins at every k
// measured (EXPERIMENTS.md, "WLIS plan methodology"), so parlis::Solver
// runs this and the rounds remain the paper's algorithm behind wlis() /
// wlis_into(). This header is all of the weighted side the Solver
// includes: none of the rounds' workspace, range structures or vEB trees.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parlis/util/resident.hpp"
#include "parlis/wlis/wlis.hpp"

namespace parlis {

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

/// dp, best and k of the weighted LIS of `rank`, a dense rank image whose
/// values all lie in [0, universe), with weights `w` (|w| == |rank|):
/// dp[i] = w[i] + max(0, max{dp[j] : j < i, rank[j] < rank[i]}),
/// best = max(0, max dp), k = the LIS length. Runs on the calling thread.
///
/// Polls cancellation on entry and every 4096 elements. A sum that
/// overflows int64 throws Error{kInvalidArgument}; the prefix maximum is
/// never negative, so only a positive weight can overflow. On any throw
/// the contents of `out` are unspecified.
void wlis_sweep_into(std::span<const int64_t> rank, int64_t universe,
                     std::span<const int64_t> w, WlisSweepScratch& s,
                     WlisResult& out);

}  // namespace parlis
