// SWGS baseline: the parallel LIS/WLIS algorithm of Shen, Wan, Gu, Sun
// ("Many Sequential Iterative Algorithms Can Be Parallel and (Nearly)
// Work-efficient", SPAA 2022) that this paper compares against.
//
// Phase-parallel with a *wake-up scheme*: every object that is not yet
// ready samples a uniformly random alive dominator (its "certificate") via
// the dominance oracle and sleeps until that certificate is processed; an
// object with zero alive dominators joins the current frontier. Each object
// is re-checked O(log n) times whp, and every probe costs O(log^2 n) on the
// oracle — the O(n log^3 n)-whp work / O(k log^2 n) span of the original.
//
// WLIS runs the same rounds and computes dp values with dominant-max
// queries on the round's frontier (we reuse the range tree of Sec. 4.1 for
// that part, which is charitable to the baseline — the wake-up scheme
// dominates its cost).
//
// The baseline returns the same LisResult / WlisResult structs as Alg. 1/2
// — results are results, whichever algorithm produced them — and reports
// its work diagnostics through the optional SwgsStats side channel. Like
// Alg. 2, a dp sum past INT64_MAX throws Error{kInvalidArgument}.
#pragma once

#include <cstdint>
#include <span>

#include "parlis/lis/lis.hpp"
#include "parlis/wlis/wlis.hpp"

namespace parlis {

/// Wake-up-scheme work diagnostics (side channel; pass nullptr to skip).
struct SwgsStats {
  int64_t total_checks = 0;  // # readiness probes
};

/// Unweighted LIS ranks via the SWGS wake-up scheme.
LisResult swgs_lis_ranks(std::span<const int64_t> a, uint64_t seed = 42,
                         SwgsStats* stats = nullptr);

/// Result-buffer-injected form.
void swgs_lis_ranks_into(std::span<const int64_t> a, uint64_t seed,
                         LisResult& out, SwgsStats* stats = nullptr);

/// Weighted LIS via SWGS rounds + dominant-max queries.
WlisResult swgs_wlis(std::span<const int64_t> a, std::span<const int64_t> w,
                     uint64_t seed = 42, SwgsStats* stats = nullptr);

/// Workspace-injected form: shares the WlisWorkspace of Alg. 2 (rank
/// space, score batches, range tree) as scratch. Any key type or ties
/// policy reaches it through a rank image: pass a copy of the caller's
/// rank_space_into output, not ws.rank_space.rank itself, which this call
/// overwrites while it reads `a`.
void swgs_wlis_into(std::span<const int64_t> a, std::span<const int64_t> w,
                    uint64_t seed, WlisWorkspace& ws, WlisResult& out,
                    SwgsStats* stats = nullptr);

}  // namespace parlis
