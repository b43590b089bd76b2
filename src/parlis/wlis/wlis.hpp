// Parallel weighted LIS (Alg. 2, Thm. 1.2 / Thm. 4.1).
//
// Computes dp[i] = w_i + max(0, max_{j<i, A_j<A_i} dp[j]) for every object:
// Alg. 1 first assigns ranks, then frontiers are processed in rank order;
// within a frontier all dp values are independent and computed in parallel
// via dominant-max queries on a RangeStruct, which is then batch-updated.
//
// Two RangeStructs are provided, matching the paper:
//  * kRangeTree  — Sec. 4.1, O(n log^2 n) work (the practical choice),
//  * kRangeVeb   — Sec. 4.2, Mono-vEB inner trees (the theoretical one).
//
// Entry points: `wlis` is the one-shot form (fresh workspace per call);
// `wlis_into` injects a caller-owned WlisWorkspace and result buffers so a
// warm same-size solve allocates nothing. The workspace is scratch only:
// every call derives the rank space, the frontiers and the range structure
// from its own input. parlis::Solver runs neither: its weighted plan is the
// Fenwick pass of wlis_sweep.hpp (home of WlisResult), and these rounds are
// the reference the differential tests hold it to. A dp sum past INT64_MAX
// throws Error{kInvalidArgument} with the pass's message; which
// overflowing element it names is unspecified.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parlis/wlis/wlis_sweep.hpp"  // WlisResult

namespace parlis {

/// Dominant-max structure for Alg. 2:
///  kRangeTree          Sec. 4.1 (prefix-max Fenwick inner trees)
///  kRangeVeb           Sec. 4.2 (Mono-vEB inner trees; query labels found
///                      by binary search)
///  kRangeVebTabulated  Sec. 4.2 + Appendix E per-point label tables
///                      (O(log n log log n) queries, extra O(n log n) space)
enum class WlisStructure { kRangeTree, kRangeVeb, kRangeVebTabulated };

struct WlisWorkspace;  // wlis_workspace.hpp

/// Weighted LIS of `a` with weights `w` (|w| == |a|).
WlisResult wlis(std::span<const int64_t> a, std::span<const int64_t> w,
                WlisStructure structure = WlisStructure::kRangeTree);

/// Workspace-injected form: scratch comes from `ws`, the result is written
/// into `out` (buffers reused). Zero steady-state allocations on repeated
/// same-size solves with the kRangeTree backend.
void wlis_into(std::span<const int64_t> a, std::span<const int64_t> w,
               WlisWorkspace& ws, WlisResult& out,
               WlisStructure structure = WlisStructure::kRangeTree);

/// Rank-space entry point, for keys other than raw int64 values: the caller
/// ran rank_space_into over the original keys into
/// ws.rank_space and passes ws.rank_space.rank itself here (asserted —
/// a rank span from any other RankSpace would pair the rounds with stale
/// pos/qpos). Skips re-deriving the value order from the rank array;
/// otherwise identical to wlis_into (same zero-allocation steady state).
void wlis_compressed_into(std::span<const int64_t> ranks,
                          std::span<const int64_t> w, WlisWorkspace& ws,
                          WlisResult& out,
                          WlisStructure structure = WlisStructure::kRangeTree);

/// Recovers the indices of one maximum-weight increasing subsequence from
/// the dp table (ascending indices, strictly increasing values, weight sum
/// == max dp). A single backward scan: from the argmax, repeatedly find the
/// rightmost j < i with a[j] < a[i] and dp[j] = dp[i] - w[i]; O(n) total.
std::vector<int64_t> wlis_sequence(std::span<const int64_t> a,
                                   std::span<const int64_t> w,
                                   const WlisResult& result);

}  // namespace parlis
