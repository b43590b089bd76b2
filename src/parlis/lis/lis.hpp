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
// kernel (lis/patience.hpp, included here with the result structs) beat
// Alg. 1's rounds on the pool at every k measured (EXPERIMENTS.md,
// "Register tiers"). The rounds stay as the paper's algorithm and the
// tests' and figures' reference.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "parlis/lis/patience.hpp"
#include "parlis/lis/tournament_tree.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/failpoint.hpp"
#include "parlis/util/rank_space.hpp"

namespace parlis {

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
/// instantiating over (value, index) pairs. Ranks are dense, so n is the
/// sentinel.
template <typename T>
LisResult longest_nondecreasing_ranks(const std::vector<T>& a) {
  RankSpace rs = rank_space<T>(std::span<const T>(a.data(), a.size()),
                               TiesPolicy::kNonDecreasing);
  LisResult res;
  TournamentStorage<int64_t> ws;
  lis_ranks_into<int64_t>(std::span<const int64_t>(rs.rank), res, ws,
                          static_cast<int64_t>(a.size()));
  return res;
}

template <typename T>
int64_t longest_nondecreasing_length(const std::vector<T>& a) {
  return longest_nondecreasing_ranks(a).k;
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
/// (ascending indices, strictly increasing values). The frontiers come
/// from the patience kernel, which lays them out as Alg. 1 does, so the
/// witness is the one Alg. 1's frontiers give.
template <typename T>
std::vector<int64_t> lis_sequence(const std::vector<T>& a) {
  LisFrontiers fr;
  std::vector<T> tails;
  seq_patience_frontiers_into<T>(std::span<const T>(a.data(), a.size()), fr,
                                 tails);
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
