// parallel_for as a balanced binary fork tree over par_do.
//
// A parallel_for call halves [lo, hi) with par_do until a range fits the
// grain, the shape of ParlayLib's parallel_for (Blelloch, Anderson and
// Dhulipala, SPAA 2020). Both halves of every split stay splittable: a
// thief that takes the upper half splits it again, and so does the worker
// that kept the lower one, so a loop has O(log(n / grain)) span and forks
// once per split (leaves − 1 times). Each fork is par_do's stack-resident
// descriptor — no allocation.
//
// Exceptions: the first body exception to reach a frame wins; a leaf that
// throws trips a cancel flag shared by every leaf of the loop, leaves that
// start afterwards skip their block (one relaxed load per leaf), par_do
// joins every fork, and the exception rethrows from parallel_for on the
// calling thread. Which iterations beyond the throwing one ran is
// unspecified — same contract as a sequential loop, where everything after
// the throw is skipped.
#pragma once

#include <atomic>
#include <cstdint>

#include "parlis/parallel/scheduler.hpp"

namespace parlis {

namespace internal {

// Caps the default grain well below n/8p so the tail of a long loop
// balances across workers instead of serializing on one leaf.
inline constexpr int64_t kDefaultMaxGrain = 4096;

template <typename F>
void parallel_for_rec(int64_t lo, int64_t hi, int64_t grain, const F& f,
                      std::atomic<bool>& cancel) {
  if (hi - lo <= grain) {
    if (cancel.load(std::memory_order_relaxed)) return;  // a sibling threw
    // Bounds copied to locals: lo and hi escape into the par_do closures,
    // so the compiler would assume a body's int64 stores may change them
    // and leave the loop unvectorized.
    const int64_t b = lo, e = hi;
    try {
      for (int64_t i = b; i < e; i++) f(i);
    } catch (...) {
      cancel.store(true, std::memory_order_relaxed);
      throw;
    }
    return;
  }
  const int64_t mid = lo + (hi - lo) / 2;
  par_do([&] { parallel_for_rec(lo, mid, grain, f, cancel); },
         [&] { parallel_for_rec(mid, hi, grain, f, cancel); });
}

}  // namespace internal

/// Largest range parallel_for runs inline *before the pool exists* rather
/// than waking the scheduler: constructing small structures (range trees,
/// oracles, tournament trees) must have no scheduler side effects — the
/// pool-gating contract regression-tested by test_poolgate. Once the pool
/// is up, the usual grain heuristic decides.
inline constexpr int64_t kPoolGateGrain = 2048;

/// Applies f(i) for every i in [lo, hi) in parallel. `grain` is the largest
/// block executed sequentially between scheduler interactions; 0 picks a
/// default (~8 blocks per worker, capped at 4096 iterations). If f throws,
/// the first exception is rethrown here after every outstanding block is
/// joined; iterations past the throwing one may or may not have run.
template <typename F>
void parallel_for(int64_t lo, int64_t hi, const F& f, int64_t grain = 0) {
  if (hi <= lo) return;
  int64_t n = hi - lo;
  // Checked before num_workers(): neither sequential mode nor small
  // pre-pool work may spin up the worker pool as a side effect.
  if (sequential_mode() ||
      (n <= kPoolGateGrain && !internal::pool_started())) {
    for (int64_t i = lo; i < hi; i++) f(i);
    return;
  }
  int p = num_workers();
  if (grain <= 0) {
    int64_t pieces = static_cast<int64_t>(p) * 8;
    grain = (n + pieces - 1) / pieces;
    if (grain < 1) grain = 1;
    if (grain > internal::kDefaultMaxGrain) grain = internal::kDefaultMaxGrain;
  }
  if (n <= grain || p == 1) {
    for (int64_t i = lo; i < hi; i++) f(i);
    return;
  }
  std::atomic<bool> cancelled{false};
  internal::parallel_for_rec(lo, hi, grain, f, cancelled);
}

}  // namespace parlis
