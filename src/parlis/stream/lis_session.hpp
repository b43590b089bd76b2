// parlis::LisSession — incremental LIS over a live series.
//
// Every batch entry point re-solves from scratch; a session instead keeps
// the patience-sorting sufficient statistic alive between ticks: the sorted
// vector of pile tops (tails_[r] = the smallest value that ends an
// increasing subsequence of length r + 1). An appended value replaces the
// first top >= v (strict ties) / > v (non-decreasing), or starts a new
// pile — one binary search and one store, for every int64 value:
//
//   append(v)  ->  new LIS length        O(log k), k = LIS length
//
// per tick, against O(n) for a from-scratch re-solve. This is the paper's
// Seq-BS baseline run online; the vEB trees serve Alg. 2's range queries,
// which a session never asks.
//
// Window modes (Options::window / window_capacity): kGrowOnly appends
// forever; the sliding modes retire old elements, either exactly
// (kSlidingExact: window == trailing capacity elements, lazily-coalesced
// replay on expiry, O(W log k) per tick at capacity) or amortized
// (kSlidingAmortized: half-window batch expiry, window size oscillates in
// (capacity/2, capacity], appends stay amortized O(log k) with the worst
// case bounded by one half-window replay). pop_front() retires the oldest
// element explicitly in any mode.
//
// delta_resolve(new_values, prefix_keep, suffix_keep): re-solve after an
// edit that left the first prefix_keep and last suffix_keep elements
// unchanged. The cached frontiers of the previous solve seed the pile tops
// of the untouched prefix directly (no prefix re-scan), the edited middle
// is replayed, and a twin replay of the cached solve detects when the two
// states converge in the common suffix — from that point the cached
// per-element ranks are carried over verbatim instead of re-derived. The
// search work is O(k log n + (middle + convergence distance) log k); the
// adoption copies and re-lays out the whole new window, so the call is
// O(n) plus that replay.
//
// Cache interplay: appends touch no Solver state. frontiers() (and
// delta_resolve's first solve) go through the public solve_lis_frontiers,
// which under kStrict solves the raw values and leaves the Solver's
// weighted value cache keyed; under kNonDecreasing it overwrites the rank
// space with a rank image, which no weighted solve of that Solver caches
// anyway. Either way a warm solve_wlis after any session op is exact.
//
// Thread-safety: a session parallelizes nothing itself; like its Solver,
// one thread at a time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parlis/api/options.hpp"
#include "parlis/lis/patience.hpp"

namespace parlis {

class Solver;

class LisSession {
 public:
  /// Binds to `solver` (which must outlive the session) and adopts its
  /// Options — ties policy, window mode/capacity, cancellation token and
  /// deadline. Prefer Solver::make_session(). Throws
  /// Error{kInvalidArgument} when a sliding window mode is configured with
  /// window_capacity < 1.
  explicit LisSession(Solver& solver);

  LisSession(LisSession&&) = default;
  LisSession& operator=(LisSession&&) = default;
  LisSession(const LisSession&) = delete;
  LisSession& operator=(const LisSession&) = delete;

  /// Appends one element (retiring old ones first per the window mode) and
  /// returns the LIS length of the live window. O(log k), amortized over
  /// the sliding modes' replays. Allocation-free once the window buffer
  /// and the pile tops have reached their peak size.
  /// Honors the bound Solver's Options::cancel / deadline_ms, polling on
  /// the first tick and then once every 64 (deadline polls read the clock;
  /// a trip is detected within 64 ticks and a pre-tripped token fails
  /// fast). On any throw (cancellation, allocation failure, injected
  /// fault) the append is un-admitted — the session behaves as if the call
  /// never happened.
  int64_t append(int64_t value);

  /// Retires the oldest live element. Lazy: consecutive pops coalesce into
  /// one replay of the survivors at the next query/append. Throws
  /// Error{kInvalidArgument} when the session is empty.
  void pop_front();

  /// LIS length of the live window.
  int64_t length();

  /// Number of live elements.
  int64_t size() const { return static_cast<int64_t>(buf_.size()) - head_; }

  /// The live window, oldest first. Invalidated by any mutating call.
  std::span<const int64_t> window() const {
    return std::span<const int64_t>(buf_).subspan(static_cast<size_t>(head_));
  }

  /// Full per-element LIS ranks + frontiers of the live window, solved
  /// through the bound Solver (its patience plan, O(n log k) — this is the
  /// on-demand materialization, not a per-tick structure) and cached; the
  /// cache also primes delta_resolve. Valid until the next mutating call.
  const LisFrontiers& frontiers();

  /// Replaces the window with `new_values`, of which the first prefix_keep
  /// and the last suffix_keep elements are unchanged from the current
  /// window. Reuses the cached frontiers for the prefix and the convergence
  /// trick for the suffix; falls back to a plain re-solve when no solve is
  /// cached. Returns the new LIS length, leaves frontiers() primed.
  /// Out-of-range prefix_keep/suffix_keep, and kept regions that differ
  /// from the current window, throw Error{kInvalidArgument} before any
  /// state changes; honors the Solver's cancellation/deadline. On
  /// any throw the derived state is marked dirty and lazily rebuilt from
  /// the window buffer, which holds either the old or the new values.
  int64_t delta_resolve(std::span<const int64_t> new_values,
                        int64_t prefix_keep, int64_t suffix_keep);

  TiesPolicy ties() const { return ties_; }
  WindowMode mode() const { return mode_; }

  /// Introspection: what the amortized machinery is actually paying.
  struct Stats {
    int64_t window_rebuilds = 0;  // expiry/pop replays of the survivors
    int64_t delta_replayed = 0;   // elements replayed across delta_resolves
  };
  const Stats& stats() const { return stats_; }

  /// Measured heap bytes this session holds: the capacities of its
  /// vectors and of the cached frontiers. The serving layer's per-tenant
  /// eviction accounting; never an estimate. Excludes the bound Solver
  /// (accounted separately by its owner).
  size_t resident_bytes() const;

 private:
  int64_t delta_resolve_body(std::span<const int64_t> new_values,
                             int64_t prefix_keep, int64_t suffix_keep);
  void expire_for_append();
  void compact_if_needed();
  void ensure_tails();    // replay after lazy pops
  void rebuild_window();  // reset + replay the live window

  Solver* solver_;
  TiesPolicy ties_;
  WindowMode mode_;
  int64_t capacity_;

  // Live window: buf_[head_..); compacted when the dead prefix dominates.
  std::vector<int64_t> buf_;
  int64_t head_ = 0;

  // Patience pile tops of the live window, sorted; tails_.size() is the
  // LIS length.
  std::vector<int64_t> tails_;
  bool tails_dirty_ = false;  // pops pending: replay before next use

  // Amortized guard counter: append polls cancellation/deadline on tick 0
  // of every 64 (see append for the fail-fast invariant).
  uint32_t guard_tick_ = 0;

  // Cached solve for delta_resolve / frontiers().
  LisFrontiers cached_fr_;
  bool fr_valid_ = false;

  // delta_resolve scratch: the twin replay's tails and the new ranks.
  std::vector<int64_t> tails_cached_;
  std::vector<int32_t> new_rank_;

  Stats stats_;
};

}  // namespace parlis
