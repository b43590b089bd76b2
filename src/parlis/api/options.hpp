// Unified per-solver configuration: one struct carries every knob the
// Solver entry points consult, replacing the per-function parameter
// sprawl the one-shot API grew. The worker pool is sized globally
// (set_num_workers / PARLIS_NUM_THREADS, parallel/scheduler.hpp).
// What is not here is fixed: an input of at most kPoolGateGrain (2048)
// elements solves in thread-sequential mode, and solve_many packs queries
// of that size across the pool (api/solver.hpp).
#pragma once

#include <cstdint>

#include "parlis/util/cancel.hpp"      // CancelToken
#include "parlis/util/rank_space.hpp"  // TiesPolicy

namespace parlis {

/// Window policy for streaming sessions (Solver::make_session).
enum class WindowMode : uint8_t {
  /// No expiry: append() only, the window is the whole series.
  kGrowOnly,
  /// Exact fixed-capacity window: every append past capacity retires the
  /// oldest element first, so the reported LIS is always over exactly the
  /// trailing `window_capacity` elements. Expiry replays the surviving
  /// window, so an append at capacity costs O(W log k); consecutive
  /// pop_front calls coalesce into one replay.
  kSlidingExact,
  /// Amortized window: expiry retires half the window at once, so the live
  /// window size oscillates in (capacity/2, capacity]. Appends stay
  /// amortized O(log k) — capacity/2 ticks share each half-window replay,
  /// the worst case the checkpointed-rebuild scheme admits.
  kSlidingAmortized,
};

struct Options {
  /// What "increasing" means for equal keys (util/rank_space.hpp):
  /// kStrict (the paper's setting — duplicates never chain) or
  /// kNonDecreasing (equal keys may chain, via stable (key, index)
  /// ranking). Honored by every solve_* entry point, including solve_many
  /// and the int64 overloads.
  TiesPolicy ties = TiesPolicy::kStrict;

  /// Streaming-session window policy (Solver::make_session). kGrowOnly
  /// ignores window_capacity; the sliding modes require capacity >= 1.
  WindowMode window = WindowMode::kGrowOnly;
  int64_t window_capacity = 0;

  /// Cooperative cancellation. A default-constructed token never cancels;
  /// pass CancelToken::make() and call request_cancel() from any thread to
  /// stop in-flight work. Every Solver entry point (and LisSession
  /// append/delta_resolve) polls it at round boundaries and unwinds with
  /// Error{kCancelled}, leaving the session warm state coherent — the next
  /// solve on the same Solver behaves exactly like a cold one.
  CancelToken cancel;

  /// Per-call deadline in milliseconds, measured from entry into each
  /// solve_* / append / delta_resolve call; 0 means none. Exceeding it
  /// unwinds with Error{kDeadlineExceeded} at the next round boundary
  /// (cooperative — a single round is never interrupted mid-flight).
  int64_t deadline_ms = 0;

  /// Upper bound on solver scratch memory in bytes; 0 means unlimited.
  /// Checked against the documented size estimates of what a solve would
  /// allocate (pinned at or above the real accounting by the fault tests),
  /// before it allocates. Each path is priced per element plus 4 KiB once.
  /// An LIS solve runs patience sorting (~12 B/element, plus the rank space
  /// for keys other than int64 or under kNonDecreasing) and has nothing
  /// smaller. A weighted solve needs the rank space plus the Fenwick pass
  /// (~105 B/element); raw int64 values under std::less and kStrict
  /// degrade to the Seq-AVL sweep (~64 B/element, no rank space), and
  /// every other weighted solve has nothing smaller. When even the
  /// smallest path exceeds the budget the call throws
  /// Error{kBudgetExceeded}.
  uint64_t memory_budget_bytes = 0;
};

}  // namespace parlis
