// parlis::LisSession — incremental LIS over a live series.
//
// Every batch entry point re-solves from scratch; a session instead keeps
// the patience-sorting sufficient statistic alive between ticks. Patience
// sorting needs exactly one online primitive per appended element: "the
// smallest pile top >= v" (strict ties) or "> v" (non-decreasing) — the
// same online-successor query the bit-packed vEB bottom was built for. The
// session therefore maintains the multiset of pile tops in a VebTree over a
// slack rank space and answers
//
//   append(v)  ->  new LIS length        amortized O(log log u)
//
// per tick, against O(n) for a from-scratch re-solve.
//
// Rank spaces: the vEB needs small dense integers, but a stream's values
// arrive online. Two regimes:
//
//   * Dense domain (the common case: prices in cents, sensor integers,
//     anything whose observed span stays under 2^27): rank(v) = v - base,
//     the identity. Identity labels can never be exhausted by insertions
//     between neighbours, so this path NEVER re-ranks — the universe just
//     doubles (an O(k) top re-key, k = pile count) the O(log span) times
//     the observed range outgrows it. Every session starts here.
//   * Slack ranks (entered permanently the first time the observed span
//     exceeds the dense limit): values map through a dictionary that
//     leaves gaps — a novel value takes the midpoint rank between its
//     ordered neighbours, and only when a gap is exhausted does the
//     session rebuild the dictionary over the current window with fresh
//     slack (universe = next_pow2(max(64, 4 * distinct)), evenly strided).
//     Each rebuild is O(W log W); locally clustered insertion orders (a
//     random walk wandering inside one rank gap) can force frequent
//     rebuilds — stats() exposes the count — but such streams are exactly
//     the dense-domain shapes the identity path keeps.
//
// Window modes (Options::window / window_capacity): kGrowOnly appends
// forever; the sliding modes retire old elements, either exactly
// (kSlidingExact: window == trailing capacity elements, lazily-coalesced
// replay on expiry) or amortized (kSlidingAmortized: half-window batch
// expiry, window size oscillates in (capacity/2, capacity], appends stay
// amortized O(log log u) with the worst case bounded by one half-window
// rebuild). pop_front() retires the oldest element explicitly in any mode.
//
// delta_resolve(new_values, prefix_keep, suffix_keep): re-solve after an
// edit that left the first prefix_keep and last suffix_keep elements
// unchanged. The cached frontiers of the previous solve seed the patience
// state of the untouched prefix directly (no prefix re-scan), the edited
// middle is replayed, and a twin replay of the cached solve detects when
// the two states converge in the common suffix — from that point the
// cached per-element ranks are carried over verbatim instead of re-derived.
// Cost: O(prefix-seed + middle + convergence distance), not O(n).
//
// Cache interplay: a session deliberately does NOT touch its Solver's
// WlisWorkspace — appends never invalidate the weighted value-sequence
// cache (its invariant, "each built level describes cached_a", survives any
// interleaving of session ops and warm solve_wlis calls). The only solver
// state a session uses are the LIS-side
// buffers behind the public solve_lis_frontiers, plus the rolling window
// content hash it maintains for the wlis_into fast-guard overload.
//
// Thread-safety: a session parallelizes nothing itself; like its Solver,
// one thread at a time.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "parlis/api/options.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/util/content_hash.hpp"
#include "parlis/util/resident.hpp"
#include "parlis/util/tracking_allocator.hpp"
#include "parlis/veb/veb_tree.hpp"

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
  // Destroy-then-rebuild rather than memberwise: the node containers hold
  // allocator copies pointing at the target's old alloc_stats_ sink, which
  // memberwise assignment would free before the containers release their
  // nodes through it.
  LisSession& operator=(LisSession&& o) {
    if (this != &o) {
      this->~LisSession();
      new (this) LisSession(std::move(o));
    }
    return *this;
  }
  LisSession(const LisSession&) = delete;
  LisSession& operator=(const LisSession&) = delete;

  /// Appends one element (retiring old ones first per the window mode) and
  /// returns the LIS length of the live window. Amortized O(log log u).
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

  /// Rolling content_hash64(window()) — maintained at O(1) per append; pass
  /// it to the hashed wlis_into overload to make warm weighted solves over
  /// the window skip the O(n) guard.
  uint64_t content_hash();

  /// Full per-element LIS ranks + frontiers of the live window, solved
  /// through the bound Solver (O(n polylog) — this is the on-demand
  /// materialization, not a per-tick structure) and cached; the cache also
  /// primes delta_resolve. Valid until the next mutating call.
  const LisFrontiers& frontiers();

  /// Replaces the window with `new_values`, of which the first prefix_keep
  /// and the last suffix_keep elements are unchanged from the current
  /// window (debug-asserted). Reuses the cached frontiers for the prefix
  /// and the convergence trick for the suffix; falls back to a plain
  /// re-solve when no solve is cached. Returns the new LIS length, leaves
  /// frontiers() primed. Out-of-range prefix_keep/suffix_keep throw
  /// Error{kInvalidArgument}; honors the Solver's cancellation/deadline. On
  /// any throw the derived state is marked dirty and lazily rebuilt from
  /// the window buffer, which holds either the old or the new values.
  int64_t delta_resolve(std::span<const int64_t> new_values,
                        int64_t prefix_keep, int64_t suffix_keep);

  TiesPolicy ties() const { return ties_; }
  WindowMode mode() const { return mode_; }

  /// Introspection: what the amortized machinery is actually paying.
  struct Stats {
    int64_t reranks = 0;          // slack-rank dictionary rebuilds
    int64_t window_rebuilds = 0;  // expiry/pop replays of the survivors
    int64_t delta_replayed = 0;   // elements replayed across delta_resolves
  };
  const Stats& stats() const { return stats_; }

  /// Measured heap bytes this session holds: vector capacities, the pile
  /// vEB's reserved pool chunks, and the node containers' real allocator
  /// traffic (routed through TrackingAllocator into the session's own
  /// AllocStats sink — nodes and bucket arrays alike). The serving layer's
  /// per-tenant eviction accounting; never an estimate. Excludes the bound
  /// Solver (accounted separately by its owner).
  size_t resident_bytes() const;

 private:
  struct TopEntry {
    int64_t value;  // the value whose rank keys this entry
    int32_t cnt;    // piles currently topped by it (>1 only when nondec)
  };

  // Node-container aliases routing through the session's AllocStats sink,
  // so resident_bytes() reads measured allocator traffic for the maps/set
  // (per-node footprints and bucket arrays are implementation-defined —
  // only the allocator sees the real figures).
  template <typename K, typename V>
  using TrackedMap =
      std::unordered_map<K, V, std::hash<K>, std::equal_to<K>,
                         TrackingAllocator<std::pair<const K, V>>>;
  using TrackedSet =
      std::set<int64_t, std::less<int64_t>, TrackingAllocator<int64_t>>;

  int64_t delta_resolve_body(std::span<const int64_t> new_values,
                             int64_t prefix_keep, int64_t suffix_keep);
  void expire_for_append();
  void compact_if_needed();
  void ensure_tops();         // replay after lazy pops
  void rebuild_window();      // reset + replay the live window
  void patience_push(int64_t v);
  void top_add(uint64_t r, int64_t v);
  uint64_t rank_of(int64_t v);
  uint64_t dense_admit(int64_t v);
  uint64_t assign_rank(int64_t v);
  void rerank(int64_t extra);
  void rekey_tops();
  void rebuild_frontier_arrays();

  Solver* solver_;
  TiesPolicy ties_;
  WindowMode mode_;
  int64_t capacity_;

  // Allocator sink for the node containers below. unique_ptr: the address
  // must survive moves (every container holds allocator copies pointing at
  // it). Declared before the containers so it outlives them on
  // destruction.
  std::unique_ptr<AllocStats> alloc_stats_ =
      std::make_unique<AllocStats>();

  // Live window: buf_[head_..); compacted when the dead prefix dominates.
  std::vector<int64_t> buf_;
  int64_t head_ = 0;
  uint64_t hash_ = kContentHashSeed;

  // Dense-domain identity ranks: while dense_ holds, rank(v) = v -
  // dense_base_ and the dictionary below is untouched. dense_min_/max_
  // track the values observed so far (all-time, not just the window — a
  // superset keeps expired values addressable until the next regrow).
  bool dense_ = true;
  bool dense_seen_ = false;  // any value observed yet?
  int64_t dense_min_ = 0, dense_max_ = 0, dense_base_ = 0;

  // Slack rank space (after the dense limit is exceeded). val_rank_ is the
  // O(1) hot-path map; dict_ orders the same keys for neighbour lookups on
  // novel values. Both describe every value ever seen since the last
  // rerank (a superset of the window — stale entries are harmless and
  // vanish at the next rerank).
  TrackedMap<int64_t, uint64_t> val_rank_{
      TrackingAllocator<std::pair<const int64_t, uint64_t>>(
          alloc_stats_.get())};
  TrackedSet dict_{TrackingAllocator<int64_t>(alloc_stats_.get())};
  uint64_t universe_ = 64;

  // Patience pile tops: the vEB holds the rank of every distinct top value,
  // top_at_ the value + pile multiplicity behind each rank.
  std::optional<VebTree> tops_;
  TrackedMap<uint64_t, TopEntry> top_at_{
      TrackingAllocator<std::pair<const uint64_t, TopEntry>>(
          alloc_stats_.get())};
  int64_t piles_ = 0;
  bool tops_dirty_ = false;  // pops pending: replay before next use

  // Amortized guard counter: append polls cancellation/deadline on tick 0
  // of every 64 (see append for the fail-fast invariant).
  uint32_t guard_tick_ = 0;

  // Cached solve for delta_resolve / frontiers().
  LisFrontiers cached_fr_;
  bool fr_valid_ = false;

  // delta_resolve scratch.
  std::vector<int64_t> tails_, tails_cached_, scratch_vals_, scratch_offsets_;
  std::vector<TopEntry> scratch_tops_;
  std::vector<int32_t> new_rank_;

  Stats stats_;
};

}  // namespace parlis
