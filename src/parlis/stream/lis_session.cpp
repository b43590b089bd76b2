#include "parlis/stream/lis_session.hpp"

#include <algorithm>
#include <cassert>

#include "parlis/api/solver.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/failpoint.hpp"
#include "parlis/util/resident.hpp"

namespace parlis {

namespace {

// One patience-sorting step on sorted pile tops: v replaces the first top
// >= v (kStrict) / > v (kNonDecreasing), or starts a new pile. Returns the
// pile's index, v's rank - 1. `replaced`, when given, receives the top v
// replaced; it is left alone when v starts a pile.
size_t tails_step(std::vector<int64_t>& tops, int64_t v, TiesPolicy ties,
                  int64_t* replaced = nullptr) {
  auto it = ties == TiesPolicy::kStrict
                ? std::lower_bound(tops.begin(), tops.end(), v)
                : std::upper_bound(tops.begin(), tops.end(), v);
  const size_t s = static_cast<size_t>(it - tops.begin());
  if (it == tops.end()) {
    tops.push_back(v);
  } else {
    if (replaced != nullptr) *replaced = *it;
    *it = v;
  }
  return s;
}

}  // namespace

LisSession::LisSession(Solver& solver)
    : solver_(&solver),
      ties_(solver.options().ties),
      mode_(solver.options().window),
      capacity_(solver.options().window_capacity) {
  if (mode_ != WindowMode::kGrowOnly && capacity_ < 1) {
    throw Error(ErrorCode::kInvalidArgument,
                "LisSession: sliding window modes need "
                "Options::window_capacity >= 1");
  }
}

// ------------------------------------------------------------ window upkeep

void LisSession::compact_if_needed() {
  // Amortized O(1): a shift of m survivors is paid for by the >= m pops
  // that preceded it.
  if (head_ >= 1024 && head_ * 2 >= static_cast<int64_t>(buf_.size())) {
    buf_.erase(buf_.begin(), buf_.begin() + head_);
    head_ = 0;
  }
}

void LisSession::expire_for_append() {
  if (mode_ == WindowMode::kGrowOnly || size() < capacity_) return;
  // Exact: retire exactly enough for the new element (window stays at
  // capacity). Amortized: retire half the window, so the next capacity/2
  // appends share the one replay this triggers; the size() term covers an
  // oversized window adopted through delta_resolve.
  int64_t drop = mode_ == WindowMode::kSlidingExact
                     ? size() - capacity_ + 1
                     : std::max(size() - capacity_ + 1, capacity_ / 2);
  head_ += std::min(drop, size());
  tails_dirty_ = true;
  fr_valid_ = false;
  compact_if_needed();
}

void LisSession::pop_front() {
  if (size() == 0) {
    throw Error(ErrorCode::kInvalidArgument,
                "LisSession::pop_front: session is empty");
  }
  head_++;
  tails_dirty_ = true;
  fr_valid_ = false;
  compact_if_needed();
}

void LisSession::ensure_tails() {
  if (!tails_dirty_) return;
  // Clear the flag only after the replay lands: if rebuild_window throws
  // (an allocation failure) the window stays marked dirty and the next use
  // replays again from buf_, which the failure never touched — torn
  // patience state can't be observed.
  rebuild_window();
  tails_dirty_ = false;
}

void LisSession::rebuild_window() {
  // Reset the pile tops and replay the survivors: O(m log k) for m
  // survivors.
  tails_.clear();
  for (int64_t v : window()) tails_step(tails_, v, ties_);
  stats_.window_rebuilds++;
}

// ------------------------------------------------------------------ append

int64_t LisSession::append(int64_t value) {
  // Guard admission, amortized: with a token or deadline configured, one
  // tick in 64 installs the exec-context scope and polls — a deadline poll
  // reads the steady clock, which a sub-microsecond tick cannot afford
  // every time. Trip latency is thus bounded at 64 ticks, and a throwing
  // poll does not advance the counter, so the first append (and any retry
  // after a trip) always fails fast on a pre-tripped token.
  const Options& opts = solver_->options();
  if ((opts.cancel.valid() || opts.deadline_ms > 0) && guard_tick_ == 0) {
    internal::CancelScope scope(opts.cancel, opts.deadline_ms);
    internal::poll_cancellation();
  }
  guard_tick_ = (guard_tick_ + 1) & 63;
  PARLIS_FAILPOINT("stream.append");
  expire_for_append();
  ensure_tails();
  buf_.push_back(value);
  try {
    tails_step(tails_, value, ties_);
  } catch (...) {
    // Un-admit: a failed append leaves the session as if it was never
    // called. The window is marked dirty and replays (from buf_, back to
    // its old contents) lazily.
    buf_.pop_back();
    tails_dirty_ = true;
    fr_valid_ = false;
    throw;
  }
  fr_valid_ = false;
  return static_cast<int64_t>(tails_.size());
}

int64_t LisSession::length() {
  ensure_tails();
  return static_cast<int64_t>(tails_.size());
}

// ------------------------------------------------------- frontiers / delta

const LisFrontiers& LisSession::frontiers() {
  ensure_tails();
  if (!fr_valid_) {
    solver_->solve_lis_frontiers(window(), cached_fr_);
    fr_valid_ = true;
  }
  assert(cached_fr_.k == static_cast<int32_t>(tails_.size()) &&
         "pile count must match the full solve");
  return cached_fr_;
}

int64_t LisSession::delta_resolve(std::span<const int64_t> new_values,
                                  int64_t prefix_keep, int64_t suffix_keep) {
  const int64_t n_new = static_cast<int64_t>(new_values.size());
  const int64_t n_old = size();
  if (prefix_keep < 0 || suffix_keep < 0 ||
      prefix_keep + suffix_keep > std::min(n_old, n_new)) {
    throw Error(ErrorCode::kInvalidArgument,
                "LisSession::delta_resolve: prefix_keep/suffix_keep out of "
                "range for the old and new windows");
  }
  const std::span<const int64_t> old_win = window();
  if (!std::equal(new_values.begin(), new_values.begin() + prefix_keep,
                  old_win.begin()) ||
      !std::equal(new_values.end() - suffix_keep, new_values.end(),
                  old_win.end() - suffix_keep)) {
    throw Error(ErrorCode::kInvalidArgument,
                "LisSession::delta_resolve: the kept prefix or suffix "
                "differs from the current window");
  }
  internal::CancelScope scope(solver_->options().cancel,
                              solver_->options().deadline_ms);
  internal::poll_cancellation();
  try {
    return delta_resolve_body(new_values, prefix_keep, suffix_keep);
  } catch (...) {
    // Coherence chokepoint: whatever buf_ holds (the old window during the
    // replay, the new one once adoption started) is the source of truth;
    // every derived structure is marked for lazy rebuild from it.
    tails_dirty_ = true;
    fr_valid_ = false;
    throw;
  }
}

int64_t LisSession::delta_resolve_body(std::span<const int64_t> new_values,
                                       int64_t prefix_keep,
                                       int64_t suffix_keep) {
  const int64_t n_new = static_cast<int64_t>(new_values.size());
  const int64_t n_old = size();
  ensure_tails();
  if (!fr_valid_) {
    // Nothing cached to delta against: adopt wholesale and solve once.
    buf_.assign(new_values.begin(), new_values.end());
    head_ = 0;
    tails_dirty_ = true;
    ensure_tails();
    frontiers();
    return static_cast<int64_t>(tails_.size());
  }
  std::span<const int64_t> old_win = window();
  const LisFrontiers& fr = cached_fr_;
  const int64_t p = prefix_keep;
  const int64_t shift = n_new - n_old;

  // Seed the pile tops after the untouched prefix straight from the cached
  // frontiers: pile tops only ever decrease, so pile r's top at time p is
  // the LAST frontier-r element with index < p (binary search); the first
  // rank with no element before p ends the seed (ranks first appear in
  // increasing order along any prefix).
  tails_.clear();
  for (int32_t r = 1; r <= fr.k; r++) {
    const int64_t* f = fr.frontier_flat.data() + fr.frontier_offset[r - 1];
    const int64_t* e = fr.frontier_flat.data() + fr.frontier_offset[r];
    const int64_t* it = std::lower_bound(f, e, p);
    if (it == f) break;
    tails_.push_back(old_win[*(it - 1)]);
  }
  tails_cached_ = tails_;

  new_rank_.resize(n_new);
  std::copy_n(fr.rank.begin(), p, new_rank_.begin());

  // ndiff counts slots where the live tails and the cached-solve replay
  // tails disagree (value mismatch, or present in only one). When it hits
  // zero inside the common suffix the two patience processes have converged
  // and the cached ranks carry over verbatim.
  int64_t ndiff = 0;
  auto slot_diff = [&](size_t s, bool in_l, int64_t live) {
    bool in_c = s < tails_cached_.size();
    return in_l != in_c || (in_l && live != tails_cached_[s]);
  };
  auto live_push = [&](int64_t v) -> int32_t {
    const size_t len = tails_.size();
    int64_t old = v;
    const size_t s = tails_step(tails_, v, ties_, &old);
    ndiff += static_cast<int64_t>(slot_diff(s, true, v)) -
             static_cast<int64_t>(slot_diff(s, s < len, old));
    return static_cast<int32_t>(s) + 1;
  };
  auto cached_push = [&](int64_t i_old) {
    // Replaying the cached solve needs no search: its rank is recorded.
    size_t s = static_cast<size_t>(fr.rank[i_old]) - 1;
    assert(s <= tails_cached_.size());
    const bool in_l = s < tails_.size();
    const int64_t live = in_l ? tails_[s] : 0;
    ndiff -= slot_diff(s, in_l, live);
    if (s == tails_cached_.size()) {
      tails_cached_.push_back(old_win[i_old]);
    } else {
      tails_cached_[s] = old_win[i_old];
    }
    ndiff += slot_diff(s, in_l, live);
  };

  // Edited middle: the new one through the live process, the old one
  // through the cached replay (both needed so the suffix comparison below
  // compares states at the same logical time).
  for (int64_t i = p; i < n_new - suffix_keep; i++) {
    if (((i - p) & 4095) == 0) internal::poll_cancellation();
    new_rank_[i] = live_push(new_values[i]);
  }
  for (int64_t i = p; i < n_old - suffix_keep; i++) {
    cached_push(i);
  }

  // Common suffix: identical remaining input, so the first moment the two
  // tail states agree, they stay equal forever (patience is deterministic
  // in (state, input)) — stop replaying live and copy the cached ranks.
  int64_t i_new = n_new - suffix_keep;
  while (i_new < n_new && ndiff != 0) {
    new_rank_[i_new] = live_push(new_values[i_new]);
    cached_push(i_new - shift);
    i_new++;
  }
  stats_.delta_replayed += (n_new - suffix_keep - p) + (i_new - (n_new - suffix_keep));
  if (ndiff == 0) {
    for (int64_t i = i_new; i < n_new; i++) {
      new_rank_[i] = fr.rank[i - shift];
      cached_push(i - shift);  // finish the cheap replay for the final tails
    }
    tails_.swap(tails_cached_);  // converged: the live process would match
  }

  // Adopt: window contents, cached solve. tails_ already holds the new
  // window's pile tops.
  buf_.assign(new_values.begin(), new_values.end());
  head_ = 0;
  cached_fr_.rank.swap(new_rank_);
  cached_fr_.k = static_cast<int32_t>(tails_.size());
  internal::lay_out_frontiers(cached_fr_);
  fr_valid_ = true;
  return static_cast<int64_t>(tails_.size());
}

size_t LisSession::resident_bytes() const {
  return vec_bytes(buf_) + vec_bytes(tails_) + vec_bytes(tails_cached_) +
         vec_bytes(new_rank_) + cached_fr_.resident_bytes();
}

}  // namespace parlis
