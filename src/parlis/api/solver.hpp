// parlis::Solver — the session-style public API.
//
// The free functions (lis_ranks, wlis, swgs_*) are one-shot: every call
// rebuilds the tournament tree, reallocates frontier buffers and result
// vectors, and re-carves the range-structure arenas. A Solver instead owns
// all of its scratch — patience tails, rank-space arrays, the weighted
// pass's Fenwick tree, per-worker slots for batched serving — and writes
// results into caller-reusable output structs, so in the amortized-serving
// steady state (many queries through one session) repeated same-size
// solves allocate nothing.
//
// Key types: every solve_* entry point has a typed overload — any `Key`
// with a strict-weak-order comparator (doubles, timestamps, pairs/tuples
// under std::less, custom comparators) is first reduced to its dense rank
// image by the shared rank-space pass (util/rank_space.hpp) and then runs
// the one int64 solver core; no backend is instantiated per key type. The
// Options::ties policy picks what "increasing" means for equal keys
// (kStrict vs kNonDecreasing) and is honored by the int64 overloads too.
// The generic paths keep the zero-allocation warm steady state: the
// compression workspace is part of the session scratch.
//
// Thread-safety: one Solver per thread. The solve_* methods may use the
// shared worker pool internally (the rank-space pass, result copies), but
// two threads must not call into the same Solver concurrently. solve_many
// is the batched entry point: it fans independent queries out across the
// pool itself — small queries are packed one-per-task and solved
// sequentially in place (per-worker workspaces, no nested fork-join), large
// queries run one at a time on the caller's context — which is the serving
// shape for high query traffic.
//
// Buffer-reuse semantics: output structs (LisResult, WlisResult, ...) are
// plain vectors-of-results; pass the same instance back in and its capacity
// is reused. Results are valid until the output struct is reused; the
// Solver keeps no pointers into them.
//
// Failure semantics: invalid arguments (span-size mismatches, undersized
// output spans, n of 2^31 or more, weighted dp sums past INT64_MAX) throw
// parlis::Error{kInvalidArgument} in every build mode — never UB.
// Options.cancel / Options.deadline_ms are polled every 4096 elements by
// the patience kernel and the weighted pass (and at frontier-round
// boundaries by the one-shot rounds) and unwind as Error{kCancelled} /
// Error{kDeadlineExceeded}; Options.memory_budget_bytes degrades a
// too-large weighted solve to the Seq-AVL fallback or throws
// Error{kBudgetExceeded}.
// Any failure unwinds through the workspace cache-invalidation chokepoints,
// so a post-failure solve on the same Solver is bit-identical to a cold one.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "parlis/api/options.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/content_hash.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/wlis/wlis.hpp"
#include "parlis/wlis/wlis_sweep.hpp"
#include "parlis/wlis/wlis_workspace.hpp"

namespace parlis {

/// One independent query for Solver::solve_many. `w` empty means unweighted
/// LIS; otherwise |w| == |a| and the query is weighted LIS. The optional
/// output spans receive per-element results when non-empty (sized >= |a|);
/// summary results always land in the QueryResult.
struct Query {
  std::span<const int64_t> a;
  std::span<const int64_t> w{};
  std::span<int32_t> rank_out{};  // unweighted: rank[i] = LIS ending at i
  std::span<int64_t> dp_out{};    // weighted: dp[i] per Eq. (2)
};

struct QueryResult {
  int32_t k = 0;     // LIS length (rounds)
  int64_t best = 0;  // weighted: max dp; unweighted: k
};

class LisSession;  // stream/lis_session.hpp

class Solver {
 public:
  explicit Solver(const Options& opts = {});
  ~Solver();
  Solver(Solver&&) noexcept;
  Solver& operator=(Solver&&) noexcept;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  const Options& options() const { return opts_; }

  /// Re-arm cancellation between solves without rebuilding the solver:
  /// workspaces are keyed to the structural options, so swapping only the
  /// token / deadline keeps them warm (the natural shape for a per-request
  /// token over a long-lived solver). A default-constructed token disables
  /// cancellation; deadline 0 disables the deadline. Not safe concurrently
  /// with a running solve or a bound session's append.
  void set_cancel(CancelToken token) { opts_.cancel = std::move(token); }
  void set_deadline_ms(int64_t deadline_ms) { opts_.deadline_ms = deadline_ms; }

  /// Re-arm the memory budget between solves (same contract as set_cancel:
  /// workspaces stay warm, not safe concurrently with a running solve).
  /// The serving layer points this at its remaining budget headroom before
  /// each tenant operation, so budget_plan's admission decision — degrade
  /// to the sequential fallback or throw Error{kBudgetExceeded} before
  /// allocating — governs tenant growth too. 0 means unlimited.
  void set_memory_budget_bytes(uint64_t bytes) {
    opts_.memory_budget_bytes = bytes;
  }

  /// Measured heap bytes this solver currently holds across every
  /// workspace it owns (the caller-thread context, the solve_many
  /// per-runner slots, and the batch scratch): vector capacities plus any
  /// range structure's reserved arena chunks. The serving layer's
  /// per-tenant eviction accounting; never an estimate.
  size_t resident_bytes() const;

  /// Unweighted LIS ranks (dp values) of `a` into `out`, under
  /// options().ties. Every LIS entry point solves by patience sorting on
  /// the calling thread (lis/lis.hpp, internal::patience_ranks: register
  /// tiers while k <= 128, then the memory loop). On the sweep in
  /// EXPERIMENTS.md ("Register tiers") it beat Alg. 1's rounds on a
  /// 4-worker pool at every k, so the Solver no longer runs them; the
  /// one-shot lis_ranks / lis_frontiers still do.
  void solve_lis(std::span<const int64_t> a, LisResult& out);

  /// Typed overload: compresses `a` to rank space under options().ties and
  /// `less` (a strict weak ordering), then runs the shared int64 kernel.
  /// Works for any ordered key type — doubles, pairs, tuples, custom
  /// comparators — with zero steady-state allocations when warm.
  template <typename Key, typename Less = std::less<Key>>
  void solve_lis(std::span<const Key> a, LisResult& out, Less less = Less{}) {
    solve_keys(a, out, less, "solve_lis");
  }

  /// Custom-order form over raw int64 values (no rank reduction):
  /// "increasing" means strictly increasing under `less` (e.g. std::greater
  /// for longest decreasing runs). `inf`, the sentinel Alg. 1's tournament
  /// tree needs, is unused: patience sorting has none.
  template <typename Less>
  void solve_lis(std::span<const int64_t> a, LisResult& out, int64_t inf,
                 Less less) {
    (void)inf;
    EntryGuard guard(*this, a.size());
    run_lis(static_cast<int64_t>(a.size()), 0, "solve_lis", main_ctx_->lis,
            out, [a] { return a; }, less);
  }

  /// Ranks plus the per-round frontiers (what WLIS and the reconstruction
  /// consume), under options().ties.
  void solve_lis_frontiers(std::span<const int64_t> a, LisFrontiers& out);

  /// Typed overload of solve_lis_frontiers: the frontier indices refer to
  /// positions of `a`, so reconstruction downstream is key-type agnostic.
  template <typename Key, typename Less = std::less<Key>>
  void solve_lis_frontiers(std::span<const Key> a, LisFrontiers& out,
                           Less less = Less{}) {
    solve_keys(a, out, less, "solve_lis_frontiers");
  }

  /// LIS length only.
  int64_t lis_length(std::span<const int64_t> a);

  /// Typed overload of lis_length.
  template <typename Key, typename Less = std::less<Key>>
  int64_t lis_length(std::span<const Key> a, Less less = Less{}) {
    solve_lis<Key, Less>(a, main_ctx_->lis_res, less);
    return main_ctx_->lis_res.k;
  }

  /// Weighted LIS under options().ties: dp[i] = w[i] + max(0, max dp[j]
  /// over earlier j that `a[i]` may follow), best = max(0, max dp), k = the
  /// LIS length. Every weighted entry point (both overloads and
  /// solve_many's weighted queries) runs one plan: the rank space of `a`,
  /// then one sequential Fenwick pass over it (wlis/wlis_sweep.hpp), which
  /// does O(n log n) work against the O(n log^2 n) of Alg. 2's range-tree
  /// rounds (wlis(), wlis_into()) and beats them at every size measured.
  /// Raw int64 values under kStrict keep the rank space in the workspace's
  /// value cache, so re-weighting a hot series runs the pass alone. A dp
  /// sum past INT64_MAX throws Error{kInvalidArgument}.
  void solve_wlis(std::span<const int64_t> a, std::span<const int64_t> w,
                  WlisResult& out);

  /// Typed overload: the same plan on the rank image of `a` under `less`
  /// (one rank-space pass per call); weights stay int64.
  template <typename Key, typename Less = std::less<Key>>
  void solve_wlis(std::span<const Key> a, std::span<const int64_t> w,
                  WlisResult& out, Less less = Less{}) {
    if (a.size() != w.size()) {
      throw Error(ErrorCode::kInvalidArgument,
                  "solve_wlis: |w| must equal |a|");
    }
    EntryGuard guard(*this, a.size());
    run_wlis(a, w, "solve_wlis", *main_ctx_, out, less);
  }

  /// Batched serving: solves queries[i] into results[i] for every i.
  /// Queries are independent; |results| >= |queries|. Queries with
  /// |a| <= options().sequential_cutoff are packed across the worker pool
  /// (one task each, solved sequentially on per-worker workspaces); larger
  /// ones run one at a time on the caller's context (a weighted query's
  /// rank-space pass uses the pool; an unweighted one runs on one thread).
  /// Honors options().ties like every other entry point.
  void solve_many(std::span<const Query> queries,
                  std::span<QueryResult> results);

  /// Streaming session over this solver (stream/lis_session.hpp): per-tick
  /// append / sliding-window / delta re-solve, honoring options().ties and
  /// the options() window policy. The solver must outlive the session; the
  /// usual one-thread-at-a-time contract covers the pair.
  LisSession make_session();

 private:
  struct CtxSlot;

  // RAII: while `active`, par_do/parallel_for on this thread run inline
  // (restores the previous flag even if the body throws). Used both to run
  // small inputs without fork-join overhead and to keep solve_many's
  // packed queries sequential inside their task.
  class ThreadSequentialGuard {
   public:
    explicit ThreadSequentialGuard(bool active) : active_(active) {
      if (active_) prev_ = set_thread_sequential(true);
    }
    ~ThreadSequentialGuard() {
      if (active_) set_thread_sequential(prev_);
    }
    ThreadSequentialGuard(const ThreadSequentialGuard&) = delete;
    ThreadSequentialGuard& operator=(const ThreadSequentialGuard&) = delete;

   private:
    bool active_;
    bool prev_ = false;
  };

  bool below_cutoff(size_t n) const {
    return static_cast<int64_t>(n) <= opts_.sequential_cutoff;
  }

  // What every entry point installs first: the call's cancel/deadline
  // scope, one poll (a pre-tripped token fails fast), and thread-sequential
  // mode below sequential_cutoff.
  struct EntryGuard {
    EntryGuard(const Solver& s, size_t n)
        : scope(s.opts_.cancel, s.opts_.deadline_ms),
          seq((internal::poll_cancellation(), s.below_cutoff(n))) {}
    internal::CancelScope scope;
    ThreadSequentialGuard seq;
  };

  // Admission: n below 2^31 (ranks are int32; Error{kInvalidArgument}
  // otherwise), then Options::memory_budget_bytes. The byte figures are
  // documented scratch-size models (README "Failure semantics"),
  // deliberately generous; the fault tests pin each one >= the structures'
  // real accounting. budget_plan picks the full path when it fits, the
  // fallback when only that fits (fallback_bytes 0: there is none), and
  // throws Error{kBudgetExceeded} otherwise.
  enum class BudgetPlan { kFull, kFallback };
  BudgetPlan budget_plan(int64_t n, size_t full_bytes, size_t fallback_bytes,
                         const char* what) const;
  static size_t rank_space_bytes(int64_t n);
  static size_t lis_scratch_bytes(int64_t n);
  static size_t wlis_scratch_bytes(int64_t n);
  static size_t wlis_fallback_bytes(int64_t n);
  // One context's LIS scratch: the rank image of keys that need one (kept
  // apart from the WLIS workspace's rank space, whose contents back the
  // value-sequence cache) and the patience tails.
  struct LisScratch {
    RankSpace rs;
    RankSpaceScratch rs_scratch;
    std::vector<int64_t> tails;

    size_t resident_bytes() const {
      return rs.resident_bytes() + rs_scratch.resident_bytes() +
             vec_bytes(tails);
    }
  };

  // Everything one thread needs to solve any query shape end to end: the
  // caller's (main_ctx_), and one per solve_many runner.
  struct ThreadCtx {
    LisScratch lis;
    WlisWorkspace wlis;
    LisResult lis_res;
    WlisResult wlis_res;
  };

  // The WLIS budget fallback: Seq-AVL dp + patience length on `ctx`'s
  // scratch, over raw int64 values under the strict order.
  void wlis_fallback(std::span<const int64_t> a, std::span<const int64_t> w,
                     WlisResult& out, ThreadCtx& ctx);

  // Compresses `a` into s.rs under options().ties and `less`; returns the
  // rank image, whose values all lie below |a|.
  template <typename Key, typename Less>
  std::span<const int64_t> rank_image(std::span<const Key> a, LisScratch& s,
                                      Less less) {
    rank_space_into<Key, Less>(a, opts_.ties, s.rs, s.rs_scratch, less);
    return s.rs.rank;
  }

  // The one LIS plan, behind every LIS entry point and solve_many's
  // unweighted queries: admits n elements (with `rank_bytes` for a
  // rank-space pass), takes the sequence to solve from `prepare()` (the
  // input or its rank image), and solves it into `out`, a LisResult or
  // LisFrontiers, by patience sorting (see solve_lis).
  template <typename Out, typename Prepare, typename Less = std::less<int64_t>>
  void run_lis(int64_t n, size_t rank_bytes, const char* what, LisScratch& s,
               Out& out, const Prepare& prepare, Less less = Less{}) {
    budget_plan(n, rank_bytes + lis_scratch_bytes(n), 0, what);
    const std::span<const int64_t> a = prepare();
    if constexpr (std::is_same_v<Out, LisResult>) {
      seq_patience_ranks_into<int64_t, Less>(a, out, s.tails, less);
    } else {
      seq_patience_frontiers_into<int64_t, Less>(a, out, s.tails, less);
    }
  }

  // The one WLIS plan (see solve_wlis): admits n elements, gets the rank
  // space of `a`, and runs the Fenwick pass over it into `out`. Raw int64
  // values under the strict order compare as they are: their rank space
  // comes from ctx's value cache, and the Seq-AVL fallback, which needs no
  // rank space, is what a budget too small for the pass degrades to. Any
  // other key, order or ties policy solves on its rank image in ctx.lis.
  template <typename Key, typename Less>
  void run_wlis(std::span<const Key> a, std::span<const int64_t> w,
                const char* what, ThreadCtx& ctx, WlisResult& out,
                Less less) {
    const int64_t n = static_cast<int64_t>(a.size());
    constexpr bool kInt64 = std::is_same_v<Key, int64_t> &&
                            std::is_same_v<Less, std::less<int64_t>>;
    const bool raw = kInt64 && opts_.ties == TiesPolicy::kStrict;
    const BudgetPlan plan =
        budget_plan(n, rank_space_bytes(n) + wlis_scratch_bytes(n),
                    raw ? wlis_fallback_bytes(n) : 0, what);
    const RankSpace* rs = &ctx.lis.rs;
    if constexpr (kInt64) {
      if (plan == BudgetPlan::kFallback) {
        wlis_fallback(a, w, out, ctx);
        return;
      }
      if (raw) {
        ctx.wlis.cache_values(a, content_hash64(a));
        rs = &ctx.wlis.rank_space;
      }
    }
    if (!raw) rank_image(a, ctx.lis, less);
    wlis_sweep_into(rs->rank, rs->n_distinct, w, ctx.wlis.sweep, out);
  }

  // The typed entry points: the plan on the rank image of `a`.
  template <typename Out, typename Key, typename Less>
  void solve_keys(std::span<const Key> a, Out& out, Less less,
                  const char* what) {
    EntryGuard guard(*this, a.size());
    const int64_t n = static_cast<int64_t>(a.size());
    LisScratch& s = main_ctx_->lis;
    run_lis(n, rank_space_bytes(n), what, s, out,
            [&] { return rank_image(a, s, less); });
  }

  void solve_query(const Query& q, QueryResult& r, ThreadCtx& ctx);

  Options opts_;
  std::unique_ptr<ThreadCtx> main_ctx_; // caller-thread workspaces
  // solve_many per-runner contexts, claimed through a busy flag: a runner
  // probes from slot pool_thread_id() + 1 (so the external calling thread
  // prefers slot 0 and pool workers their own slot) to the first free one.
  // The flag matters because any externally-joining thread can help run
  // packed tasks and every such thread reports pool_thread_id() == -1.
  std::unique_ptr<CtxSlot[]> ctx_;
  size_t ctx_n_ = 0;
  std::vector<int64_t> small_idx_;  // batch partition scratch
};

}  // namespace parlis
