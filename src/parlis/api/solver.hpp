// parlis::Solver — the session-style public API.
//
// The free functions (lis_ranks, wlis, swgs_*) are one-shot: every call
// rebuilds its scratch. A Solver instead owns all of the scratch its two
// plans touch — patience tails, one rank space, the weighted pass's
// Fenwick tree, one context per solve_many task — and writes
// results into caller-reusable output structs, so in the amortized-serving
// steady state (many queries through one session) repeated same-size
// solves allocate nothing.
//
// Two plans serve every entry point. LIS: patience sorting
// (lis/patience.hpp), on the calling thread for small or deep inputs and
// as speculative chunked patience on the pool for int64 keys under
// std::less from kSpeculateMinN elements up. Weighted LIS: the rank space,
// then the Fenwick pass (wlis/wlis_sweep.hpp), run as a wavefront of
// index-chunk x rank-block cells on the pool where that pays. The paper's
// Alg. 1 and Alg. 2 stay behind the free functions (lis_ranks,
// lis_frontiers, wlis, wlis_into; lis/lis.hpp and wlis/wlis.hpp, which
// this header does not include) as the reference the differential tests
// hold these plans to.
//
// Key types: every solve_* entry point has a typed overload — any `Key`
// with a strict-weak-order comparator (doubles, timestamps, pairs/tuples
// under std::less, custom comparators). int64 keys under kStrict solve as
// they are; every other key, and every key under kNonDecreasing, is first
// reduced to its dense rank image by rank_only_into (util/rank_space.hpp:
// a presence bitmap for int64 keys under std::less with a span of at most
// 128 n, on the pool from internal::kRankPoolMinN banded keys up, and the
// pooled rank-space sort otherwise), so no backend is instantiated per key type.
// The Options::ties policy picks what
// "increasing" means for equal keys (kStrict vs kNonDecreasing) and is
// honored by every entry point, custom orders included. The rank image lives in the session scratch, so the
// typed paths keep the zero-allocation warm steady state.
//
// Thread-safety: one Solver per thread. The solve_* methods may use the
// shared worker pool internally (speculative patience, the rank-space
// bitmap and sort, the weighted pass's wavefront), but two threads must
// not call into the same Solver concurrently. solve_many is the batched
// entry point: it fans independent queries out across the pool itself —
// queries of at most kPoolGateGrain elements are packed onto at most one
// task per worker, each solving the queries it takes sequentially on its
// own context (no nested fork-join), and larger ones run one at a time on
// the caller's context — which is the serving shape for high query
// traffic.
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
// the patience kernel (in every speculative chunk task too) and the
// weighted pass and unwind as Error{kCancelled} /
// Error{kDeadlineExceeded}; Options.memory_budget_bytes degrades a
// too-large weighted solve to the Seq-AVL fallback or throws
// Error{kBudgetExceeded}. A failure leaves the value cache keyed only to
// a rank space that is complete, so a post-failure solve on the same
// Solver is bit-identical to a cold one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "parlis/api/options.hpp"
#include "parlis/lis/patience.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/util/value_cache_key.hpp"
#include "parlis/wlis/wlis_sweep.hpp"

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

/// Throws Error{kInvalidArgument} unless `q` is well formed: `w` empty or
/// |w| == |a|, and each non-empty output span at least |a| long. The one
/// shape check every runner of a Query makes before any work: solve_query,
/// solve_many for its whole batch, serve::Engine at submit.
void validate_query(const Query& q);

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
  /// The serving layer points this at its remaining budget headroom when a
  /// lease takes the tenant, so budget_plan's admission decision — degrade
  /// to the sequential fallback or throw Error{kBudgetExceeded} before
  /// allocating — governs tenant growth too. 0 means unlimited.
  void set_memory_budget_bytes(uint64_t bytes) {
    opts_.memory_budget_bytes = bytes;
  }

  /// Measured heap bytes this solver currently holds across every context
  /// it owns (the caller-thread context, the solve_many task contexts,
  /// and the batch scratch): vector capacities. The serving layer's
  /// per-tenant eviction accounting; never an estimate.
  size_t resident_bytes() const;

  /// Unweighted LIS ranks (dp values) of `a` into `out`, under
  /// options().ties. Every LIS entry point solves by patience sorting
  /// (lis/patience.hpp, internal::patience_ranks: register tiers while
  /// k <= 128, then the memory loop). On the sweep in EXPERIMENTS.md
  /// ("Register tiers") it beat Alg. 1's rounds on a 4-worker pool at every
  /// k, so the Solver no longer runs them; the one-shot lis_ranks /
  /// lis_frontiers still do. int64 keys under std::less (raw values under
  /// kStrict and every rank image) of at least kSpeculateMinN elements
  /// take speculative chunked patience: index chunks run the tiers on the
  /// pool, and the caller replays only where a chunk's run and the true
  /// one disagree (internal::speculative_patience_ranks_into). It runs on
  /// the calling thread in sequential or thread-sequential mode, on a
  /// 1-worker pool, and on inputs whose tiers spill within the first 4096
  /// elements; the ranks are the same bits either way.
  void solve_lis(std::span<const int64_t> a, LisResult& out);

  /// Typed overload: "increasing" means increasing under `less` (a strict
  /// weak ordering; std::greater<int64_t> gives decreasing runs) and
  /// options().ties. int64 keys under kStrict solve as they are; any other
  /// key or policy solves on its rank image. Zero steady-state
  /// allocations when warm.
  template <typename Key, typename Less = std::less<Key>>
  void solve_lis(std::span<const Key> a, LisResult& out, Less less = Less{}) {
    EntryGuard guard(*this, a.size());
    run_lis(a, "solve_lis", *main_ctx_, out, less);
  }

  /// Ranks plus the per-round frontiers (what WLIS and the reconstruction
  /// consume), under options().ties.
  void solve_lis_frontiers(std::span<const int64_t> a, LisFrontiers& out);

  /// Typed overload of solve_lis_frontiers: the frontier indices refer to
  /// positions of `a`, so reconstruction downstream is key-type agnostic.
  template <typename Key, typename Less = std::less<Key>>
  void solve_lis_frontiers(std::span<const Key> a, LisFrontiers& out,
                           Less less = Less{}) {
    EntryGuard guard(*this, a.size());
    run_lis(a, "solve_lis_frontiers", *main_ctx_, out, less);
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
  /// then the Fenwick pass over it (wlis/wlis_sweep.hpp), which does
  /// O(n log n) work against the O(n log^2 n) of Alg. 2's range-tree rounds
  /// (wlis(), wlis_into()) and beats them at every size measured. The pass
  /// runs as one cell on the calling thread, or, from kWavefrontMinN
  /// elements up on a pool of 2 or more workers and outside thread-
  /// sequential mode, as a wavefront of index-chunk x rank-block cells on
  /// the pool when its sampled and then counted schedule prices below
  /// that; either way dp, best and k are the same bits.
  /// The ranks come from rank_only_into: int64 values whose span is at
  /// most 128 n take its bitmap, which runs on the pool from
  /// internal::kRankPoolMinN elements up when they are banded (outside
  /// sequential and thread-sequential mode, on 2 or more workers), and
  /// wider spans the pooled sort. Raw int64 values under kStrict keep their
  /// ranks in a value cache, so re-weighting a hot series runs the pass
  /// alone; any other solve needing a rank space overwrites it. Returns
  /// true when the cache supplied the ranks. A dp sum past INT64_MAX throws
  /// Error{kInvalidArgument}; when the wavefront runs, which element's sum
  /// its message names is unspecified.
  bool solve_wlis(std::span<const int64_t> a, std::span<const int64_t> w,
                  WlisResult& out);

  /// Typed overload: the same plan on the rank image of `a` under `less`
  /// (one ranking per call); weights stay int64. Only int64 keys
  /// under std::less use the value cache.
  template <typename Key, typename Less = std::less<Key>>
  bool solve_wlis(std::span<const Key> a, std::span<const int64_t> w,
                  WlisResult& out, Less less = Less{}) {
    if (a.size() != w.size()) {
      throw Error(ErrorCode::kInvalidArgument,
                  "solve_wlis: |w| must equal |a|");
    }
    EntryGuard guard(*this, a.size());
    return run_wlis(a, w, "solve_wlis", *main_ctx_, out, less);
  }

  /// One query on the caller's warm scratch, by the plan solve_many runs
  /// for it (solve_wlis's or solve_lis's): validates `q`, writes the
  /// summary into `r` and the per-element results into q's non-empty
  /// spans. Returns true when the value cache supplied the ranks.
  bool solve_query(const Query& q, QueryResult& r);

  /// Batched serving: solves queries[i] into results[i] for every i.
  /// Queries are independent; |results| >= |queries|; every query is
  /// validated (validate_query) before any runs. Queries with |a| <=
  /// kPoolGateGrain are packed onto min(their count, num_workers()) pool
  /// tasks, each solving the queries it takes sequentially on its own
  /// context; larger ones run first, one at a time on the caller's
  /// context, by solve_lis's or solve_wlis's plan
  /// (an unweighted one of kSpeculateMinN elements or more speculates on
  /// the pool, a weighted one ranks on it from internal::kRankPoolMinN
  /// elements up or, when its span is too wide for rank_only_into's
  /// bitmap, sorts on it). Honors options().ties like every other entry
  /// point.
  void solve_many(std::span<const Query> queries,
                  std::span<QueryResult> results);

  /// Streaming session over this solver (stream/lis_session.hpp): per-tick
  /// append / sliding-window / delta re-solve, honoring options().ties and
  /// the options() window policy. The solver must outlive the session; the
  /// usual one-thread-at-a-time contract covers the pair.
  LisSession make_session();

 private:
  // Inputs of at most kPoolGateGrain elements solve in thread-sequential
  // mode, and solve_many packs them onto its tasks.
  static bool is_small(size_t n) {
    return static_cast<int64_t>(n) <= kPoolGateGrain;
  }

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

  // What every entry point installs first: the call's cancel/deadline
  // scope, one poll (a pre-tripped token fails fast), and thread-sequential
  // mode for small inputs.
  struct EntryGuard {
    EntryGuard(const Solver& s, size_t n)
        : scope(s.opts_.cancel, s.opts_.deadline_ms),
          seq((internal::poll_cancellation(), is_small(n))) {}
    internal::CancelScope scope;
    ThreadSequentialGuard seq;
  };

  // Admission: n below 2^31 (ranks are int32; Error{kInvalidArgument}
  // otherwise), then Options::memory_budget_bytes. The byte figures are
  // documented scratch-size models (README "Failure semantics"),
  // deliberately generous; the fault tests pin each one >= the structures'
  // real accounting. The per-element terms below carry no constant:
  // budget_plan adds one fixed term to each path it prices. It picks the
  // full path when it fits, the fallback when only that fits
  // (fallback_bytes 0: there is none), and throws Error{kBudgetExceeded}
  // otherwise.
  enum class BudgetPlan { kFull, kFallback };
  BudgetPlan budget_plan(int64_t n, size_t full_bytes, size_t fallback_bytes,
                         const char* what) const;
  static size_t rank_space_bytes(int64_t n);
  static size_t lis_scratch_bytes(int64_t n);
  static size_t wlis_scratch_bytes(int64_t n);
  static size_t wlis_fallback_bytes(int64_t n);

  // Everything one thread needs to run either plan end to end: the
  // caller's (main_ctx_), and one per solve_many task.
  struct ThreadCtx {
    // One rank space: the rank image of the last solve that needed one,
    // or, while `values` is valid, the value cache's rank space of the raw
    // int64 values `values` holds. A rank image drops the key first. Both
    // are built by rank_only_into, and the plans read only `rank` and
    // `n_distinct`.
    RankSpace rs;
    RankSpaceScratch rs_scratch;
    ValueCacheKey values;
    std::vector<int64_t> tails;  // patience pile tops
    WlisSweepScratch sweep;      // the weighted pass's Fenwick tree
    LisResult lis_res;
    WlisResult wlis_res;

    size_t resident_bytes() const {
      return sizeof(ThreadCtx) + rs.resident_bytes() +
             rs_scratch.resident_bytes() + values.resident_bytes() +
             vec_bytes(tails) + sweep.resident_bytes() +
             lis_res.resident_bytes() + wlis_res.resident_bytes();
    }
  };

  // The WLIS budget fallback: Seq-AVL dp + patience length on `ctx`'s
  // scratch, over raw int64 values under the strict order.
  void wlis_fallback(std::span<const int64_t> a, std::span<const int64_t> w,
                     WlisResult& out, ThreadCtx& ctx);

  // Ranks `a` into ctx.rs under options().ties and `less`, dropping the
  // value cache's key first; returns the rank image, whose values all lie
  // below |a|. rank_only_into ranks int64 keys under std::less with a small
  // span through its bitmap (on the pool for large banded ones), and
  // everything else by the pooled sort.
  template <typename Key, typename Less>
  std::span<const int64_t> rank_image(std::span<const Key> a, ThreadCtx& ctx,
                                      Less less) {
    ctx.values.valid = false;
    rank_only_into<Key, Less>(a, opts_.ties, ctx.rs, ctx.rs_scratch, less);
    return ctx.rs.rank;
  }

  // Patience sorting of int64 keys under `less` into `out`, a LisResult or
  // LisFrontiers. Under std::less, inputs of kSpeculateMinN elements or
  // more take the pooled kernel, whose plan decides whether to speculate.
  template <typename Out, typename Less>
  static void patience(std::span<const int64_t> a, ThreadCtx& ctx, Out& out,
                       Less less) {
    if constexpr (std::is_same_v<Less, std::less<int64_t>>) {
      if (static_cast<int64_t>(a.size()) >= internal::kSpeculateMinN) {
        if constexpr (std::is_same_v<Out, LisResult>) {
          internal::speculative_patience_ranks_into(a, out, ctx.tails);
        } else {
          internal::speculative_patience_frontiers_into(a, out, ctx.tails);
        }
        return;
      }
    }
    if constexpr (std::is_same_v<Out, LisResult>) {
      seq_patience_ranks_into<int64_t, Less>(a, out, ctx.tails, less);
    } else {
      seq_patience_frontiers_into<int64_t, Less>(a, out, ctx.tails, less);
    }
  }

  // The LIS plan, behind every LIS entry point and solve_many's unweighted
  // queries: admits |a| elements, then solves `a` into `out` by patience
  // sorting (see solve_lis). int64 keys under kStrict solve as they are,
  // under any `less`; every other key or ties policy solves on its rank
  // image.
  template <typename Out, typename Key, typename Less>
  void run_lis(std::span<const Key> a, const char* what, ThreadCtx& ctx,
               Out& out, Less less) {
    const int64_t n = static_cast<int64_t>(a.size());
    const bool raw = std::is_same_v<Key, int64_t> &&
                     opts_.ties == TiesPolicy::kStrict;
    budget_plan(n, (raw ? 0 : rank_space_bytes(n)) + lis_scratch_bytes(n), 0,
                what);
    if constexpr (std::is_same_v<Key, int64_t>) {
      if (raw) {
        patience(a, ctx, out, less);
        return;
      }
    }
    patience(rank_image(a, ctx, less), ctx, out, std::less<int64_t>{});
  }

  // The WLIS plan (see solve_wlis): admits |a| elements, gets the ranks of
  // `a`, and runs the Fenwick pass over them into `out`, lending it the
  // rank space's sort buffer, which holds nothing once the ranks exist.
  // Raw int64 values under std::less and kStrict take their ranks from
  // ctx's value cache, which a miss rebuilds with rank_only_into (the
  // bitmap while the span fits, otherwise the pooled sort), and a budget
  // too small for the pass degrades them to Seq-AVL, which needs no rank
  // space; every other key, order or ties policy solves on its rank image.
  // Returns whether the cache supplied the ranks.
  template <typename Key, typename Less>
  bool run_wlis(std::span<const Key> a, std::span<const int64_t> w,
                const char* what, ThreadCtx& ctx, WlisResult& out,
                Less less) {
    const int64_t n = static_cast<int64_t>(a.size());
    constexpr bool kInt64 = std::is_same_v<Key, int64_t> &&
                            std::is_same_v<Less, std::less<int64_t>>;
    const bool raw = kInt64 && opts_.ties == TiesPolicy::kStrict;
    const BudgetPlan plan =
        budget_plan(n, rank_space_bytes(n) + wlis_scratch_bytes(n),
                    raw ? wlis_fallback_bytes(n) : 0, what);
    bool hit = false;
    if constexpr (kInt64) {
      if (plan == BudgetPlan::kFallback) {
        wlis_fallback(a, w, out, ctx);
        return false;
      }
      if (raw) {
        hit = ctx.values.match_or_rebuild(a, [&] {
          rank_only_into<int64_t>(a, TiesPolicy::kStrict, ctx.rs,
                                  ctx.rs_scratch);
        });
      }
    }
    if (!raw) rank_image(a, ctx, less);
    wlis_sweep_into(ctx.rs.rank, ctx.rs.n_distinct, w, ctx.sweep,
                    ctx.rs_scratch.sort_buf, out);
    return hit;
  }

  // The one query runner, behind solve_query and solve_many: the plan of
  // q's kind on `ctx`, results into `r` and q's spans (`q` is validated).
  // Returns run_wlis's value-cache flag (false for an unweighted query).
  bool run_query(const Query& q, QueryResult& r, const char* what,
                 ThreadCtx& ctx);

  Options opts_;
  std::unique_ptr<ThreadCtx> main_ctx_; // caller-thread workspaces
  // solve_many's packed task t owns task_ctx_[t], made on its first query,
  // whichever thread runs the task; num_workers() entries once sized.
  std::unique_ptr<std::unique_ptr<ThreadCtx>[]> task_ctx_;
  size_t task_ctx_n_ = 0;
  std::vector<int64_t> small_idx_;  // batch partition scratch
};

}  // namespace parlis
