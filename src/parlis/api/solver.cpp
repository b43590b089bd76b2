#include "parlis/api/solver.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>

#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/stream/lis_session.hpp"
#include "parlis/util/failpoint.hpp"
#include "parlis/wlis/seq_avl.hpp"

namespace parlis {

Solver::Solver(const Options& opts)
    : opts_(opts), main_ctx_(std::make_unique<ThreadCtx>()) {}

Solver::~Solver() = default;
Solver::Solver(Solver&&) noexcept = default;
Solver& Solver::operator=(Solver&&) noexcept = default;

size_t Solver::resident_bytes() const {
  // Heap bytes only — the object header itself is whoever embeds us (the
  // table counts it once via sizeof(TenantEntry)).
  size_t b = vec_bytes(small_idx_);
  if (main_ctx_) b += main_ctx_->resident_bytes();
  for (size_t t = 0; t < task_ctx_n_; t++) {
    b += sizeof(task_ctx_[t]);
    if (task_ctx_[t]) b += task_ctx_[t]->resident_bytes();
  }
  return b;
}

// ---- Memory-budget admission ------------------------------------------
//
// Documented scratch-size models, per element, deliberately generous (the
// fault tests pin each against the structures' real accounting, from n = 0
// up). They exist so a budget decision can be made *before* the structures
// allocate; exactness is not the goal, never-under-estimating is. The
// per-element terms carry no constant: budget_plan adds kPlanFixedBytes
// once per plan.

// What a Solver holds at any n beyond the per-element terms: its thread
// context (376 bytes on x86-64), the sort's first block of run-start masks
// (512 bytes) and the one-element remainders (an extra Fenwick node, an
// extra patience tail).
constexpr size_t kPlanFixedBytes = size_t{4} << 10;

size_t Solver::rank_space_bytes(int64_t n) {
  // A Solver whose solves take both of rank_only_into's paths keeps both
  // paths' buffers, so this prices their union. The sort holds
  // order/pos/rank/qpos (4 x 8B), its merge buffer (8B), the vector run
  // scan's sorted-key image (8B), run-start masks (1/8 B) and per-block
  // carries. The bitmap holds rank, at most rank_only_max_words(n) = 2n
  // presence words in the masks' buffer (16B) and their popcount prefix in
  // the merge buffer's (16B), which kNonDecreasing reuses for its counts.
  // Union: 72B, plus 1B of slack for the carries, where both paths keep
  // 16 B per 4096 elements (the bitmap its blocks' min and max).
  return static_cast<size_t>(n) * 73;
}

size_t Solver::lis_scratch_bytes(int64_t n) {
  // Patience tails (at most n + 1 int64) + the rank output.
  return static_cast<size_t>(n) * 12;
}

size_t Solver::wlis_scratch_bytes(int64_t n) {
  // The Fenwick pass beyond the rank space: a 16-byte node per rank (at
  // most n + 1), the value cache's copy of raw int64 input, and the dp
  // output.
  return static_cast<size_t>(n) * 32;
}

size_t Solver::wlis_fallback_bytes(int64_t n) {
  // Seq-AVL node pool (48B/node) + dp output, then patience tails + ranks.
  return static_cast<size_t>(n) * 64;
}

// LisResult::rank, LisFrontiers::rank and every round counter are int32.
static void check_rank_limit(int64_t n, const char* what) {
  if (n > std::numeric_limits<int32_t>::max()) {
    throw Error(ErrorCode::kInvalidArgument,
                std::string(what) + ": n = " + std::to_string(n) +
                    " exceeds the int32 rank limit (n < 2^31)");
  }
}

Solver::BudgetPlan Solver::budget_plan(int64_t n, size_t full_bytes,
                                       size_t fallback_bytes,
                                       const char* what) const {
  check_rank_limit(n, what);
  const uint64_t budget = opts_.memory_budget_bytes;
  full_bytes += kPlanFixedBytes;
  if (budget == 0 || full_bytes <= budget) return BudgetPlan::kFull;
  if (fallback_bytes == 0) {
    throw Error(ErrorCode::kBudgetExceeded,
                std::string(what) + ": estimated " +
                    std::to_string(full_bytes) +
                    " bytes exceed Options::memory_budget_bytes = " +
                    std::to_string(budget) + " (no sequential fallback)");
  }
  fallback_bytes += kPlanFixedBytes;
  if (fallback_bytes <= budget) return BudgetPlan::kFallback;
  throw Error(ErrorCode::kBudgetExceeded,
              std::string(what) + ": estimated " +
                  std::to_string(fallback_bytes) +
                  " bytes for the sequential fallback exceed "
                  "Options::memory_budget_bytes = " +
                  std::to_string(budget));
}

void Solver::wlis_fallback(std::span<const int64_t> a,
                           std::span<const int64_t> w, WlisResult& out,
                           ThreadCtx& ctx) {
  seq_avl_wlis_into(a, w, out.dp);
  out.best = 0;
  for (int64_t v : out.dp) out.best = std::max(out.best, v);
  seq_patience_ranks_into<int64_t>(a, ctx.lis_res, ctx.tails);
  out.k = ctx.lis_res.k;
}

void Solver::solve_lis(std::span<const int64_t> a, LisResult& out) {
  solve_lis<int64_t>(a, out);
}

void Solver::solve_lis_frontiers(std::span<const int64_t> a,
                                 LisFrontiers& out) {
  solve_lis_frontiers<int64_t>(a, out);
}

int64_t Solver::lis_length(std::span<const int64_t> a) {
  return lis_length<int64_t>(a);
}

// Cache-line aligned like internal::patience_ranks: the value cache's
// check loops inline here.
[[gnu::aligned(64)]] bool Solver::solve_wlis(
    std::span<const int64_t> a, std::span<const int64_t> w, WlisResult& out) {
  return solve_wlis<int64_t>(a, w, out);
}

void validate_query(const Query& q) {
  const size_t n = q.a.size();
  if (!q.w.empty() && q.w.size() != n) {
    throw Error(ErrorCode::kInvalidArgument,
                "Query: weighted query needs |w| == |a|");
  }
  if (!q.rank_out.empty() && q.rank_out.size() < n) {
    throw Error(ErrorCode::kInvalidArgument,
                "Query: rank_out smaller than |a|");
  }
  if (!q.dp_out.empty() && q.dp_out.size() < n) {
    throw Error(ErrorCode::kInvalidArgument, "Query: dp_out smaller than |a|");
  }
}

bool Solver::run_query(const Query& q, QueryResult& r, const char* what,
                       ThreadCtx& ctx) {
  const size_t n = q.a.size();
  if (q.w.empty()) {
    run_lis(q.a, what, ctx, ctx.lis_res, std::less<int64_t>{});
    r.k = ctx.lis_res.k;
    r.best = ctx.lis_res.k;
    if (!q.rank_out.empty()) {
      std::copy_n(ctx.lis_res.rank.begin(), n, q.rank_out.begin());
    }
    return false;
  }
  const bool hit =
      run_wlis(q.a, q.w, what, ctx, ctx.wlis_res, std::less<int64_t>{});
  r.k = ctx.wlis_res.k;
  r.best = ctx.wlis_res.best;
  if (!q.dp_out.empty()) {
    std::copy_n(ctx.wlis_res.dp.begin(), n, q.dp_out.begin());
  }
  return hit;
}

bool Solver::solve_query(const Query& q, QueryResult& r) {
  validate_query(q);
  EntryGuard guard(*this, q.a.size());
  return run_query(q, r, "solve_query", *main_ctx_);
}

LisSession Solver::make_session() { return LisSession(*this); }

void Solver::solve_many(std::span<const Query> queries,
                        std::span<QueryResult> results) {
  if (results.size() < queries.size()) {
    throw Error(ErrorCode::kInvalidArgument,
                "solve_many: |results| must be >= |queries|");
  }
  const int64_t nq = static_cast<int64_t>(queries.size());
  // Fail fast: surface any malformed query before the batch does any work.
  for (int64_t i = 0; i < nq; i++) validate_query(queries[i]);
  // One scope for the whole batch, its deadline anchored here; the
  // scheduler runs each packed task under it, whichever thread runs it.
  internal::CancelScope scope(opts_.cancel, opts_.deadline_ms);
  internal::poll_cancellation();
  // Large queries first, one at a time on the caller's context (by the
  // plans of solve_lis and solve_wlis, which may use the pool), then the
  // packed phase.
  small_idx_.clear();
  for (int64_t i = 0; i < nq; i++) {
    if (is_small(queries[i].a.size())) {
      small_idx_.push_back(i);
    } else {
      run_query(queries[i], results[i], "solve_many", *main_ctx_);
    }
  }
  if (small_idx_.empty()) return;
  // Small queries: min(m, num_workers()) tasks, each taking queries from
  // one shared cursor and solving them sequentially (thread-sequential
  // mode) on its own context, task t on context t. A query that throws
  // moves the cursor past the end, so the other tasks stop after their
  // current one, and parallel_for rethrows the first exception here.
  if (task_ctx_n_ == 0) {
    task_ctx_n_ = static_cast<size_t>(num_workers());
    task_ctx_ = std::make_unique<std::unique_ptr<ThreadCtx>[]>(task_ctx_n_);
  }
  const int64_t m = static_cast<int64_t>(small_idx_.size());
  std::atomic<int64_t> next{0};
  parallel_for(
      0, std::min(m, static_cast<int64_t>(task_ctx_n_)),
      [&](int64_t t) {
        ThreadSequentialGuard seq(true);
        int64_t i;
        while ((i = next.fetch_add(1)) < m) {
          try {
            internal::poll_cancellation();
            PARLIS_FAILPOINT("solver.packed_query");
            if (!task_ctx_[t]) task_ctx_[t] = std::make_unique<ThreadCtx>();
            run_query(queries[small_idx_[i]], results[small_idx_[i]],
                      "solve_many", *task_ctx_[t]);
          } catch (...) {
            next.store(m);
            throw;
          }
        }
      },
      /*grain=*/1);
}

}  // namespace parlis
