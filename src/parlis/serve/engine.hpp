// parlis::serve::Engine — the service front of the solver library: an
// admission queue for stateless solves, and tenant verbs that run on the
// caller's thread under an exclusive SessionTable lease. The Engine owns
// no thread.
//
// Stateless solves (solve, solve_one) go through the queue, and their
// callers run them by combining: a caller enqueues its request (requests
// live on the CALLER's stack, so the warm submit path allocates nothing)
// and waits until it is done, or, while no pass runs and the engine is
// neither paused nor stopping, runs one pass itself. The queue is a fixed
// ring of request pointers with two backpressure modes:
//
//   kBlock  — a full queue blocks the submitting thread until a slot
//             frees (the call's guard is polled while blocked);
//   kReject — a full queue throws Error{kOverloaded} immediately, the
//             fail-fast shape for callers with their own retry budget.
//
// Every verb installs its RequestGuard as one cancellation scope on its
// caller (util/exec_context.hpp): the deadline is anchored once, at the
// call, and the kBlock wait, the queue, the lease wait and the solver all
// poll that scope. A request carries its caller's scope; one with none is
// guard-free. A guard-free call made under an outer scope (say, from a
// pool task of a guarded call) carries the outer one and runs solo under
// it, as a Solver entry point would.
//
// A pass drains everything queued, so a combiner's own request is in it,
// and in FIFO order:
//   * completes requests whose scope tripped while queued WITHOUT
//     executing them — a request cancelled in the queue never reaches a
//     worker;
//   * COALESCES the queries of adjacent guard-free solve requests into
//     one Solver::solve_many batch on the engine's batch solver, run under
//     no scope, so the combiner's own guard never reaches it (the
//     serve.coalesce failpoint fires before the batch runs). solve_many
//     itself packs small queries onto at most one task per worker, so the
//     engine inherits the library's large/small split. Every query is
//     shape-checked at submit (validate_query), so a malformed one fails
//     only its own caller; a structured failure inside the batch (an
//     injected fault, a dp sum past INT64_MAX) fails every request in it
//     (documented shared fate: the batch is one solver call);
//   * executes each request that carries a scope solo, under that scope,
//     because a coalesced batch can only carry one guard.
// It then marks its requests done and wakes their callers. A pass starts
// at once, so concurrent bursts coalesce into one batch only under the
// linger window (coalesce_linger_us).
//
// Tenant verbs (append, solve_warm) never queue: there is nothing to
// coalesce across tenants, and the SessionTable already serializes each
// tenant. The calling thread acquires the tenant's lease (admission
// faults and kBudgetExceeded surface there), waits while another caller
// holds it, and runs the op on the tenant's unguarded solver, whose polls
// see the verb's scope. Backpressure, pause/resume, the linger window and
// the queued cancel/expiry counters apply to the queue, so only to the
// stateless solves.
//
// Deadlines are end to end: a queued wait or a wait for a busy tenant
// counts against them. A tenant verb whose guard trips in the lease wait
// fails there, while the holder still holds the lease; one that trips
// after it fails before its op. Neither runs its op, and an append admits
// nothing. The errors are the scope's: Error{kCancelled, "cancellation
// requested"} and Error{kDeadlineExceeded, "deadline exceeded"}.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/serve/serve_stats.hpp"
#include "parlis/serve/session_table.hpp"
#include "parlis/util/cancel.hpp"

namespace parlis::internal {
struct ExecContext;  // util/exec_context.hpp
}  // namespace parlis::internal

namespace parlis::serve {

enum class BackpressureMode : uint8_t { kBlock, kReject };

struct EngineConfig {
  SessionTable::Config table{};
  /// Ring capacity in requests; clamped to >= 1.
  int64_t queue_capacity = 256;
  /// Upper bound on queries merged into one coalesced solve_many batch.
  int64_t coalesce_max_queries = 1024;
  /// Batch linger window: after draining, a pass holds the batch open up
  /// to this long (or until coalesce_max_queries) for concurrent clients'
  /// bursts to land in one solve_many. 0 = none: a pass takes only what
  /// was queued when it started. A lone client pays at most one window per
  /// batch, so keep it well under the per-batch compute time it amortizes.
  int64_t coalesce_linger_us = 0;
  BackpressureMode backpressure = BackpressureMode::kBlock;
};

/// Per-call guard, installed as one cancellation scope on the caller. Both
/// default (invalid token, 0 deadline): the call adds no scope, and a solve
/// made under none is coalescable.
struct RequestGuard {
  CancelToken cancel{};
  int64_t deadline_ms = 0;
};

class Engine {
 public:
  explicit Engine(const EngineConfig& cfg);
  /// Stops accepting work, waits out a running pass, fails anything still
  /// queued with Error{kCancelled}, and returns once no caller is in solve.
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Batched solve: queries[i] answered into results[i]
  /// (|results| >= |queries|). Each query is validated (validate_query)
  /// before it is queued: a malformed one throws Error{kInvalidArgument}
  /// here. Guard-free calls are coalesced with other queued guard-free
  /// solves into one solve_many. Blocks until done; rethrows the
  /// operation's failure.
  void solve(std::span<const Query> queries, std::span<QueryResult> results,
             const RequestGuard& guard = {});

  /// One-query convenience form of solve().
  QueryResult solve_one(const Query& q, const RequestGuard& guard = {});

  /// Streaming append to `series`' session (created on first append);
  /// returns the new LIS length of the tenant's live window. Runs on the
  /// calling thread under the tenant's lease.
  int64_t append(uint64_t series, int64_t value,
                 const RequestGuard& guard = {});

  /// Warm per-series solve on the tenant's own solver: weighted queries
  /// run solve_wlis against the tenant's value-sequence cache (a repeated
  /// series of raw values under kStrict skips the rank space; stats count
  /// the solves the cache served), unweighted ones run the LIS plan on the
  /// tenant's warm scratch. `q` is validated (validate_query) before the
  /// tenant is leased; a malformed query throws Error{kInvalidArgument}.
  QueryResult solve_warm(uint64_t series, const Query& q,
                         const RequestGuard& guard = {});

  /// Combined table + engine counters.
  Stats stats() const;

  SessionTable& table() { return table_; }

  /// Test/maintenance seam: a paused engine queues (and backpressures)
  /// solves normally, but no caller runs a pass until resume() wakes the
  /// waiters. Tenant verbs do not queue and run regardless. An engine
  /// paused right after construction has run no pass: no caller can
  /// submit before the constructor returns.
  void pause();
  void resume();

  /// Solve requests currently queued (snapshot).
  int64_t queue_depth() const;

 private:
  // A caller's solve, on the caller's stack. `done` is guarded by qmu_;
  // the pass that runs the request writes its results and `error` first.
  struct Request {
    std::span<const Query> queries{};
    std::span<QueryResult> results{};
    // The caller's scope, alive while the caller waits; null: guard-free.
    const internal::ExecContext* scope = nullptr;
    bool done = false;
    std::exception_ptr error;
  };

  void submit_and_wait(Request& r);
  // Backpressure lives here; `lk` holds qmu_.
  void enqueue(Request& r, std::unique_lock<std::mutex>& lk);
  // Moves the queue into drained_ and returns its query count (qmu_ held).
  int64_t drain_queue();
  // One pass: drains (and lingers) under `lk`, runs the drained requests
  // with qmu_ released, then marks them done under `lk`.
  void run_pass(std::unique_lock<std::mutex>& lk);
  // Pre-execution check of the request's scope; fails the request and
  // returns true when it must not run.
  bool finish_if_dead(Request& r);
  void execute_solo(Request& r);
  void run_coalesced(std::vector<Request*>& batch);
  // Leases `series` for a verb whose scope is installed; throws, lease
  // released, when that scope tripped during the wait.
  SessionTable::Lease lease_tenant(uint64_t series);

  SessionTable table_;
  Solver batch_solver_;
  EngineConfig cfg_;

  // Ring of caller-owned request pointers, fixed capacity.
  mutable std::mutex qmu_;
  // Signalled when a pass ends, on resume(), on an arrival while a pass
  // lingers, and when the engine stops or its last caller leaves.
  std::condition_variable cv_;
  std::condition_variable not_full_;
  std::vector<Request*> ring_;
  size_t q_head_ = 0, q_size_ = 0;
  bool paused_ = false;
  bool stopping_ = false;
  bool combining_ = false;  // a pass is running
  int64_t callers_ = 0;     // callers inside solve()

  // Pass scratch, reused across passes; only the running pass touches it.
  std::vector<Request*> drained_;
  std::vector<Request*> batch_reqs_;
  std::vector<Query> batch_queries_;
  std::vector<QueryResult> batch_results_;

  mutable std::atomic<int64_t> requests_{0};
  mutable std::atomic<int64_t> overload_rejections_{0};
  mutable std::atomic<int64_t> cancelled_queued_{0};
  mutable std::atomic<int64_t> expired_queued_{0};
  mutable std::atomic<int64_t> coalesced_batches_{0};
  mutable std::atomic<int64_t> coalesced_queries_{0};
  mutable std::atomic<int64_t> coalesced_batch_max_{0};
  mutable std::atomic<int64_t> queue_depth_hwm_{0};
  mutable std::atomic<int64_t> value_cache_hits_{0};
  mutable std::atomic<int64_t> value_cache_misses_{0};
};

}  // namespace parlis::serve
