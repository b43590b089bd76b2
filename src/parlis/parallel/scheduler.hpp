// Lock-free work-stealing fork-join scheduler.
//
// This is the substrate that plays the role ParlayLib plays in the paper: a
// binary fork-join runtime on which `par_do` / `parallel_for` and all the
// parallel primitives are built. The design is the classic help-first
// work-stealing scheme on lock-free deques:
//
//   * every worker owns a Chase–Lev deque; `fork` pushes a pointer to a
//     stack-resident task descriptor at the bottom (plain stores + one
//     release fence — no mutex, no allocation),
//   * the owner pops from the bottom (LIFO), thieves CAS-steal from the top,
//   * a joining thread that finds its child stolen helps by stealing other
//     tasks until the child completes, so joins never block a core,
//   * threads outside the pool submit through a small locked side queue
//     that workers also poll (they may not touch the single-owner deques),
//   * idle workers back off exponentially — spin, then yield, then park on
//     a futex-backed condition variable; pushes wake a worker only when one
//     is actually parked.
//
// Join counters (`pending` below) live on the forking frame's stack, so
// nested fork-join never allocates. The pool is created lazily on first
// use. The number of workers defaults to hardware_concurrency() and can be
// overridden either with the PARLIS_NUM_THREADS environment variable or
// programmatically with set_num_workers() *before* first use (tests use 4
// to exercise concurrency even on single-core machines).
//
// Cancellation: a task runs under the scope of the call that forked it.
// Each push records the forker's ExecContext pointer (null included), and
// Pool::run installs it around the body and restores the runner's own
// before the join counter drops, so a stolen task never polls its thief's.
//
// Exception safety: a task body that throws does NOT take the process down.
// Pool::run captures the exception into the forking frame's ExceptionSlot
// (first capture wins) before decrementing the join counter, and the join
// on the spawning thread rethrows it — so par_do / parallel_for propagate
// exceptions exactly like their sequential equivalents would, across
// nesting and the external submission queue alike. parallel_for
// additionally trips a shared cancel flag so sibling leaves skip their
// blocks instead of finishing doomed work (parallel.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <utility>

namespace parlis {

/// Returns the number of workers in the pool (>= 1). Initializes the pool on
/// first call.
int num_workers();

/// Sets the worker count for the pool. Must be called before the pool is
/// first used (i.e., before any par_do/parallel_for/num_workers call);
/// otherwise it has no effect and returns false. Thread-safe: when it races
/// with the first pool use, exactly one side wins and the loser sees false.
bool set_num_workers(int n);

/// Returns the id of the calling worker in [0, num_workers()), or 0 for
/// threads outside the pool (the main thread is worker 0).
int worker_id();

/// When true, par_do/parallel_for run their bodies inline on the calling
/// thread — used to measure the one-core ("Ours (seq)") series of the
/// paper's figures without restarting the pool. Returns the previous value.
bool set_sequential_mode(bool on);
bool sequential_mode();

/// Per-thread sequential override: while set, par_do/parallel_for called on
/// THIS thread run inline; other threads are unaffected. Save/restore the
/// returned previous value to nest. Solver::solve_many uses it to pack many
/// small independent queries across the pool — each query solves
/// sequentially inside its task instead of forking nested parallelism.
bool set_thread_sequential(bool on);
bool thread_sequential();

/// Pool-internal id of the calling thread: 0..num_workers()-1 for pool
/// workers, -1 for threads outside the pool. Unlike worker_id(), external
/// threads are distinguishable from worker 0, but not from each other:
/// any of them may run a task it steals while joining, so scratch a task
/// needs alone belongs to the task (as solve_many's contexts do), not to
/// this id.
int pool_thread_id();

/// Lifetime scheduler statistics: spawns = task descriptors pushed (par_do
/// forks, parallel_for's splits included), steals = tasks taken from
/// another worker's deque or the external submission queue. Pool workers
/// count contention-free (one slot per worker); threads outside the pool
/// count on separate shared atomics, so totals stay exact even under
/// concurrent external submission.
struct SchedulerStats {
  uint64_t spawns = 0;
  uint64_t steals = 0;
};
SchedulerStats scheduler_stats();
/// Zeroes the statistics; call between parallel phases, not during one.
void reset_scheduler_stats();

namespace internal {

struct ExecContext;  // util/exec_context.hpp

// First-exception-wins capture slot for one join frame. A throwing task
// body is caught by Pool::run, which captures here *before* decrementing
// the frame's pending counter; the joining thread, having observed pending
// == 0 with acquire ordering, therefore sees a fully-written slot and can
// rethrow on its own stack. state: 0 = empty, 1 = capture in progress,
// 2 = set.
struct ExceptionSlot {
  std::atomic<int> state{0};
  std::exception_ptr ep;

  void capture(std::exception_ptr e) noexcept {
    int expected = 0;
    if (state.compare_exchange_strong(expected, 1, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      ep = std::move(e);
      state.store(2, std::memory_order_release);
    }
    // Lost the race: a sibling's exception was first; this one is dropped
    // (the contract is "the first exception_ptr reaches the join").
  }

  // Call only after the frame's join (pending == 0 observed with acquire).
  void rethrow_if_set() {
    int st = state.load(std::memory_order_acquire);
    if (st == 0) return;
    // A capture that won the CAS finishes before its task's pending
    // decrement, so st == 2 already for the task this frame joined; the
    // spin only covers a racing *losing* capturer glimpsed mid-CAS.
    while (st != 2) st = state.load(std::memory_order_acquire);
    std::rethrow_exception(ep);
  }
};

// A task descriptor. Lives on the stack of the forking frame, which always
// joins (pop or pending == 0) before returning, so the pointer pushed into
// the scheduler outlives every access, and so does the forker's scope.
struct RawTask {
  void (*fn)(void*) = nullptr;
  void* arg = nullptr;
  std::atomic<uint32_t>* pending = nullptr;  // decremented after fn runs
  ExceptionSlot* exc = nullptr;              // where a throwing fn lands
  const ExecContext* scope = nullptr;        // the forker's, set by push
};

// Pool interface used by par_do. All functions are thread-safe; push/pop
// pair up per forking frame.
void pool_push(RawTask* t);
// Pops the bottom task of the calling worker's deque if it is `t` (the
// normal un-stolen join). Returns false if t was stolen.
bool pool_pop_if(RawTask* t);
// Runs stolen tasks until *pending drops to zero.
void pool_wait(std::atomic<uint32_t>& pending);
// True once the pool has been started (after first use).
bool pool_started();

}  // namespace internal

/// Runs `left()` and `right()` potentially in parallel and returns when both
/// are complete. This is the binary `fork` of the work-span model. The task
/// descriptor and join counter live on this frame's stack — no allocation.
///
/// Exceptions: if either branch throws, par_do still joins the other branch
/// and then rethrows on the calling thread. When both throw concurrently
/// (left inline, right stolen), left's exception wins — it is the first to
/// reach this frame — and the captured right one is dropped.
template <typename Left, typename Right>
void par_do(Left&& left, Right&& right) {
  if (sequential_mode() || num_workers() == 1) {
    left();
    right();
    return;
  }
  std::atomic<uint32_t> pending{1};
  internal::ExceptionSlot exc;
  using R = std::remove_reference_t<Right>;
  internal::RawTask t;
  t.fn = [](void* a) { (*static_cast<R*>(a))(); };
  t.arg = const_cast<std::remove_const_t<R>*>(&right);
  t.pending = &pending;
  t.exc = &exc;
  internal::pool_push(&t);
  try {
    left();
  } catch (...) {
    // The pushed descriptor lives on this frame: reclaim it (or help until
    // the thief finishes) before unwinding past it.
    if (!internal::pool_pop_if(&t)) internal::pool_wait(pending);
    throw;
  }
  if (internal::pool_pop_if(&t)) {
    right();  // not stolen; run inline — a throw propagates directly
  } else {
    internal::pool_wait(pending);  // stolen; help until it finishes
    exc.rethrow_if_set();
  }
}

}  // namespace parlis
