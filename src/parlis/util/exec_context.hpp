// Per-call cancellation/deadline context, threaded to the round loops.
//
// Solver and LisSession entry points install an ExecContext on the calling
// thread (RAII, CancelScope below); the frontier-round loops deep in
// lis/wlis/swgs call poll_cancellation() once per round, which costs one
// thread-local load and a null check when no context is installed — the
// warm hot path stays allocation-free and effectively unguarded. With a
// context installed, a poll checks the token's atomic flag and, when a
// deadline is set, the steady clock; either trip throws the structured
// Error (kCancelled / kDeadlineExceeded) that unwinds to the entry point's
// failure chokepoint.
//
// The context is thread-local; a deadline is anchored once, where the
// scope is installed. A thread running another call's work swaps that
// call's scope in (ScopeSwap): the scheduler does so for every task, so a
// speculative chunk, a wavefront cell or a packed solve_many query polls
// the scope of the call that forked it (parallel/scheduler.hpp), and the
// serving engine's combiner runs each request under its caller's
// (serve/engine.hpp).
#pragma once

#include <chrono>

#include "parlis/util/cancel.hpp"
#include "parlis/util/error.hpp"

namespace parlis {
namespace internal {

struct ExecContext {
  const CancelToken* cancel = nullptr;  // nullptr: no token configured
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;

  void check() const {
    if (cancel != nullptr && cancel->cancel_requested()) {
      throw Error(ErrorCode::kCancelled, "cancellation requested");
    }
    if (has_deadline && std::chrono::steady_clock::now() > deadline) {
      throw Error(ErrorCode::kDeadlineExceeded, "deadline exceeded");
    }
  }
};

inline thread_local const ExecContext* tl_exec_context = nullptr;

/// Round-boundary poll: free when no scope is installed on this thread.
inline void poll_cancellation() {
  const ExecContext* c = tl_exec_context;
  if (c != nullptr) c->check();
}

/// RAII swap of the calling thread's scope for `scope`, null included, and
/// back on destruction: what a thread running another call's work installs,
/// so the work polls that call's guard and not its runner's.
class ScopeSwap {
 public:
  explicit ScopeSwap(const ExecContext* scope) noexcept
      : prev_(tl_exec_context) {
    tl_exec_context = scope;
  }
  ~ScopeSwap() { tl_exec_context = prev_; }
  ScopeSwap(const ScopeSwap&) = delete;
  ScopeSwap& operator=(const ScopeSwap&) = delete;

 private:
  const ExecContext* prev_;
};

/// RAII installer of the context an entry point runs under; the deadline
/// is anchored at construction (now + deadline_ms). Installs only when
/// there is something to check (a live token or a positive deadline),
/// otherwise leaves any outer scope visible to the polls. The token
/// reference must outlive the scope (it lives in the Solver's Options, or
/// in the RequestGuard of an Engine call).
/// Construction never throws; entry points that want fail-fast semantics
/// call poll_cancellation() right after installing.
class CancelScope {
 public:
  CancelScope(const CancelToken& token, int64_t deadline_ms) noexcept
      : ctx_{token.valid() ? &token : nullptr,
             deadline_ms > 0 ? std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(deadline_ms)
                             : std::chrono::steady_clock::time_point{},
             deadline_ms > 0},
        swap_(ctx_.cancel != nullptr || ctx_.has_deadline ? &ctx_
                                                          : tl_exec_context) {}

 private:
  ExecContext ctx_;
  ScopeSwap swap_;
};

}  // namespace internal
}  // namespace parlis
