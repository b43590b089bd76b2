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
// The context is thread-local, and the scheduler carries it into the pool:
// every task runs under the scope of the call that forked it, whichever
// thread runs it (parallel/scheduler.hpp), so a speculative chunk, a
// wavefront cell or a packed solve_many query polls its caller's token and
// deadline, and a task forked with no scope polls none.
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

/// RAII installer of the context an entry point runs under; the deadline
/// is anchored at construction (now + deadline_ms). Installs only when
/// there is something to check (a live token or a positive deadline),
/// otherwise leaves any outer scope visible to the polls. The token
/// reference must outlive the scope (it lives in the Solver's Options).
/// Construction never throws; entry points that want fail-fast semantics
/// call poll_cancellation() right after installing.
class CancelScope {
 public:
  CancelScope(const CancelToken& token, int64_t deadline_ms) noexcept {
    if (token.valid()) ctx_.cancel = &token;
    if (deadline_ms > 0) {
      ctx_.deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(deadline_ms);
      ctx_.has_deadline = true;
    }
    if (ctx_.cancel != nullptr || ctx_.has_deadline) {
      prev_ = tl_exec_context;
      tl_exec_context = &ctx_;
      installed_ = true;
    }
  }
  ~CancelScope() {
    if (installed_) tl_exec_context = prev_;
  }
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  ExecContext ctx_;
  const ExecContext* prev_ = nullptr;
  bool installed_ = false;
};

}  // namespace internal
}  // namespace parlis
