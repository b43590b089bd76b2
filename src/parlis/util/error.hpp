// Structured failure surface of the library.
//
// Every clean failure a parlis entry point can produce — bad arguments,
// cooperative cancellation, a missed deadline, a blown memory budget, an
// injected fault — is thrown as one exception type, parlis::Error, carrying
// a machine-checkable ErrorCode. Callers that care which failure happened
// switch on code(); callers that only care *that* it failed catch
// std::exception and get a readable what().
//
// The contract the rest of the stack builds on: when an Error (or any other
// exception — std::bad_alloc from a real OOM looks the same to the failure
// paths) escapes a Solver or LisSession entry point, the object's warm
// state is coherent: a Solver's value cache stays keyed only to a complete
// rank space (the key is dropped before the rank space is overwritten), and
// a session marks its derived state for a lazy rebuild from its window. So
// the very next call on the same object behaves exactly like a call on a
// cold one. A WlisWorkspace keeps no state between calls, only capacity.
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <string_view>
#include <utility>

namespace parlis {

enum class ErrorCode : uint8_t {
  /// Caller broke an entry-point precondition (span-size mismatch,
  /// undersized output span, invalid Options field, pop on empty).
  kInvalidArgument,
  /// Options::cancel was triggered; the solve stopped at a poll point.
  kCancelled,
  /// Options::deadline_ms elapsed before the solve finished.
  kDeadlineExceeded,
  /// Options::memory_budget_bytes is too small for even the smallest
  /// structure that could answer the query.
  kBudgetExceeded,
  /// A PARLIS_FAILPOINTS injection site fired (fault-testing builds only).
  kFaultInjected,
  /// The serving engine's admission queue is full and the engine is
  /// configured to fail fast (serve::BackpressureMode::kReject) instead of
  /// blocking the caller until a slot frees up.
  kOverloaded,
};

constexpr std::string_view error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::kInvalidArgument: return "kInvalidArgument";
    case ErrorCode::kCancelled: return "kCancelled";
    case ErrorCode::kDeadlineExceeded: return "kDeadlineExceeded";
    case ErrorCode::kBudgetExceeded: return "kBudgetExceeded";
    case ErrorCode::kFaultInjected: return "kFaultInjected";
    case ErrorCode::kOverloaded: return "kOverloaded";
  }
  return "kUnknown";
}

class Error : public std::exception {
 public:
  Error(ErrorCode code, std::string message)
      : code_(code),
        what_(std::string(error_code_name(code)) + ": " + std::move(message)) {}

  ErrorCode code() const noexcept { return code_; }
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  ErrorCode code_;
  std::string what_;
};

}  // namespace parlis
