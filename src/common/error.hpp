#pragma once

// Recoverable-error plumbing for the numerical core and the I/O layer.
//
// Policy (docs/robustness.md): NF_CHECK stays the contract for *internal
// invariants* — states no input should ever reach.  Everything a production
// run can plausibly hit (a non-converged solve, a NaN-poisoned gradient, a
// truncated checkpoint, an expired deadline) is a *routine event* and flows
// through nf::Expected<T> / nf::Error so callers can retry, degrade, or
// report instead of aborting a multi-hour fill job.
//
// Two channels:
//  * Expected<T> — the return-value channel, used wherever the signature is
//    ours to shape (solvers, checkpoint I/O).
//  * ErrorException — the exception bridge, used where an error must cross
//    an interface we cannot widen (ObjectiveFn evaluations, thread-pool
//    blocks).  It carries the same structured Error; catch sites convert it
//    back rather than parsing what().

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace neurfill {

enum class ErrorCode {
  kNonConverged,       ///< iterative solve exhausted its budget
  kNumericPoison,      ///< NaN/Inf detected in a numeric field
  kIo,                 ///< read/write/rename failure
  kNotFound,           ///< file or artifact missing (retry is pointless)
  kCorrupt,            ///< artifact exists but fails validation (magic/CRC)
  kDeadlineExceeded,   ///< the run deadline expired
  kInterrupted,        ///< operator interrupt (SIGINT) acknowledged
  kResourceExhausted,  ///< allocation or capacity failure
  kInvalidArgument,    ///< caller-provided data is unusable
  kOverloaded,         ///< admission shed the request (backpressure/drain)
  kQueueFull,          ///< a bounded table/queue is at capacity
  kRetryExhausted,     ///< retries with backoff all failed
};

const char* error_code_name(ErrorCode code);

/// A structured, human-assembled error: what failed (code), where
/// (subsystem, e.g. "cmp.contact" or "nn.serialize"), and the specifics
/// (message, which names files/sections/values — never a stack trace).
struct Error {
  ErrorCode code = ErrorCode::kIo;
  std::string subsystem;
  std::string message;

  Error() = default;
  Error(ErrorCode c, std::string sub, std::string msg)
      : code(c), subsystem(std::move(sub)), message(std::move(msg)) {}

  /// "[cmp.contact] non_converged: residual 3.2e-5 after 400 iterations"
  std::string to_string() const {
    std::string s;
    s.reserve(subsystem.size() + message.size() + 24);
    s += '[';
    s += subsystem;
    s += "] ";
    s += error_code_name(code);
    s += ": ";
    s += message;
    return s;
  }
};

inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNonConverged: return "non_converged";
    case ErrorCode::kNumericPoison: return "numeric_poison";
    case ErrorCode::kIo: return "io_error";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kCorrupt: return "corrupt";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kInterrupted: return "interrupted";
    case ErrorCode::kResourceExhausted: return "resource_exhausted";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kQueueFull: return "queue_full";
    case ErrorCode::kRetryExhausted: return "retry_exhausted";
  }
  return "unknown";
}

/// Exception bridge carrying a structured Error across interfaces that can
/// only throw (objective callbacks, pool blocks).  what() is the formatted
/// to_string(), so even a generic catch(std::exception) prints the full
/// context; typed catch sites read err directly.
class ErrorException : public std::runtime_error {
 public:
  explicit ErrorException(Error e)
      : std::runtime_error(e.to_string()), err(std::move(e)) {}
  Error err;
};

/// Lightweight expected: either a value or an Error.  Deliberately minimal —
/// no monadic combinators, just the checks and accessors the call sites
/// need.  Accessing the wrong alternative is a contract violation and
/// terminates via std::get's bad_variant_access.
template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : v_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Expected(Error error) : v_(std::move(error)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  T& value() { return std::get<T>(v_); }
  const T& value() const { return std::get<T>(v_); }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  const Error& error() const { return std::get<Error>(v_); }

 private:
  std::variant<T, Error> v_;
};

/// Expected<void>: success carries nothing; failure carries the Error.
template <>
class [[nodiscard]] Expected<void> {
 public:
  Expected() = default;
  Expected(Error error) : has_error_(true), err_(std::move(error)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return !has_error_; }
  explicit operator bool() const { return ok(); }
  const Error& error() const { return err_; }

 private:
  bool has_error_ = false;
  Error err_;
};

}  // namespace neurfill

/// The ISSUE-facing spelling: nf::Expected / nf::Error.
namespace nf = neurfill;
