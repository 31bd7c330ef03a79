// Error type and argument-checking helpers.
//
// All user-facing entry points validate their descriptors and throw
// iatf::Error on misuse; internal invariants use IATF_ASSERT which compiles
// to a real check in all build types (the cost is negligible next to the
// packing/compute work it guards).
//
// Every Error carries a Status code from common/status.hpp so the C API
// and the engine's degradation logic can classify failures without
// parsing messages. IATF_CHECK throws Status::InvalidArg; use
// IATF_CHECK_AS for the other classes.
#pragma once

#include <exception>
#include <stdexcept>
#include <string>

#include "iatf/common/status.hpp"

namespace iatf {

/// Exception thrown on invalid arguments or unsupported configurations.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what,
                 Status status = Status::InvalidArg)
      : std::runtime_error(what), status_(status) {}

  /// Stable classification of the failure (mirrors the C status codes).
  Status status() const noexcept { return status_; }

private:
  Status status_ = Status::InvalidArg;
};

/// Thrown when a per-call Deadline expires before the work completes.
/// Carries partial-work accounting: `completed` of `total` work items
/// (interleave-group slices for plan execution, range items for
/// ThreadPool::parallel_for) finished before expiry. The operation's
/// output is partially updated; callers either retry without a deadline
/// or discard the result. Never converted to a fallback recompute: the
/// guarded engine rethrows Timeout like InvalidArg, since a scalar
/// reference retry could only take longer.
class TimeoutError : public Error {
public:
  TimeoutError(index_t completed, index_t total)
      : Error("iatf: deadline exceeded (" + std::to_string(completed) +
                  " of " + std::to_string(total) + " work items completed)",
              Status::Timeout),
        completed_(completed), total_(total) {}

  index_t completed() const noexcept { return completed_; }
  index_t total() const noexcept { return total_; }

private:
  index_t completed_ = 0;
  index_t total_ = 0;
};

/// Thrown when admission control sheds a call: the engine's in-flight
/// budget (Engine::set_max_inflight) was exhausted and the overload
/// policy said to reject rather than queue or degrade. The call touched
/// neither its output buffers nor the thread pool; retrying later (once
/// load drains) is always safe.
class OverloadError : public Error {
public:
  OverloadError(std::size_t inflight, std::size_t max_inflight)
      : Error("iatf: call shed by admission control (" +
                  std::to_string(inflight) + " in flight, budget " +
                  std::to_string(max_inflight) + ")",
              Status::Overloaded) {}
};

/// Delivered (via std::future / completion callback, never thrown into
/// the submitter) for requests a serving front-end discarded before
/// execution: Server::stop() cancels everything still queued, and a
/// submission arriving after drain()/stop() is refused with this error.
/// The request's output buffers were never touched; distinct from
/// OverloadError (resource pressure, retry later) because retrying a
/// cancelled request against a stopping server is pointless.
class CancelledError : public Error {
public:
  explicit CancelledError(const std::string& what)
      : Error(what, Status::Cancelled) {}
};

/// Delivered (via std::future / completion callback) for requests whose
/// dispatch stalled past the watchdog budget: the supervisor reclaimed
/// the request, tripped the descriptor class's breaker and respawned the
/// dispatcher. The output buffers may have been partially written by the
/// wedged execution; re-submitting with fresh inputs is required.
class WatchdogError : public Error {
public:
  explicit WatchdogError(const std::string& what)
      : Error(what, Status::Watchdog) {}
};

/// Stable classification of a captured exception: an Error reports its
/// own status, std::bad_alloc is AllocFailure and anything else is
/// Internal. The one mapping behind every C status code and every
/// serving-callback status.
Status status_of(const std::exception_ptr& p) noexcept;

namespace detail {
[[noreturn]] void throw_error(const char* file, int line,
                              const std::string& message,
                              Status status = Status::InvalidArg);
} // namespace detail

/// Validate a user-supplied condition; throws iatf::Error when violated.
#define IATF_CHECK(cond, message)                                            \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::iatf::detail::throw_error(__FILE__, __LINE__, (message));            \
    }                                                                        \
  } while (false)

/// IATF_CHECK with an explicit Status classification.
#define IATF_CHECK_AS(cond, status, message)                                 \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::iatf::detail::throw_error(__FILE__, __LINE__, (message), (status));  \
    }                                                                        \
  } while (false)

/// Internal invariant; also throws (never UB) so property tests can probe
/// failure paths safely.
#define IATF_ASSERT(cond)                                                    \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::iatf::detail::throw_error(__FILE__, __LINE__,                        \
                                  "internal invariant violated: " #cond,     \
                                  ::iatf::Status::Internal);                 \
    }                                                                        \
  } while (false)

} // namespace iatf
