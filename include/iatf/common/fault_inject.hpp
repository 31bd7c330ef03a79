// Deterministic fault injection for exercising the degradation paths.
//
// Production code marks its failure-prone operations with
// IATF_FAULT_POINT(site, status); tests arm a site by name and the next
// hit(s) throw fault::FaultInjected carrying that status. The whole
// framework costs one relaxed atomic-bool load per fault point while
// disarmed, so the instrumented hot paths (workspace allocation, registry
// lookup, thread-pool dispatch) keep their Fast-policy performance.
//
// Sites are plain strings so new ones need no central registry:
//   "alloc"               AlignedBuffer workspace/storage allocation
//   "registry.gemm/.tri/.rect/.trmm"   kernel-registry lookups
//   "plan.gemm" / "plan.trsm"          engine plan construction
//   "threadpool.dispatch" / "threadpool.worker"   parallel_for chunks
//   "threadpool.stall"    stall (not throw) a parallel_for chunk, for
//                         exercising deadline-aware dispatch
//   "plan.stall"          stall a plan build inside the engine's
//                         single-flight section (verifies one build per
//                         descriptor under concurrent misses)
//   "cache.evict"         throw during plan-cache LRU publish (the built
//                         plan must still be returned, just not cached)
//   "sched.bin" / "sched.interleave"   size-class binning of every engine
//                         call and thread-pool work-item interleaving
//                         (sched/group_scheduler)
//   "resilience.verify"   kernel canary verification (a hit quarantines
//                         the kernel under test)
//   "resilience.probe"    circuit-breaker HalfOpen probe execution (a hit
//                         re-opens the breaker)
//   "serve.enqueue"       Server admission, after counters but before the
//                         request queues (a hit fails only that request)
//   "serve.coalesce"      dispatcher coalesce scan (a hit stops widening
//                         the batch; what was collected still dispatches)
//   "serve.dispatch"      dispatcher execution entry (a hit fails a single
//                         request, or splits a coalesced batch into
//                         per-request retries)
//   "ledger.append"       HealthLedger::append record write (a hit drops
//                         that record; the in-memory state is unaffected)
//   "ledger.save"         HealthLedger::save compaction write
//   "ledger.load"         HealthLedger::load parse entry
//   "watchdog.stall"      stall (not throw) the dispatcher inside
//                         execute_batch, for exercising the serve-layer
//                         watchdog's stalled-dispatch reclamation
//
// Arming is process-global (tests that arm faults must not run the same
// site concurrently from unrelated tests); fault::ScopedFault disarms on
// scope exit so a failing ASSERT cannot leak an armed site into the next
// test.
#pragma once

#include <atomic>
#include <string>

#include "iatf/common/error.hpp"

namespace iatf::fault {

/// Thrown by an armed fault point. `site()` identifies the injection
/// location; `status()` (inherited) classifies what real failure the
/// injection simulates.
class FaultInjected : public Error {
public:
  FaultInjected(std::string site, Status status)
      : Error("iatf: injected fault at " + site, status),
        site_(std::move(site)) {}

  const std::string& site() const noexcept { return site_; }

private:
  std::string site_;
};

namespace detail {
extern std::atomic<bool> g_enabled;
/// Slow path: called only while at least one site is armed.
bool should_fail(const char* site);
} // namespace detail

/// True while any site is armed (one relaxed load; the fast-path guard).
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Arm `site`: skip the next `skip` hits, then fail the following `count`
/// hits. Re-arming an armed site replaces its schedule.
void arm(const char* site, int skip = 0, int count = 1);

/// Disarm one site / every site.
void disarm(const char* site);
void disarm_all();

/// Sleep-based fault for deadline testing: while `site` is armed, each
/// scheduled hit blocks the calling thread for `ms` milliseconds instead
/// of throwing -- it simulates a stalled worker rather than a failed one.
/// Costs one relaxed atomic load while disarmed, like IATF_FAULT_POINT.
void stall_if_armed(const char* site, int ms = 25);

/// Times an armed `site` was evaluated since arm() (0 if not armed).
int hits(const char* site);

/// RAII suppression for canary runs: while a thread holds a
/// SuppressionScope, every armed site EXCEPT those prefixed "resilience."
/// evaluates to "pass" on that thread without consuming its schedule or
/// counting a hit. The engine's kernel verification wraps its canary
/// plans in this scope so a test that armed, say, one "alloc" failure for
/// the call under test cannot have it swallowed by a background canary --
/// and a good kernel is never quarantined by an unrelated injected fault.
/// The "resilience." carve-out keeps the verification/probe paths
/// themselves testable. Nestable; thread-local.
struct SuppressionScope {
  SuppressionScope() noexcept;
  ~SuppressionScope();
  SuppressionScope(const SuppressionScope&) = delete;
  SuppressionScope& operator=(const SuppressionScope&) = delete;
};

/// RAII arming for tests: disarms every site on destruction so a thrown
/// assertion cannot leave faults armed for subsequent tests.
struct ScopedFault {
  explicit ScopedFault(const char* site, int skip = 0, int count = 1) {
    arm(site, skip, count);
  }
  ~ScopedFault() { disarm_all(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

} // namespace iatf::fault

/// Mark a failure-prone operation. Near-zero cost while disarmed; throws
/// fault::FaultInjected(site, status) when the armed schedule says so.
#define IATF_FAULT_POINT(site, status)                                       \
  do {                                                                       \
    if (::iatf::fault::enabled() &&                                          \
        ::iatf::fault::detail::should_fail(site)) {                          \
      throw ::iatf::fault::FaultInjected((site), (status));                  \
    }                                                                        \
  } while (false)
