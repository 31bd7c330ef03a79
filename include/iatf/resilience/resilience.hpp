// Serving-hardening primitives behind Engine's self-healing behaviour:
//
//  * KernelGuard -- per-kernel trust ledger. Generated-code trust is
//    earned, not assumed (IAAT's install-time validation argument): each
//    registry kernel starts Untested, is canary-checked against iatf::ref
//    on first dispatch, and a mismatching/throwing kernel is Quarantined
//    so the engine stops routing work through it.
//
//  * CircuitBreaker -- per-descriptor-class degradation breaker. When a
//    class's recent calls keep degrading (fallback repairs, timeouts,
//    quarantine hits), the breaker Opens and routes the class to the
//    scalar ref path, probes after a cooldown (HalfOpen) and restores
//    (Closed) once a probe succeeds. All counting is in CALLS, not wall
//    time, so a seeded fault schedule drives bit-reproducible transitions.
//
//  * OverloadPolicy / RetryPolicy -- admission-control and transient-
//    retry knobs consumed by Engine (set_max_inflight / set_retry_policy).
//
// Everything here is engine-internal machinery with value-type knobs;
// the user-facing surface is Engine's setters plus EngineHealth.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "iatf/resilience/kernel_state.hpp"

namespace iatf::resilience {

/// Engine-wide identity of one generated kernel: the plan-level KernelUse
/// plus the dtype/width the plan was instantiated for.
struct KernelId {
  char kind = 0;  ///< as KernelUse::kind
  char dtype = 0; ///< 's', 'd', 'c', 'z'
  int bytes = 0;  ///< SIMD register width (16 / 32)
  int m = 0;
  int n = 0;

  friend bool operator==(const KernelId&, const KernelId&) = default;
};

struct KernelIdHash {
  std::size_t operator()(const KernelId& k) const noexcept;
};

/// Thread-safe trust ledger over KernelIds. States only move
/// Untested -> Verified and Untested/Verified -> Quarantined (a later
/// quarantine may demote a kernel that passed its canary but keeps
/// misbehaving); reset() wipes the ledger (tests, self_test re-runs).
class KernelGuard {
public:
  KernelState state(const KernelId& id) const;
  void mark_verified(const KernelId& id);
  void mark_quarantined(const KernelId& id);

  /// True when any of `ids` is quarantined.
  bool any_quarantined(const std::vector<KernelId>& ids) const;

  std::size_t verified_count() const;
  std::size_t quarantined_count() const;

  void reset();

private:
  mutable std::mutex mu_;
  std::unordered_map<KernelId, KernelState, KernelIdHash> states_;
  std::size_t verified_ = 0;
  std::size_t quarantined_ = 0;
};

/// Breaker state of one descriptor-class slot.
enum class BreakerState : std::uint8_t {
  Closed = 0,   ///< normal dispatch; outcomes counted per window
  Open = 1,     ///< ref-route everything for `cooldown` calls
  HalfOpen = 2, ///< one probe runs the fast path; rest still ref-route
};

const char* to_string(BreakerState state) noexcept;

/// Deterministic breaker tuning. Counting is call-based (no wall clock):
/// every `window` calls of a Closed slot form a tumbling window; if
/// `threshold` or more of them degraded (fallback repair, timeout,
/// quarantine routing) the slot Opens for `cooldown` ref-routed calls,
/// then HalfOpens and probes. window == 0 disables the breaker entirely
/// (the default: one relaxed load on the hot path).
struct BreakerConfig {
  int window = 0;    ///< calls per Closed-state evaluation window
  int threshold = 0; ///< degraded calls per window that trip the slot
  int cooldown = 0;  ///< ref-routed calls before the HalfOpen probe

  bool enabled() const noexcept { return window > 0; }
};

/// What the breaker tells the engine to do with one call.
enum class BreakerDecision : std::uint8_t {
  Allow = 0,    ///< run the planned fast path
  Probe = 1,    ///< run the fast path as the HalfOpen probe
  RefRoute = 2, ///< skip the fast path; compute on the scalar reference
};

/// Per-descriptor-class circuit breaker: descriptor classes hash onto a
/// fixed array of slots, each an independent call-counted state machine.
/// All transitions are functions of the call/outcome sequence alone, so
/// a seeded fault schedule replays to bit-identical state trajectories.
class CircuitBreaker {
public:
  static constexpr std::size_t kSlots = 64;

  /// Swap the tuning and reset every slot to Closed with zeroed windows.
  void configure(const BreakerConfig& config);
  BreakerConfig config() const;
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Gate one call of the class hashing to `slot_hash`. Must be paired
  /// with record() for Allow/Probe decisions (RefRoute records itself).
  BreakerDecision admit(std::size_t slot_hash);

  /// Report the outcome of an admitted call: `degraded` covers fallback
  /// repairs, quarantine routing and timeouts. `probe` must be true iff
  /// admit() returned Probe for this call. Returns true when this call
  /// transitioned the slot to Open (a tumbling-window trip or a failed
  /// probe) -- the moment worth journaling to a health ledger.
  bool record(std::size_t slot_hash, bool degraded, bool probe);

  /// Trip the slot Open immediately with `cooldown_calls` of ref-routed
  /// cooldown, bypassing the window count. Used by the serve-layer
  /// watchdog to mark the class of a stalled dispatch. No-op while the
  /// breaker is disabled.
  void force_open(std::size_t slot_hash, int cooldown_calls);

  /// Start the slot Open with an exhausted cooldown so the next admit()
  /// runs the HalfOpen probe: the restart posture for a breaker trip
  /// replayed from a persisted health ledger.
  void seed_half_open(std::size_t slot_hash);

  BreakerState slot_state(std::size_t slot_hash) const;

  /// Slots currently in each state + cumulative transition count.
  struct Summary {
    std::size_t closed = 0;
    std::size_t open = 0;
    std::size_t half_open = 0;
    std::size_t transitions = 0; ///< state changes since configure()
  };
  Summary summary() const;

private:
  struct Slot {
    mutable std::mutex mu;
    BreakerState state = BreakerState::Closed;
    int window_calls = 0;    ///< Closed: calls in the current window
    int window_degraded = 0; ///< Closed: degraded calls in the window
    int open_remaining = 0;  ///< Open: ref-routed calls left to cooldown
    bool probe_inflight = false; ///< HalfOpen: a probe was handed out
  };

  Slot& slot_for(std::size_t slot_hash) noexcept {
    return slots_[slot_hash % kSlots];
  }
  const Slot& slot_for(std::size_t slot_hash) const noexcept {
    return slots_[slot_hash % kSlots];
  }

  std::array<Slot, kSlots> slots_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex config_mu_;
  BreakerConfig config_{};
  std::atomic<std::uint64_t> transitions_{0};
};

/// What Engine does with a call arriving past the in-flight budget.
enum class OverloadPolicy : std::uint8_t {
  Block = 0,        ///< wait for capacity (bounded by the call deadline)
  ShedNewest = 1,   ///< throw OverloadError without touching the pool
  DegradeToRef = 2, ///< admit, but compute on the scalar reference path
};

const char* to_string(OverloadPolicy policy) noexcept;

/// Transient-fault retry tuning. A transient failure (allocation or
/// worker failure under ExecPolicy::Fallback) is retried up to
/// max_attempts total attempts with capped exponential backoff
/// (base_delay, 2*base_delay, ... capped at 64x), never sleeping past
/// the call deadline. max_attempts <= 1 disables retry (the default:
/// failures degrade immediately, the pre-resilience behaviour).
/// jitter_seed != 0 decorrelates concurrent retriers: each sleep is
/// drawn deterministically from (seed, retry-sequence-number) in
/// [delay/2, delay], so coalesced multi-tenant retries stop storming in
/// lockstep while a fixed seed still replays bit-identically.
struct RetryPolicy {
  int max_attempts = 1;
  std::chrono::nanoseconds base_delay{0};
  std::uint64_t jitter_seed = 0;
};

/// The jittered sleep for one retry: a pure function of (delay, seed,
/// seq) via splitmix64, uniform in [delay/2, delay]. seed == 0 returns
/// `delay` unchanged (jitter disabled, the bit-compatible default).
std::chrono::nanoseconds jittered_backoff(std::chrono::nanoseconds delay,
                                          std::uint64_t seed,
                                          std::uint64_t seq) noexcept;

} // namespace iatf::resilience
