#include "iatf/resilience/resilience.hpp"

namespace iatf::resilience {

const char* to_string(KernelState state) noexcept {
  switch (state) {
  case KernelState::Untested:
    return "untested";
  case KernelState::Verified:
    return "verified";
  case KernelState::Quarantined:
    return "quarantined";
  }
  return "unknown";
}

const char* to_string(BreakerState state) noexcept {
  switch (state) {
  case BreakerState::Closed:
    return "closed";
  case BreakerState::Open:
    return "open";
  case BreakerState::HalfOpen:
    return "half-open";
  }
  return "unknown";
}

const char* to_string(OverloadPolicy policy) noexcept {
  switch (policy) {
  case OverloadPolicy::Block:
    return "block";
  case OverloadPolicy::ShedNewest:
    return "shed-newest";
  case OverloadPolicy::DegradeToRef:
    return "degrade-to-ref";
  }
  return "unknown";
}

std::size_t KernelIdHash::operator()(const KernelId& k) const noexcept {
  // FNV-1a, the same scheme as sched::ClassKeyHash.
  std::size_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(k.kind) |
      static_cast<std::uint64_t>(k.dtype) << 8 |
      static_cast<std::uint64_t>(k.bytes) << 16);
  mix(static_cast<std::uint64_t>(k.m) |
      static_cast<std::uint64_t>(k.n) << 32);
  return h;
}

KernelState KernelGuard::state(const KernelId& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = states_.find(id);
  return it == states_.end() ? KernelState::Untested : it->second;
}

void KernelGuard::mark_verified(const KernelId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = states_.try_emplace(id, KernelState::Verified);
  if (inserted) {
    ++verified_;
  }
  // Never resurrect a quarantined kernel implicitly; only reset() does.
}

void KernelGuard::mark_quarantined(const KernelId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = states_.try_emplace(id, KernelState::Quarantined);
  if (inserted) {
    ++quarantined_;
    return;
  }
  if (it->second == KernelState::Verified) {
    it->second = KernelState::Quarantined;
    --verified_;
    ++quarantined_;
  }
}

bool KernelGuard::any_quarantined(const std::vector<KernelId>& ids) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const KernelId& id : ids) {
    const auto it = states_.find(id);
    if (it != states_.end() && it->second == KernelState::Quarantined) {
      return true;
    }
  }
  return false;
}

std::size_t KernelGuard::verified_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return verified_;
}

std::size_t KernelGuard::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_;
}

void KernelGuard::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  states_.clear();
  verified_ = 0;
  quarantined_ = 0;
}

void CircuitBreaker::configure(const BreakerConfig& config) {
  std::lock_guard<std::mutex> lock(config_mu_);
  config_ = config;
  for (Slot& slot : slots_) {
    std::lock_guard<std::mutex> sl(slot.mu);
    slot.state = BreakerState::Closed;
    slot.window_calls = 0;
    slot.window_degraded = 0;
    slot.open_remaining = 0;
    slot.probe_inflight = false;
  }
  transitions_.store(0, std::memory_order_relaxed);
  enabled_.store(config.enabled(), std::memory_order_relaxed);
}

BreakerConfig CircuitBreaker::config() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return config_;
}

BreakerDecision CircuitBreaker::admit(std::size_t slot_hash) {
  if (!enabled()) {
    return BreakerDecision::Allow;
  }
  Slot& slot = slot_for(slot_hash);
  std::lock_guard<std::mutex> lock(slot.mu);
  switch (slot.state) {
  case BreakerState::Closed:
    return BreakerDecision::Allow;
  case BreakerState::Open:
    if (slot.open_remaining > 0) {
      --slot.open_remaining;
      return BreakerDecision::RefRoute;
    }
    // Cooldown elapsed: HalfOpen, and this call is the probe.
    slot.state = BreakerState::HalfOpen;
    slot.probe_inflight = true;
    transitions_.fetch_add(1, std::memory_order_relaxed);
    return BreakerDecision::Probe;
  case BreakerState::HalfOpen:
    if (!slot.probe_inflight) {
      slot.probe_inflight = true;
      return BreakerDecision::Probe;
    }
    return BreakerDecision::RefRoute;
  }
  return BreakerDecision::Allow;
}

bool CircuitBreaker::record(std::size_t slot_hash, bool degraded,
                            bool probe) {
  if (!enabled()) {
    return false;
  }
  const BreakerConfig cfg = config();
  Slot& slot = slot_for(slot_hash);
  std::lock_guard<std::mutex> lock(slot.mu);
  if (probe) {
    // Probe verdict decides the slot regardless of interleaved
    // RefRouted traffic: success restores Closed, failure re-opens.
    slot.probe_inflight = false;
    if (slot.state == BreakerState::HalfOpen) {
      slot.state = degraded ? BreakerState::Open : BreakerState::Closed;
      slot.open_remaining = degraded ? cfg.cooldown : 0;
      slot.window_calls = 0;
      slot.window_degraded = 0;
      transitions_.fetch_add(1, std::memory_order_relaxed);
      return degraded;
    }
    return false;
  }
  if (slot.state != BreakerState::Closed) {
    return false; // late result from before a transition: ignore
  }
  ++slot.window_calls;
  if (degraded) {
    ++slot.window_degraded;
  }
  if (slot.window_calls >= cfg.window) {
    const bool trip = slot.window_degraded >= cfg.threshold;
    slot.window_calls = 0;
    slot.window_degraded = 0;
    if (trip) {
      slot.state = BreakerState::Open;
      // A cooldown of N means N ref-routed calls, then the next admit
      // becomes the HalfOpen probe.
      slot.open_remaining = cfg.cooldown > 0 ? cfg.cooldown : 0;
      transitions_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void CircuitBreaker::force_open(std::size_t slot_hash, int cooldown_calls) {
  if (!enabled()) {
    return;
  }
  Slot& slot = slot_for(slot_hash);
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.state != BreakerState::Open || slot.open_remaining != 0) {
    transitions_.fetch_add(1, std::memory_order_relaxed);
  }
  slot.state = BreakerState::Open;
  slot.open_remaining = cooldown_calls > 0 ? cooldown_calls : 0;
  slot.window_calls = 0;
  slot.window_degraded = 0;
  slot.probe_inflight = false;
}

void CircuitBreaker::seed_half_open(std::size_t slot_hash) {
  // Open with an exhausted cooldown: the very next admit() transitions
  // the slot HalfOpen and hands that call out as the probe -- exactly
  // the restart posture a replayed breaker trip should leave behind.
  force_open(slot_hash, 0);
}

BreakerState CircuitBreaker::slot_state(std::size_t slot_hash) const {
  const Slot& slot = slot_for(slot_hash);
  std::lock_guard<std::mutex> lock(slot.mu);
  return slot.state;
}

std::chrono::nanoseconds jittered_backoff(std::chrono::nanoseconds delay,
                                          std::uint64_t seed,
                                          std::uint64_t seq) noexcept {
  if (seed == 0 || delay.count() <= 0) {
    return delay; // jitter disabled: bit-compatible with the old backoff
  }
  // splitmix64 over (seed, seq): a pure function of the two inputs, so a
  // fixed seed replays the exact sleep schedule while different retry
  // sequence numbers (and different seeds across tenants) decorrelate.
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ull * (seq + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  // Uniform in [delay/2, delay]: full-range jitter would let a retry
  // fire immediately, defeating the backoff's load-shedding purpose.
  const std::uint64_t half =
      static_cast<std::uint64_t>(delay.count()) / 2;
  const std::uint64_t span = half + 1;
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(half + x % span));
}

CircuitBreaker::Summary CircuitBreaker::summary() const {
  Summary s;
  for (const Slot& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot.mu);
    switch (slot.state) {
    case BreakerState::Closed:
      ++s.closed;
      break;
    case BreakerState::Open:
      ++s.open;
      break;
    case BreakerState::HalfOpen:
      ++s.half_open;
      break;
    }
  }
  s.transitions = static_cast<std::size_t>(
      transitions_.load(std::memory_order_relaxed));
  return s;
}

} // namespace iatf::resilience
