// Seeded request schedules. Everything a workload sends is a pure
// function of (seed, purpose tag), drawn from a fully specified generator
// (SplitMix64), so the same seed gives the same request sequence on every
// host and standard library.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pb {

/// SplitMix64 stream. `tag` separates independent purposes drawn from
/// one seed (phase, connection, data fill).
class Stream {
public:
  Stream(std::uint64_t seed, std::uint64_t tag);
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  /// Index drawn with probability proportional to `weights`.
  std::size_t pick(std::span<const double> weights);

private:
  std::uint64_t state_;
};

/// One open-loop arrival, timed relative to the phase start.
struct Arrival {
  std::int64_t due_ns = 0;
  std::uint16_t cls = 0;     ///< request class index
  std::uint8_t tenant = 0;   ///< tenant index
  std::uint8_t variant = 0;  ///< operand variant of the class
  std::uint32_t lane = 0;    ///< checked lane (taken modulo the batch)

  friend bool operator==(const Arrival&, const Arrival&) = default;
};

/// Poisson arrivals at `rate` per second for `seconds`; classes and
/// tenants drawn from their weights.
std::vector<Arrival> open_schedule(std::uint64_t seed, std::uint64_t phase,
                                   double rate, double seconds,
                                   std::span<const double> class_weights,
                                   std::span<const double> tenant_weights,
                                   int variants);

/// One wire-rpc frame to send.
struct WireReq {
  bool dbl = false;   ///< 'd' (else 's')
  bool heavy = false; ///< byte-heavy frame (else small)
  std::uint8_t variant = 0;
  std::uint32_t lane = 0;

  friend bool operator==(const WireReq&, const WireReq&) = default;
};

/// Endless frame sequence of one wire-rpc connection.
class WireStream {
public:
  static constexpr double kHeavyShare = 0.05;
  WireStream(std::uint64_t seed, std::uint64_t conn, int variants);
  WireReq next();

private:
  Stream rng_;
  int variants_;
};

} // namespace pb
