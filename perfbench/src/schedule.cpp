#include "schedule.hpp"

#include <cmath>

namespace pb {

Stream::Stream(std::uint64_t seed, std::uint64_t tag)
    : state_(seed * 0x9e3779b97f4a7c15ull ^ (tag + 0x632be59bd9b4e019ull)) {
  next(); // decorrelate nearby (seed, tag) pairs
}

std::uint64_t Stream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Stream::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Stream::pick(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    total += w;
  }
  double u = uniform() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (u < weights[i]) {
      return i;
    }
    u -= weights[i];
  }
  return weights.size() - 1;
}

std::vector<Arrival> open_schedule(std::uint64_t seed, std::uint64_t phase,
                                   double rate, double seconds,
                                   std::span<const double> class_weights,
                                   std::span<const double> tenant_weights,
                                   int variants) {
  Stream rng(seed, 0x0be0000 + phase);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate * 1e9;
    if (t >= horizon_ns) {
      break;
    }
    Arrival a;
    a.due_ns = static_cast<std::int64_t>(t);
    a.cls = static_cast<std::uint16_t>(rng.pick(class_weights));
    a.tenant = static_cast<std::uint8_t>(rng.pick(tenant_weights));
    a.variant = static_cast<std::uint8_t>(rng.next() % variants);
    a.lane = static_cast<std::uint32_t>(rng.next() >> 32);
    out.push_back(a);
  }
  return out;
}

WireStream::WireStream(std::uint64_t seed, std::uint64_t conn, int variants)
    : rng_(seed, 0x1e0000 + conn), variants_(variants) {}

WireReq WireStream::next() {
  WireReq r;
  r.dbl = (rng_.next() & 1) != 0;
  r.heavy = rng_.uniform() < kHeavyShare;
  r.variant = static_cast<std::uint8_t>(rng_.next() % variants_);
  r.lane = static_cast<std::uint32_t>(rng_.next() >> 32);
  return r;
}

} // namespace pb
