// Minimal kernel-trust vocabulary shared by the execution plans and the
// resilience layer (resilience/resilience.hpp).
//
// Plans record which registry kernels their command queues call
// (KernelUse, deduplicated by note_kernel) and carry a cached
// verification verdict (PlanVerify) so the engine's dispatch can gate on
// one relaxed atomic load. This header is deliberately tiny and free of
// iatf dependencies: plan headers include it without pulling the
// engine-side guard/breaker machinery into every plan user.
#pragma once

#include <cstdint>
#include <vector>

namespace iatf::resilience {

/// Trust state of one generated kernel (atomic per kernel, owned by the
/// engine's KernelGuard). Untested -> Verified/Quarantined transitions are
/// one-way per kernel until KernelGuard::reset().
enum class KernelState : std::uint8_t {
  Untested = 0,    ///< never canary-checked against iatf::ref
  Verified = 1,    ///< canary output matched the scalar reference
  Quarantined = 2, ///< mismatched or threw on the canary; never dispatched
};

const char* to_string(KernelState state) noexcept;

/// Cached whole-plan verdict derived from the states of every kernel the
/// plan references. Stored on the plan as a relaxed atomic so the hot
/// dispatch path pays one load once the plan is verified.
enum class PlanVerify : std::uint8_t {
  Untested = 0,
  Verified = 1,
  Quarantined = 2, ///< references >= 1 quarantined kernel: ref-route
};

/// One registry kernel referenced by a plan's command queue, identified
/// by its function kind and tile size (dtype and SIMD width are added by
/// the engine, which knows the plan's template parameters).
struct KernelUse {
  /// 'g' gemm (GEMM plans and TRMM's rectangular updates), 't' trsm-tri,
  /// 'r' trsm-rect, 'm' trmm-tri.
  char kind = 0;
  int m = 0; ///< tile rows ('g'/'r': mc, 't'/'m': triangle M)
  int n = 0; ///< tile cols (nc)

  friend bool operator==(const KernelUse&, const KernelUse&) = default;
};

/// Record a distinct registry-kernel reference (the sets are tiny: at
/// most cap/remainder per dimension, so linear dedup is fine).
inline void note_kernel(std::vector<KernelUse>& used, char kind,
                        std::int64_t m, std::int64_t n) {
  const KernelUse use{kind, static_cast<int>(m), static_cast<int>(n)};
  for (const KernelUse& e : used) {
    if (e == use) {
      return;
    }
  }
  used.push_back(use);
}

} // namespace iatf::resilience
