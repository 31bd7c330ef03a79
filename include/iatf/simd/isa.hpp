// Runtime ISA detection and backend selection.
//
// The kernels are compiled at several fixed register widths (the Bytes
// template parameter threaded through kreg / Registry / plans / Engine);
// this header decides which of those widths the *running machine* should
// use. An Isa names one (architecture, width) backend:
//
//   x86-64:  Sse2 (16 B, always present)  Avx2 (32 B)  Avx512 (64 B)
//   AArch64: Neon (16 B, always present)
//
// detect_isa() returns the widest backend the host verifiably supports
// (CPUID on x86; AArch64 has its NEON baseline only). supported_isas()
// enumerates all of them, narrowest first -- the golden conformance
// sweep walks this list.
//
// The active backend defaults to detect_isa() and can be overridden:
//   * IATF_FORCE_ISA=<name> in the environment (read once, at first use).
//     Naming an ISA the host lacks falls back to the detected widest
//     backend -- forcing must never introduce a SIGILL.
//   * set_active_isa() / iatf_force_isa() from code, which instead REFUSE
//     an unsupported ISA with Status::Unsupported so callers get a
//     diagnosable error, again never a SIGILL.
//
// Each backend is a distinct kernel class end to end: sched::ClassKey
// carries the width, so plans, the sharded plan cache, kernel
// verify/quarantine state and the tuning-table hardware signature are all
// per-(ISA, width).
#pragma once

#include <string>
#include <vector>

#include "iatf/common/status.hpp"
#include "iatf/common/types.hpp"

namespace iatf::simd {

enum class Isa : int {
  Sse2 = 0,   ///< x86-64 baseline, 128-bit xmm
  Avx2 = 1,   ///< x86-64 AVX2+FMA, 256-bit ymm
  Avx512 = 2, ///< x86-64 AVX-512F, 512-bit zmm
  Neon = 3,   ///< AArch64 baseline, 128-bit q-register (the paper's ISA)
};

/// Lower-case canonical name ("sse2", "avx2", "avx512", "neon").
const char* isa_name(Isa isa);

/// Parse a canonical name (case-insensitive). Returns true and sets `out`
/// on success; unknown names return false.
bool parse_isa(const std::string& name, Isa& out);

/// Register width in bytes of one backend: a constant 16/32/64.
int isa_bytes(Isa isa);

/// The architecture's always-present 128-bit backend (Sse2 or Neon).
Isa baseline_isa();

/// Every backend the host verifiably supports, narrowest first. The
/// baseline is always element 0; a wider backend is listed only if the
/// CPU advertises it (CPUID).
std::vector<Isa> supported_isas();

/// Widest verified backend on this host (the last supported_isas() entry).
Isa detect_isa();

/// True if `isa` appears in supported_isas().
bool isa_supported(Isa isa);

/// The backend compute entry points dispatch to by default. Initialized
/// on first use from IATF_FORCE_ISA (falling back to detect_isa() when
/// the named ISA is unknown or unsupported), else detect_isa().
Isa active_isa();

/// Point the default dispatch at `isa`. Refuses backends the host lacks
/// with Status::Unsupported and leaves the active backend unchanged --
/// this, not SIGILL, is what a bad iatf_force_isa() call produces.
Status set_active_isa(Isa isa);

/// Register width in bytes of the active backend.
inline int active_bytes() { return isa_bytes(active_isa()); }

/// Pack width (matrices interleaved per register) of the active backend
/// for scalar type T: the input-aware analogue of pack_width_v<T>.
template <class T> inline int active_pack_width() {
  return active_bytes() / static_cast<int>(sizeof(real_t<T>));
}

} // namespace iatf::simd
