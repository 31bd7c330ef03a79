// Runtime ISA detection: CPUID on x86-64 (AArch64 runs its NEON
// baseline), plus the IATF_FORCE_ISA override with fall-back-to-detected
// semantics.

#include "iatf/simd/isa.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <mutex>

namespace iatf::simd {
namespace {

#if defined(__x86_64__)
bool cpu_has(Isa isa) {
  switch (isa) {
#if defined(__GNUC__) || defined(__clang__)
  case Isa::Avx2:
    // The 256-bit kernels lean on fused multiply-add, so AVX2 without
    // FMA (no shipping CPU, but CPUID allows it) stays unlisted.
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  case Isa::Avx512:
    return __builtin_cpu_supports("avx512f");
#endif
  default:
    return false;
  }
}
#endif

// Active-backend state: -1 = not yet initialized. Initialization (env
// read + detection) runs once; afterwards reads are a relaxed atomic
// load so the dispatch hot path stays lock-free.
std::atomic<int> g_active{-1};
std::once_flag g_active_once;

void init_active_locked() {
  Isa chosen = detect_isa();
  const char* forced = std::getenv("IATF_FORCE_ISA");
  if (forced != nullptr && *forced != '\0') {
    Isa parsed;
    // Unknown or unsupported names fall back to the detected widest
    // verified backend: a stale IATF_FORCE_ISA in a job's environment
    // must degrade the run, never SIGILL it.
    if (parse_isa(forced, parsed) && isa_supported(parsed)) {
      chosen = parsed;
    }
  }
  g_active.store(static_cast<int>(chosen), std::memory_order_relaxed);
}

} // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
  case Isa::Sse2:
    return "sse2";
  case Isa::Avx2:
    return "avx2";
  case Isa::Avx512:
    return "avx512";
  case Isa::Neon:
    return "neon";
  }
  return "unknown";
}

bool parse_isa(const std::string& name, Isa& out) {
  std::string low;
  low.reserve(name.size());
  for (char c : name) {
    low.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  for (Isa isa : {Isa::Sse2, Isa::Avx2, Isa::Avx512, Isa::Neon}) {
    if (low == isa_name(isa)) {
      out = isa;
      return true;
    }
  }
  return false;
}

int isa_bytes(Isa isa) {
  switch (isa) {
  case Isa::Sse2:
  case Isa::Neon:
    return 16;
  case Isa::Avx2:
    return 32;
  case Isa::Avx512:
    return 64;
  }
  return 0;
}

Isa baseline_isa() {
#if defined(__aarch64__)
  return Isa::Neon;
#else
  return Isa::Sse2;
#endif
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  out.push_back(baseline_isa());
#if defined(__x86_64__)
  for (Isa isa : {Isa::Avx2, Isa::Avx512}) {
    if (cpu_has(isa)) {
      out.push_back(isa);
    }
  }
#endif
  return out;
}

Isa detect_isa() {
  const std::vector<Isa> all = supported_isas();
  return all.back();
}

bool isa_supported(Isa isa) {
  for (Isa s : supported_isas()) {
    if (s == isa) {
      return true;
    }
  }
  return false;
}

Isa active_isa() {
  int cur = g_active.load(std::memory_order_relaxed);
  if (cur < 0) {
    std::call_once(g_active_once, init_active_locked);
    cur = g_active.load(std::memory_order_relaxed);
  }
  return static_cast<Isa>(cur);
}

Status set_active_isa(Isa isa) {
  if (!isa_supported(isa)) {
    return Status::Unsupported;
  }
  // Force initialization first so a concurrent first-use cannot overwrite
  // the explicit selection with the env/default choice.
  (void)active_isa();
  g_active.store(static_cast<int>(isa), std::memory_order_relaxed);
  return Status::Ok;
}

} // namespace iatf::simd
