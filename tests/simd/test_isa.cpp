// Runtime ISA detection and backend selection (simd/isa.hpp).
//
// The contract under test:
//   * supported_isas() lists the architecture baseline first, only
//     backends whose width maps onto an instantiated kernel class, and
//     detect_isa() is its widest entry;
//   * parse_isa() round-trips every canonical name case-insensitively
//     and rejects unknown names;
//   * set_active_isa() / iatf_force_isa() REFUSE a backend the host
//     lacks with Status::Unsupported / IATF_STATUS_UNSUPPORTED, leaving
//     the active backend unchanged -- proven by death tests that the
//     refusal is a clean error return followed by a working compute
//     call, never a SIGILL;
//   * the IATF_FORCE_ISA environment override falls back to the
//     detected backend for unknown/unavailable names (checked in a
//     re-exec'd child so first-use initialization runs fresh).
#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "iatf/capi/iatf.h"
#include "iatf/simd/isa.hpp"
#include "iatf/simd/vec.hpp"

namespace iatf::simd {
namespace {

/// An Isa value no host supports alongside its own architecture: the
/// other architecture's baseline.
Isa foreign_isa() {
#if defined(__aarch64__)
  return Isa::Sse2;
#else
  return Isa::Neon;
#endif
}

const char* foreign_isa_name() { return isa_name(foreign_isa()); }

TEST(Isa, SupportedListBaselineFirstDetectWidest) {
  const std::vector<Isa> isas = supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), baseline_isa());
  EXPECT_EQ(detect_isa(), isas.back());
  int prev = 0;
  for (const Isa isa : isas) {
    EXPECT_TRUE(isa_supported(isa));
    const int bytes = isa_bytes(isa);
    EXPECT_TRUE(bytes == 16 || bytes == 32 || bytes == 64)
        << isa_name(isa) << " listed with uninstantiated width " << bytes;
    EXPECT_GE(bytes, prev) << "supported_isas() must be narrowest-first";
    prev = bytes;
  }
}

TEST(Isa, ParseRoundTripsAndRejects) {
  for (const Isa isa : {Isa::Sse2, Isa::Avx2, Isa::Avx512, Isa::Neon}) {
    Isa parsed{};
    EXPECT_TRUE(parse_isa(isa_name(isa), parsed)) << isa_name(isa);
    EXPECT_EQ(parsed, isa);
    // Case-insensitive.
    std::string upper = isa_name(isa);
    for (char& c : upper) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    EXPECT_TRUE(parse_isa(upper, parsed));
    EXPECT_EQ(parsed, isa);
  }
  Isa parsed{};
  EXPECT_FALSE(parse_isa("", parsed));
  EXPECT_FALSE(parse_isa("avx", parsed));
  EXPECT_FALSE(parse_isa("sse42", parsed));
  EXPECT_FALSE(parse_isa("sve", parsed)); // no SVE backend
  EXPECT_FALSE(parse_isa("definitely-not-an-isa", parsed));
}

TEST(Isa, ForeignBaselineIsNeverSupported) {
  EXPECT_FALSE(isa_supported(foreign_isa()));
}

TEST(Isa, SetActiveHonoursSupportedRefusesForeign) {
  const Isa before = active_isa();
  for (const Isa isa : supported_isas()) {
    EXPECT_EQ(set_active_isa(isa), Status::Ok);
    EXPECT_EQ(active_isa(), isa);
    EXPECT_EQ(active_bytes(), isa_bytes(isa));
    EXPECT_EQ(active_pack_width<float>(), isa_bytes(isa) / 4);
    EXPECT_EQ(active_pack_width<double>(), isa_bytes(isa) / 8);
  }
  // Refusal leaves the active backend where the last success put it.
  const Isa last = active_isa();
  EXPECT_EQ(set_active_isa(foreign_isa()), Status::Unsupported);
  EXPECT_EQ(active_isa(), last);
  set_active_isa(before);
}

TEST(Isa, CapiSupportedAndActiveNames) {
  for (const Isa isa : supported_isas()) {
    EXPECT_EQ(iatf_isa_supported(isa_name(isa)), 1) << isa_name(isa);
  }
  EXPECT_EQ(iatf_isa_supported(foreign_isa_name()), 0);
  EXPECT_EQ(iatf_isa_supported("definitely-not-an-isa"), 0);
  EXPECT_EQ(iatf_isa_supported(nullptr), 0);

  Isa active_named{};
  ASSERT_TRUE(parse_isa(iatf_active_isa(), active_named));
  EXPECT_EQ(active_named, active_isa());
}

TEST(Isa, CapiForceRefusesBadNamesWithUnsupported) {
  const Isa before = active_isa();
  EXPECT_EQ(iatf_force_isa("definitely-not-an-isa"),
            IATF_STATUS_UNSUPPORTED);
  EXPECT_EQ(iatf_force_isa(foreign_isa_name()), IATF_STATUS_UNSUPPORTED);
  EXPECT_EQ(iatf_force_isa(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(active_isa(), before) << "a refused force must not switch";
  EXPECT_EQ(iatf_force_isa(isa_name(baseline_isa())), IATF_STATUS_OK);
  EXPECT_EQ(active_isa(), baseline_isa());
  set_active_isa(before);
}

/// One small C-API GEMM on freshly created buffers; returns the status.
/// Used inside death-test children to prove compute still works (and in
/// particular does not SIGILL) after an ISA-selection refusal.
int capi_smoke_gemm() {
  iatf_sbuf* a = iatf_screate(4, 4, 5);
  iatf_sbuf* b = iatf_screate(4, 4, 5);
  iatf_sbuf* c = iatf_screate(4, 4, 5);
  if (a == nullptr || b == nullptr || c == nullptr) {
    return IATF_STATUS_ALLOC_FAILURE;
  }
  float m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<float>(i % 7) * 0.25f + 0.5f;
  }
  for (int64_t l = 0; l < 5; ++l) {
    iatf_simport(a, l, m, 4);
    iatf_simport(b, l, m, 4);
    iatf_simport(c, l, m, 4);
  }
  const int rc = iatf_sgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0f, a, b,
                                    0.0f, c);
  iatf_sdestroy(a);
  iatf_sdestroy(b);
  iatf_sdestroy(c);
  return rc;
}

TEST(IsaDeathTest, ForceUnavailableIsaIsCleanErrorNotSigill) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The satellite fix under proof: naming an ISA this host lacks through
  // the C API must produce IATF_STATUS_UNSUPPORTED and leave the engine
  // computing on the previously active backend -- the child must exit 0,
  // not die on an illegal instruction.
  EXPECT_EXIT(
      {
        const int force_rc = iatf_force_isa(foreign_isa_name());
        const int gemm_rc = capi_smoke_gemm();
        std::exit(force_rc == IATF_STATUS_UNSUPPORTED &&
                          gemm_rc == IATF_STATUS_OK
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(IsaDeathTest, EnvOverrideUnknownNameFallsBackToDetected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // threadsafe death tests re-exec the binary, so the child initializes
  // the active backend from scratch with the poisoned environment.
  ASSERT_EQ(setenv("IATF_FORCE_ISA", "definitely-not-an-isa", 1), 0);
  EXPECT_EXIT(
      {
        const bool fell_back = active_isa() == detect_isa();
        std::exit(fell_back && capi_smoke_gemm() == IATF_STATUS_OK ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  unsetenv("IATF_FORCE_ISA");
}

TEST(IsaDeathTest, EnvOverrideUnavailableIsaFallsBackToDetected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_EQ(setenv("IATF_FORCE_ISA", foreign_isa_name(), 1), 0);
  EXPECT_EXIT(
      {
        const bool fell_back = active_isa() == detect_isa();
        std::exit(fell_back && capi_smoke_gemm() == IATF_STATUS_OK ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  unsetenv("IATF_FORCE_ISA");
}

TEST(IsaDeathTest, EnvOverrideBaselineIsHonoured) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_EQ(setenv("IATF_FORCE_ISA", isa_name(baseline_isa()), 1), 0);
  EXPECT_EXIT(
      {
        const bool honoured = active_isa() == baseline_isa();
        std::exit(honoured && capi_smoke_gemm() == IATF_STATUS_OK ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  unsetenv("IATF_FORCE_ISA");
}

} // namespace
} // namespace iatf::simd
