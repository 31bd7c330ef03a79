// Garbage-input sweep over the C API: null handles, negative and
// overflowing dimensions, out-of-range enum values, shape-mismatched
// operands and bogus server tickets. The contract under test is narrow
// and absolute -- every call returns a stable iatf_status (or NULL from
// a constructor) and the process never crashes, because the C boundary
// is where unvalidated caller input first touches the library.
//
// kEntryPoints holds one row per function declared in iatf.h; the
// CapiEntryPointCoverage ctest (check_capi_coverage.cmake) preprocesses
// the header and fails when a declared function has no row.
#include <cmath>
#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "iatf/capi/iatf.h"

namespace {

// Every status a garbage call may legitimately report. OK is included:
// some randomized descriptors are accidentally valid, and that is fine
// -- the sweep asserts stability, not rejection.
bool stable_status(int rc) {
  return rc >= IATF_STATUS_OK && rc <= IATF_STATUS_WATCHDOG;
}

// Enum values far outside every iatf_* enum's range.
template <class E>
E bad_enum(std::mt19937& rng) {
  static const int garbage[] = {-1, 2, 7, 99, 1 << 20, -12345};
  return static_cast<E>(
      garbage[rng() % (sizeof(garbage) / sizeof(garbage[0]))]);
}

// Strictly negative extents: always a descriptor error, rejected before
// any allocation or source read. Huge positive extents are deliberately
// absent -- under ASan an attempted multi-terabyte allocation aborts the
// process inside the sanitizer allocator instead of returning NULL, so
// they cannot be swept portably.
int64_t bad_dim(std::mt19937& rng) {
  static const int64_t garbage[] = {-1, -7, -(int64_t{1} << 40), INT64_MIN};
  return garbage[rng() % (sizeof(garbage) / sizeof(garbage[0]))];
}

class CapiFuzz : public ::testing::Test {
protected:
  void TearDown() override { iatf_clear_error(); }
};

// --- Every entry point ---------------------------------------------------

void invalid(int rc) { EXPECT_EQ(rc, IATF_STATUS_INVALID_ARG); }
void stable(int rc) { EXPECT_TRUE(stable_status(rc)) << "rc " << rc; }

// A path no test host can read or write.
constexpr const char* kMissingPath = "/nonexistent-iatf-dir/table.bin";

// Every field out of range: each falls back to its default.
constexpr iatf_serve_config kGarbageServeConfig = {-5, -1, -9,
                                                   IATF_OVERLOAD_SHED, -3.0};

// One past every policy enum's last value.
constexpr int kBadPolicy = 9;
constexpr iatf_serve_config kBadPolicyServeConfig = {
    0, 0, 0, static_cast<iatf_overload_policy>(kBadPolicy), 0.0};

struct EntryPoint {
  const char* name;
  void (*probe)();
};

// One row per C function: `f` is the function named by the row, so a
// row cannot probe a different function than it lists. Probes pass null
// handles and garbage values; state setters write back what they read
// (or a value the setter clamps) so later rows see a sane engine.
#define IATF_ENTRY(fn, ...)                                                  \
  EntryPoint {                                                               \
    #fn, [] {                                                                \
      [[maybe_unused]] auto* f = &fn;                                        \
      __VA_ARGS__;                                                           \
    }                                                                        \
  }

const EntryPoint kEntryPoints[] = {
    // Library-wide state, errors, ISA, health and tuning.
    IATF_ENTRY(iatf_version, EXPECT_NE(f(), nullptr)),
    IATF_ENTRY(iatf_last_error, EXPECT_NE(f(), nullptr)),
    IATF_ENTRY(iatf_clear_error, f()),
    IATF_ENTRY(iatf_last_error_detail,
               EXPECT_TRUE(f(nullptr) == 0 || f(nullptr) == 1)),
    IATF_ENTRY(iatf_set_exec_policy,
               const iatf_exec_policy before = iatf_get_exec_policy();
               f(static_cast<iatf_exec_policy>(kBadPolicy));
               EXPECT_EQ(iatf_get_exec_policy(), before)),
    IATF_ENTRY(iatf_get_exec_policy, EXPECT_LE(f(), IATF_EXEC_FALLBACK)),
    IATF_ENTRY(iatf_set_call_deadline_ms, f(-5.0)),
    IATF_ENTRY(iatf_get_call_deadline_ms, EXPECT_GE(f(), 0.0)),
    IATF_ENTRY(iatf_force_isa, invalid(f(nullptr)); stable(f("no-such-isa"))),
    IATF_ENTRY(iatf_active_isa, EXPECT_NE(f(), nullptr)),
    IATF_ENTRY(iatf_isa_supported,
               EXPECT_EQ(f(nullptr), 0); EXPECT_EQ(f("no-such-isa"), 0)),
    IATF_ENTRY(iatf_get_engine_stats, invalid(f(nullptr))),
    IATF_ENTRY(iatf_engine_stats_reset, f()),
    IATF_ENTRY(iatf_get_engine_health, invalid(f(nullptr))),
    IATF_ENTRY(iatf_set_kernel_verification, f(iatf_get_kernel_verification())),
    IATF_ENTRY(iatf_get_kernel_verification, EXPECT_TRUE(f() == 0 || f() == 1)),
    IATF_ENTRY(iatf_engine_self_test, EXPECT_GE(f(), 0)),
    IATF_ENTRY(iatf_set_max_inflight, f(-3)),
    IATF_ENTRY(iatf_get_max_inflight, EXPECT_GE(f(), 0)),
    IATF_ENTRY(iatf_set_overload_policy,
               const iatf_overload_policy before = iatf_get_overload_policy();
               f(static_cast<iatf_overload_policy>(kBadPolicy));
               EXPECT_EQ(iatf_get_overload_policy(), before)),
    IATF_ENTRY(iatf_get_overload_policy, EXPECT_LE(f(), IATF_OVERLOAD_DEGRADE)),
    IATF_ENTRY(iatf_set_retry_policy, f(-3, -1.0)),
    IATF_ENTRY(iatf_set_retry_jitter_seed, f(~uint64_t{0})),
    IATF_ENTRY(iatf_set_breaker, f(-1, -1, -1)),
    IATF_ENTRY(iatf_health_ledger_load, stable(f(""))),
    IATF_ENTRY(iatf_health_ledger_save, stable(f())),
    IATF_ENTRY(iatf_health_ledger_path, EXPECT_NE(f(), nullptr)),
    IATF_ENTRY(iatf_health_ledger_get_stats, invalid(f(nullptr))),
    IATF_ENTRY(iatf_set_plan_cache_capacity,
               invalid(f(0)); invalid(f(INT64_MIN))),
    IATF_ENTRY(iatf_clear_plan_cache, f()),
    IATF_ENTRY(iatf_set_plan_tuning, EXPECT_EQ(f(nullptr), IATF_STATUS_OK)),
    IATF_ENTRY(iatf_tune_gemm,
               stable(f('q', IATF_NOTRANS, IATF_NOTRANS, -1, 4, 4, 2, 1))),
    IATF_ENTRY(iatf_tune_trsm,
               stable(f('q', IATF_LEFT, IATF_LOWER, IATF_NOTRANS, IATF_NONUNIT,
                        -1, 4, 2, 1))),
    IATF_ENTRY(iatf_tune_count, EXPECT_GE(f(), 0)),
    IATF_ENTRY(iatf_tune_clear, f()),
    IATF_ENTRY(iatf_tune_save, stable(f(kMissingPath))),
    IATF_ENTRY(iatf_tune_load, stable(f(kMissingPath))),
    // float: buffers, BLAS, packed handles, factorisations.
    IATF_ENTRY(iatf_screate, EXPECT_EQ(f(-1, 4, 2), nullptr)),
    IATF_ENTRY(iatf_sdestroy, f(nullptr)),
    IATF_ENTRY(iatf_srows, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_scols, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_sbatch, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_simport, invalid(f(nullptr, 0, nullptr, 4))),
    IATF_ENTRY(iatf_sexport, invalid(f(nullptr, 0, nullptr, 4))),
    IATF_ENTRY(iatf_spad_identity, invalid(f(nullptr))),
    IATF_ENTRY(iatf_sgemm_compact,
               invalid(f(IATF_NOTRANS, IATF_NOTRANS, 1.0f, nullptr, nullptr,
                         0.0f, nullptr))),
    IATF_ENTRY(iatf_strsm_compact,
               invalid(f(IATF_LEFT, IATF_LOWER, IATF_NOTRANS, IATF_NONUNIT,
                         1.0f, nullptr, nullptr))),
    IATF_ENTRY(iatf_sgemm_grouped, invalid(f(nullptr, 3))),
    IATF_ENTRY(iatf_strsm_grouped, invalid(f(nullptr, 3))),
    IATF_ENTRY(iatf_spack, EXPECT_EQ(f(nullptr, 4, 4, 4, 16, 2), nullptr)),
    IATF_ENTRY(iatf_srepack, invalid(f(nullptr, nullptr, 4, 16))),
    IATF_ENTRY(iatf_sunpack, invalid(f(nullptr, nullptr, 4, 16))),
    IATF_ENTRY(iatf_sfree_packed, f(nullptr)),
    IATF_ENTRY(iatf_spacked_rows, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_spacked_cols, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_spacked_batch, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_spacked_epoch, EXPECT_EQ(f(nullptr), 0u)),
    IATF_ENTRY(iatf_sgemm_packed,
               invalid(f(IATF_NOTRANS, IATF_NOTRANS, 1.0f, nullptr, nullptr,
                         0.0f, nullptr))),
    IATF_ENTRY(iatf_strsm_packed,
               invalid(f(IATF_LEFT, IATF_LOWER, IATF_NOTRANS, IATF_NONUNIT,
                         1.0f, nullptr, nullptr))),
    IATF_ENTRY(iatf_spotrf_batch, invalid(f(nullptr))),
    IATF_ENTRY(iatf_sgetrfnp_batch, invalid(f(nullptr))),
    IATF_ENTRY(iatf_strtri_batch,
               invalid(f(IATF_LOWER, IATF_NONUNIT, nullptr))),
    IATF_ENTRY(iatf_spotrf_packed, invalid(f(nullptr))),
    IATF_ENTRY(iatf_sgetrfnp_packed, invalid(f(nullptr))),
    IATF_ENTRY(iatf_strtri_packed,
               invalid(f(IATF_LOWER, IATF_NONUNIT, nullptr))),
    IATF_ENTRY(iatf_strmm_compact,
               invalid(f(IATF_LEFT, IATF_LOWER, IATF_NOTRANS, IATF_NONUNIT,
                         1.0f, nullptr, nullptr))),
    IATF_ENTRY(iatf_sgetrfnp_compact, invalid(f(nullptr))),
    IATF_ENTRY(iatf_spotrf_compact, invalid(f(nullptr))),
    // double: buffers, BLAS, packed handles, factorisations.
    IATF_ENTRY(iatf_dcreate, EXPECT_EQ(f(-1, 4, 2), nullptr)),
    IATF_ENTRY(iatf_ddestroy, f(nullptr)),
    IATF_ENTRY(iatf_drows, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_dcols, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_dbatch, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_dimport, invalid(f(nullptr, 0, nullptr, 4))),
    IATF_ENTRY(iatf_dexport, invalid(f(nullptr, 0, nullptr, 4))),
    IATF_ENTRY(iatf_dpad_identity, invalid(f(nullptr))),
    IATF_ENTRY(iatf_dgemm_compact,
               invalid(f(IATF_NOTRANS, IATF_NOTRANS, 1.0, nullptr, nullptr, 0.0,
                         nullptr))),
    IATF_ENTRY(iatf_dtrsm_compact,
               invalid(f(IATF_LEFT, IATF_LOWER, IATF_NOTRANS, IATF_NONUNIT, 1.0,
                         nullptr, nullptr))),
    IATF_ENTRY(iatf_dgemm_grouped, invalid(f(nullptr, 3))),
    IATF_ENTRY(iatf_dtrsm_grouped, invalid(f(nullptr, 3))),
    IATF_ENTRY(iatf_dpack, EXPECT_EQ(f(nullptr, 4, 4, 4, 16, 2), nullptr)),
    IATF_ENTRY(iatf_drepack, invalid(f(nullptr, nullptr, 4, 16))),
    IATF_ENTRY(iatf_dunpack, invalid(f(nullptr, nullptr, 4, 16))),
    IATF_ENTRY(iatf_dfree_packed, f(nullptr)),
    IATF_ENTRY(iatf_dpacked_rows, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_dpacked_cols, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_dpacked_batch, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_dpacked_epoch, EXPECT_EQ(f(nullptr), 0u)),
    IATF_ENTRY(iatf_dgemm_packed,
               invalid(f(IATF_NOTRANS, IATF_NOTRANS, 1.0, nullptr, nullptr, 0.0,
                         nullptr))),
    IATF_ENTRY(iatf_dtrsm_packed,
               invalid(f(IATF_LEFT, IATF_LOWER, IATF_NOTRANS, IATF_NONUNIT, 1.0,
                         nullptr, nullptr))),
    IATF_ENTRY(iatf_dpotrf_batch, invalid(f(nullptr))),
    IATF_ENTRY(iatf_dgetrfnp_batch, invalid(f(nullptr))),
    IATF_ENTRY(iatf_dtrtri_batch,
               invalid(f(IATF_LOWER, IATF_NONUNIT, nullptr))),
    IATF_ENTRY(iatf_dpotrf_packed, invalid(f(nullptr))),
    IATF_ENTRY(iatf_dgetrfnp_packed, invalid(f(nullptr))),
    IATF_ENTRY(iatf_dtrtri_packed,
               invalid(f(IATF_LOWER, IATF_NONUNIT, nullptr))),
    IATF_ENTRY(iatf_dtrmm_compact,
               invalid(f(IATF_LEFT, IATF_LOWER, IATF_NOTRANS, IATF_NONUNIT, 1.0,
                         nullptr, nullptr))),
    IATF_ENTRY(iatf_dgetrfnp_compact, invalid(f(nullptr))),
    IATF_ENTRY(iatf_dpotrf_compact, invalid(f(nullptr))),
    // complex float: buffers, BLAS, packed handles, factorisations.
    IATF_ENTRY(iatf_ccreate, EXPECT_EQ(f(-1, 4, 2), nullptr)),
    IATF_ENTRY(iatf_cdestroy, f(nullptr)),
    IATF_ENTRY(iatf_crows, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_ccols, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_cbatch, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_cimport, invalid(f(nullptr, 0, nullptr, 4))),
    IATF_ENTRY(iatf_cexport, invalid(f(nullptr, 0, nullptr, 4))),
    IATF_ENTRY(iatf_cpad_identity, invalid(f(nullptr))),
    IATF_ENTRY(iatf_cgemm_compact,
               invalid(f(IATF_NOTRANS, IATF_NOTRANS, 1.0f, 0.0f, nullptr,
                         nullptr, 0.0f, 0.0f, nullptr))),
    IATF_ENTRY(iatf_ctrsm_compact,
               invalid(f(IATF_LEFT, IATF_LOWER, IATF_NOTRANS, IATF_NONUNIT,
                         1.0f, 0.0f, nullptr, nullptr))),
    IATF_ENTRY(iatf_cgemm_grouped, invalid(f(nullptr, 3))),
    IATF_ENTRY(iatf_ctrsm_grouped, invalid(f(nullptr, 3))),
    IATF_ENTRY(iatf_cpack, EXPECT_EQ(f(nullptr, 4, 4, 4, 16, 2), nullptr)),
    IATF_ENTRY(iatf_crepack, invalid(f(nullptr, nullptr, 4, 16))),
    IATF_ENTRY(iatf_cunpack, invalid(f(nullptr, nullptr, 4, 16))),
    IATF_ENTRY(iatf_cfree_packed, f(nullptr)),
    IATF_ENTRY(iatf_cpacked_rows, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_cpacked_cols, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_cpacked_batch, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_cpacked_epoch, EXPECT_EQ(f(nullptr), 0u)),
    IATF_ENTRY(iatf_cgemm_packed,
               invalid(f(IATF_NOTRANS, IATF_NOTRANS, 1.0f, 0.0f, nullptr,
                         nullptr, 0.0f, 0.0f, nullptr))),
    IATF_ENTRY(iatf_ctrsm_packed,
               invalid(f(IATF_LEFT, IATF_LOWER, IATF_NOTRANS, IATF_NONUNIT,
                         1.0f, 0.0f, nullptr, nullptr))),
    IATF_ENTRY(iatf_cpotrf_batch, invalid(f(nullptr))),
    IATF_ENTRY(iatf_cgetrfnp_batch, invalid(f(nullptr))),
    IATF_ENTRY(iatf_ctrtri_batch,
               invalid(f(IATF_LOWER, IATF_NONUNIT, nullptr))),
    IATF_ENTRY(iatf_cpotrf_packed, invalid(f(nullptr))),
    IATF_ENTRY(iatf_cgetrfnp_packed, invalid(f(nullptr))),
    IATF_ENTRY(iatf_ctrtri_packed,
               invalid(f(IATF_LOWER, IATF_NONUNIT, nullptr))),
    // complex double: buffers, BLAS, packed handles, factorisations.
    IATF_ENTRY(iatf_zcreate, EXPECT_EQ(f(-1, 4, 2), nullptr)),
    IATF_ENTRY(iatf_zdestroy, f(nullptr)),
    IATF_ENTRY(iatf_zrows, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_zcols, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_zbatch, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_zimport, invalid(f(nullptr, 0, nullptr, 4))),
    IATF_ENTRY(iatf_zexport, invalid(f(nullptr, 0, nullptr, 4))),
    IATF_ENTRY(iatf_zpad_identity, invalid(f(nullptr))),
    IATF_ENTRY(iatf_zgemm_compact,
               invalid(f(IATF_NOTRANS, IATF_NOTRANS, 1.0, 0.0, nullptr, nullptr,
                         0.0, 0.0, nullptr))),
    IATF_ENTRY(iatf_ztrsm_compact,
               invalid(f(IATF_LEFT, IATF_LOWER, IATF_NOTRANS, IATF_NONUNIT, 1.0,
                         0.0, nullptr, nullptr))),
    IATF_ENTRY(iatf_zgemm_grouped, invalid(f(nullptr, 3))),
    IATF_ENTRY(iatf_ztrsm_grouped, invalid(f(nullptr, 3))),
    IATF_ENTRY(iatf_zpack, EXPECT_EQ(f(nullptr, 4, 4, 4, 16, 2), nullptr)),
    IATF_ENTRY(iatf_zrepack, invalid(f(nullptr, nullptr, 4, 16))),
    IATF_ENTRY(iatf_zunpack, invalid(f(nullptr, nullptr, 4, 16))),
    IATF_ENTRY(iatf_zfree_packed, f(nullptr)),
    IATF_ENTRY(iatf_zpacked_rows, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_zpacked_cols, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_zpacked_batch, EXPECT_LT(f(nullptr), 0)),
    IATF_ENTRY(iatf_zpacked_epoch, EXPECT_EQ(f(nullptr), 0u)),
    IATF_ENTRY(iatf_zgemm_packed,
               invalid(f(IATF_NOTRANS, IATF_NOTRANS, 1.0, 0.0, nullptr, nullptr,
                         0.0, 0.0, nullptr))),
    IATF_ENTRY(iatf_ztrsm_packed,
               invalid(f(IATF_LEFT, IATF_LOWER, IATF_NOTRANS, IATF_NONUNIT, 1.0,
                         0.0, nullptr, nullptr))),
    IATF_ENTRY(iatf_zpotrf_batch, invalid(f(nullptr))),
    IATF_ENTRY(iatf_zgetrfnp_batch, invalid(f(nullptr))),
    IATF_ENTRY(iatf_ztrtri_batch,
               invalid(f(IATF_LOWER, IATF_NONUNIT, nullptr))),
    IATF_ENTRY(iatf_zpotrf_packed, invalid(f(nullptr))),
    IATF_ENTRY(iatf_zgetrfnp_packed, invalid(f(nullptr))),
    IATF_ENTRY(iatf_ztrtri_packed,
               invalid(f(IATF_LOWER, IATF_NONUNIT, nullptr))),
    // Serving front end.
    IATF_ENTRY(iatf_server_create,
               iatf_server_destroy(f(&kGarbageServeConfig));
               EXPECT_EQ(f(&kBadPolicyServeConfig), nullptr)),
    IATF_ENTRY(iatf_server_create_with_dispatchers,
               EXPECT_EQ(f(&kBadPolicyServeConfig, 2), nullptr);
               for (const int64_t n : {int64_t{0}, int64_t{-1}, int64_t{65},
                                       INT64_MAX}) {
                 iatf_server* server = f(nullptr, n);
                 EXPECT_NE(server, nullptr) << n;
                 int64_t started = 0, peak = -1;
                 EXPECT_EQ(iatf_server_get_dispatchers(server, &started,
                                                       &peak),
                           IATF_STATUS_OK);
                 EXPECT_GE(started, 1) << n;
                 EXPECT_LE(started, 64) << n;
                 iatf_server_destroy(server);
               }),
    IATF_ENTRY(iatf_server_destroy, f(nullptr)),
    IATF_ENTRY(iatf_server_set_tenant_weight, invalid(f(nullptr, 0, 1))),
    IATF_ENTRY(iatf_server_set_overload_policy,
               invalid(f(nullptr, IATF_OVERLOAD_SHED));
               iatf_server* server = iatf_server_create(nullptr);
               invalid(
                   f(server, static_cast<iatf_overload_policy>(kBadPolicy)));
               iatf_server_destroy(server)),
    IATF_ENTRY(iatf_server_set_watchdog, invalid(f(nullptr, 1.0, 100.0))),
    IATF_ENTRY(iatf_server_submit_sgemm,
               invalid(f(nullptr, IATF_NOTRANS, IATF_NOTRANS, 1.0f, nullptr,
                         nullptr, 0.0f, nullptr, 0, 0, nullptr))),
    IATF_ENTRY(iatf_server_submit_strsm,
               invalid(f(nullptr, IATF_LEFT, IATF_LOWER, IATF_NOTRANS,
                         IATF_NONUNIT, 1.0f, nullptr, nullptr, 0, 0, nullptr))),
    IATF_ENTRY(iatf_server_submit_dgemm,
               invalid(f(nullptr, IATF_NOTRANS, IATF_NOTRANS, 1.0, nullptr,
                         nullptr, 0.0, nullptr, 0, 0, nullptr))),
    IATF_ENTRY(iatf_server_submit_dtrsm,
               invalid(f(nullptr, IATF_LEFT, IATF_LOWER, IATF_NOTRANS,
                         IATF_NONUNIT, 1.0, nullptr, nullptr, 0, 0, nullptr))),
    IATF_ENTRY(iatf_server_poll, invalid(f(nullptr, 1, nullptr))),
    IATF_ENTRY(iatf_server_wait, invalid(f(nullptr, 1))),
    IATF_ENTRY(iatf_server_cancel, invalid(f(nullptr, 1))),
    IATF_ENTRY(iatf_server_drain, invalid(f(nullptr))),
    IATF_ENTRY(iatf_server_stop, invalid(f(nullptr))),
    IATF_ENTRY(iatf_server_get_stats, invalid(f(nullptr, nullptr))),
    IATF_ENTRY(iatf_server_get_dispatchers,
               int64_t started = 0;
               int64_t peak = 0;
               invalid(f(nullptr, &started, &peak));
               iatf_server* server = iatf_server_create(nullptr);
               invalid(f(server, nullptr, &peak));
               invalid(f(server, &started, nullptr));
               iatf_server_destroy(server)),
    IATF_ENTRY(iatf_server_tenant_served, EXPECT_LT(f(nullptr, 0), 0)),
};

#undef IATF_ENTRY

bool is_server_entry(const EntryPoint& entry) {
  return std::string_view(entry.name).starts_with("iatf_server_");
}

TEST_F(CapiFuzz, NullHandlesNeverCrash) {
  for (const EntryPoint& entry : kEntryPoints) {
    if (is_server_entry(entry)) {
      continue;
    }
    SCOPED_TRACE(entry.name);
    entry.probe();
  }
  iatf_clear_error();
}

TEST_F(CapiFuzz, NullServerHandlesNeverCrash) {
  for (const EntryPoint& entry : kEntryPoints) {
    if (!is_server_entry(entry)) {
      continue;
    }
    SCOPED_TRACE(entry.name);
    entry.probe();
  }
  iatf_clear_error();
}

// --- Dimension garbage ----------------------------------------------------

TEST_F(CapiFuzz, GarbageDimensionsRejectCreation) {
  std::mt19937 rng(0xC0FFEE);
  for (int trial = 0; trial < 64; ++trial) {
    // One garbage extent poisons an otherwise small, valid shape.
    int64_t rows = 4, cols = 4, batch = 2;
    (trial % 3 == 0 ? rows : trial % 3 == 1 ? cols : batch) = bad_dim(rng);
    iatf_sbuf* s = iatf_screate(rows, cols, batch);
    EXPECT_EQ(s, nullptr) << rows << "x" << cols << "x" << batch;
    iatf_zbuf* z = iatf_zcreate(rows, cols, batch);
    EXPECT_EQ(z, nullptr) << rows << "x" << cols << "x" << batch;
    iatf_sdestroy(s);
    iatf_zdestroy(z);
  }
}

TEST_F(CapiFuzz, GarbagePackGeometryRejectsCreation) {
  std::mt19937 rng(0xBEEF);
  // 4x4 doubles, stride 16, batch 2: the one valid geometry. Each trial
  // poisons exactly one parameter with a negative value -- every such
  // call must be rejected before the source array is ever read. (An
  // oversized positive stride is the caller's contract to get right, as
  // with memcpy: the array extent is unknowable at the C boundary.)
  std::vector<double> src(64, 1.0);
  for (int trial = 0; trial < 64; ++trial) {
    int64_t geo[5] = {4, 4, 4, 16, 2}; // rows, cols, ld, stride, batch
    geo[rng() % 5] = bad_dim(rng);
    iatf_dpacked* p =
        iatf_dpack(src.data(), geo[0], geo[1], geo[2], geo[3], geo[4]);
    EXPECT_EQ(p, nullptr);
    iatf_dfree_packed(p);
    iatf_zpacked* zp =
        iatf_zpack(src.data(), geo[0], geo[1], geo[2], geo[3], geo[4]);
    EXPECT_EQ(zp, nullptr);
    iatf_zfree_packed(zp);
  }
  // ld < rows, and a NULL source with plausible geometry.
  EXPECT_EQ(iatf_dpack(src.data(), 8, 2, 4, 16, 2), nullptr);
  EXPECT_EQ(iatf_spack(nullptr, 4, 4, 4, 16, 2), nullptr);
  EXPECT_EQ(iatf_cpack(nullptr, 4, 4, 4, 16, 2), nullptr);
}

TEST_F(CapiFuzz, ImportExportBoundsAreChecked) {
  iatf_dbuf* buf = iatf_dcreate(4, 4, 3);
  ASSERT_NE(buf, nullptr);
  std::vector<double> host(16, 0.5);
  // Batch indices outside [0, 3). Out-of-range positives are fine here:
  // the index is range-checked, never used to size an allocation.
  for (const int64_t b : {int64_t{-1}, int64_t{3}, int64_t{64},
                          int64_t{1} << 40, INT64_MIN}) {
    EXPECT_EQ(iatf_dimport(buf, b, host.data(), 4), IATF_STATUS_INVALID_ARG)
        << "batch index " << b;
    EXPECT_EQ(iatf_dexport(buf, b, host.data(), 4), IATF_STATUS_INVALID_ARG);
  }
  // Leading dimension smaller than the row count.
  EXPECT_EQ(iatf_dimport(buf, 0, host.data(), 2), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_dimport(buf, 0, nullptr, 4), IATF_STATUS_INVALID_ARG);
  iatf_ddestroy(buf);
}

// --- Enum and shape garbage -----------------------------------------------

TEST_F(CapiFuzz, GarbageEnumsAndShapesReturnStableStatuses) {
  std::mt19937 rng(0xDADA);
  iatf_sbuf* sq = iatf_screate(4, 4, 2);   // square
  iatf_sbuf* rect = iatf_screate(4, 3, 2); // shape-mismatched partner
  iatf_sbuf* other = iatf_screate(5, 5, 7); // batch-mismatched partner
  ASSERT_NE(sq, nullptr);
  ASSERT_NE(rect, nullptr);
  ASSERT_NE(other, nullptr);
  for (int trial = 0; trial < 128; ++trial) {
    const int rc = iatf_sgemm_compact(
        bad_enum<iatf_op>(rng), bad_enum<iatf_op>(rng), 1.0f,
        trial % 3 == 0 ? sq : rect, trial % 2 == 0 ? other : sq, 0.0f,
        trial % 5 == 0 ? rect : sq);
    EXPECT_TRUE(stable_status(rc)) << "rc " << rc;
    const int tr = iatf_strsm_compact(
        bad_enum<iatf_side>(rng), bad_enum<iatf_uplo>(rng),
        bad_enum<iatf_op>(rng), bad_enum<iatf_diag>(rng), 1.0f,
        trial % 2 == 0 ? rect : sq, trial % 3 == 0 ? sq : rect);
    EXPECT_TRUE(stable_status(tr)) << "rc " << tr;
    const int ti = iatf_strtri_batch(bad_enum<iatf_uplo>(rng),
                                     bad_enum<iatf_diag>(rng), rect);
    EXPECT_TRUE(stable_status(ti)) << "rc " << ti;
  }
  // Non-square factorisation inputs are descriptor errors, not crashes.
  EXPECT_EQ(iatf_spotrf_batch(rect), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_sgetrfnp_batch(rect), IATF_STATUS_INVALID_ARG);

  // Negative enum bits on every other enum-taking entry point, over
  // valid operands so the modes are actually read. The enums are passed
  // as prvalues: the entry points must read them without an enum-typed
  // load (UBSan -fsanitize=enum), then reject them.
  const std::vector<float> host(4 * 4 * 2, 0.0f);
  iatf_spacked* pa = iatf_spack(host.data(), 4, 4, 4, 16, 2);
  iatf_spacked* pb = iatf_spack(host.data(), 4, 4, 4, 16, 2);
  iatf_dbuf* dsq = iatf_dcreate(4, 4, 2);
  iatf_server* server = iatf_server_create(nullptr);
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  ASSERT_NE(dsq, nullptr);
  ASSERT_NE(server, nullptr);
  for (const int bits : {-1, -7, -12345, INT32_MIN}) {
    SCOPED_TRACE(testing::Message() << "enum bits " << bits);
    invalid(iatf_sgemm_packed(static_cast<iatf_op>(bits),
                              static_cast<iatf_op>(bits), 1.0f, pa, pb, 0.0f,
                              pb));
    invalid(iatf_strsm_packed(
        static_cast<iatf_side>(bits), static_cast<iatf_uplo>(bits),
        static_cast<iatf_op>(bits), static_cast<iatf_diag>(bits), 1.0f, pa,
        pb));
    const iatf_strsm_segment seg{
        static_cast<iatf_side>(bits), static_cast<iatf_uplo>(bits),
        static_cast<iatf_op>(bits), static_cast<iatf_diag>(bits), 1.0f, sq,
        sq};
    invalid(iatf_strsm_grouped(&seg, 1));
    invalid(iatf_strmm_compact(
        static_cast<iatf_side>(bits), static_cast<iatf_uplo>(bits),
        static_cast<iatf_op>(bits), static_cast<iatf_diag>(bits), 1.0f, sq,
        sq));
    invalid(iatf_tune_gemm('s', static_cast<iatf_op>(bits),
                           static_cast<iatf_op>(bits), 2, 2, 2, 4, 1));
    invalid(iatf_tune_trsm('s', static_cast<iatf_side>(bits),
                           static_cast<iatf_uplo>(bits),
                           static_cast<iatf_op>(bits),
                           static_cast<iatf_diag>(bits), 2, 2, 4, 1));
    uint64_t ticket = 0;
    invalid(iatf_server_submit_strsm(
        server, static_cast<iatf_side>(bits), static_cast<iatf_uplo>(bits),
        static_cast<iatf_op>(bits), static_cast<iatf_diag>(bits), 1.0f, sq,
        sq, 0, 0, &ticket));
    invalid(iatf_server_submit_dtrsm(
        server, static_cast<iatf_side>(bits), static_cast<iatf_uplo>(bits),
        static_cast<iatf_op>(bits), static_cast<iatf_diag>(bits), 1.0, dsq,
        dsq, 0, 0, &ticket));
  }
  iatf_server_destroy(server);
  iatf_sfree_packed(pa);
  iatf_sfree_packed(pb);
  iatf_ddestroy(dsq);

  // The thread-local last-error string stays readable after the storm.
  EXPECT_NE(iatf_last_error(), nullptr);
  iatf_sdestroy(sq);
  iatf_sdestroy(rect);
  iatf_sdestroy(other);
}

TEST_F(CapiFuzz, GroupedSegmentsWithGarbageEntriesFailAtomically) {
  iatf_dbuf* a = iatf_dcreate(4, 4, 2);
  iatf_dbuf* b = iatf_dcreate(4, 4, 2);
  iatf_dbuf* c = iatf_dcreate(4, 4, 2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  iatf_dgemm_segment segs[2];
  segs[0] = {IATF_NOTRANS, IATF_NOTRANS, 1.0, 0.0, a, b, c};
  segs[1] = {IATF_NOTRANS, IATF_NOTRANS, 1.0, 0.0, nullptr, b, c}; // poisoned
  EXPECT_EQ(iatf_dgemm_grouped(segs, 2), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_dgemm_grouped(segs, 0), IATF_STATUS_OK); // empty: no-op
  EXPECT_EQ(iatf_dgemm_grouped(segs, -3), IATF_STATUS_INVALID_ARG);
  iatf_ddestroy(a);
  iatf_ddestroy(b);
  iatf_ddestroy(c);
}

// --- Server ticket garbage ------------------------------------------------

TEST_F(CapiFuzz, BogusTicketsAreRejectedNotDereferenced) {
  iatf_server* server = iatf_server_create(nullptr);
  ASSERT_NE(server, nullptr);
  std::mt19937 rng(0xABBA);
  int status = 0;
  for (int trial = 0; trial < 64; ++trial) {
    const uint64_t bogus = rng();
    EXPECT_EQ(iatf_server_poll(server, bogus, &status),
              IATF_STATUS_INVALID_ARG);
    EXPECT_EQ(iatf_server_wait(server, bogus), IATF_STATUS_INVALID_ARG);
  }
  // A real ticket works once; retiring it turns it bogus.
  iatf_sbuf* a = iatf_screate(4, 4, 2);
  iatf_sbuf* b = iatf_screate(4, 4, 2);
  iatf_sbuf* c = iatf_screate(4, 4, 2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  uint64_t ticket = 0;
  ASSERT_EQ(iatf_server_submit_sgemm(server, IATF_NOTRANS, IATF_NOTRANS, 1.0f, a,
                                     b, 0.0f, c, 0, 0, &ticket),
            IATF_STATUS_OK);
  EXPECT_EQ(iatf_server_wait(server, ticket), IATF_STATUS_OK);
  EXPECT_EQ(iatf_server_wait(server, ticket), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_server_poll(server, ticket, &status),
            IATF_STATUS_INVALID_ARG);
  // Garbage watchdog knobs on a live server.
  EXPECT_EQ(iatf_server_set_watchdog(server, -1.0, 100.0),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_server_set_watchdog(server, INFINITY, 100.0),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_server_set_watchdog(server, NAN, 100.0),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_server_set_watchdog(server, 0.0, INFINITY), IATF_STATUS_OK);
  EXPECT_EQ(iatf_server_set_watchdog(server, 0.0, -5.0), IATF_STATUS_OK);
  EXPECT_EQ(iatf_server_set_tenant_weight(server, 3, 0),
            IATF_STATUS_INVALID_ARG);
  iatf_server_destroy(server);
  iatf_sdestroy(a);
  iatf_sdestroy(b);
  iatf_sdestroy(c);
}

// --- Duration garbage -----------------------------------------------------

TEST_F(CapiFuzz, InfiniteAndHugeDurationsClampInsteadOfOverflowing) {
  for (const double ms : {static_cast<double>(INFINITY), 1e300, 1e13}) {
    iatf_set_call_deadline_ms(ms);
    const double got = iatf_get_call_deadline_ms();
    EXPECT_TRUE(std::isfinite(got) && got > 0.0) << ms << " -> " << got;
    EXPECT_LE(got, 1e12) << ms;
  }
  iatf_set_call_deadline_ms(NAN);
  EXPECT_EQ(iatf_get_call_deadline_ms(), 0.0);
  iatf_set_retry_policy(1, INFINITY);
  iatf_set_retry_policy(1, 0.0);
}

// --- Ledger path garbage --------------------------------------------------

TEST_F(CapiFuzz, LedgerShimsRejectGarbagePaths) {
  // NULL path with no $IATF_HEALTH_LEDGER opt-in: nothing to load.
  ASSERT_EQ(::unsetenv("IATF_HEALTH_LEDGER"), 0);
  EXPECT_EQ(iatf_health_ledger_load(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_health_ledger_load(""), IATF_STATUS_INVALID_ARG);
  // A directory path cannot be journaled to; load reports it missing
  // (attached but empty) rather than crashing, and save fails cleanly.
  const int rc = iatf_health_ledger_load("/");
  EXPECT_TRUE(stable_status(rc)) << "rc " << rc;
}

} // namespace
