// Garbage-input sweep over the C API: null handles, negative and
// overflowing dimensions, out-of-range enum values, shape-mismatched
// operands and bogus server tickets. The contract under test is narrow
// and absolute -- every call returns a stable iatf_status (or NULL from
// a constructor) and the process never crashes, because the C boundary
// is where unvalidated caller input first touches the library.
#include <cstdint>
#include <random>
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

// --- Null handles ---------------------------------------------------------

TEST_F(CapiFuzz, NullHandlesNeverCrash) {
  EXPECT_EQ(iatf_sgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0f, nullptr, nullptr,
                               0.0f, nullptr),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_zgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0, 0.0, nullptr,
                               nullptr, 0.0, 0.0, nullptr),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_dtrsm_compact(IATF_LEFT, IATF_LOWER, IATF_NOTRANS,
                               IATF_NONUNIT, 1.0, nullptr, nullptr),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_simport(nullptr, 0, nullptr, 4), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_zexport(nullptr, 0, nullptr, 4), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_spad_identity(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_spotrf_batch(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_cpotrf_batch(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_zgetrfnp_batch(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_ctrtri_batch(IATF_LOWER, IATF_NONUNIT, nullptr),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_spotrf_packed(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_zrepack(nullptr, nullptr, 1, 1), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_cunpack(nullptr, nullptr, 1, 1), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_sgemm_grouped(nullptr, 3), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_ztrsm_grouped(nullptr, 1), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_get_engine_stats(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_get_engine_health(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_health_ledger_get_stats(nullptr), IATF_STATUS_INVALID_ARG);
  // Legacy real-only extension shims.
  EXPECT_EQ(iatf_strmm_compact(IATF_LEFT, IATF_LOWER, IATF_NOTRANS,
                               IATF_NONUNIT, 1.0f, nullptr, nullptr),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_dtrmm_compact(IATF_LEFT, IATF_LOWER, IATF_NOTRANS,
                               IATF_NONUNIT, 1.0, nullptr, nullptr),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_sgetrfnp_compact(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_dgetrfnp_compact(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_spotrf_compact(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_dpotrf_compact(nullptr), IATF_STATUS_INVALID_ARG);
  // Destructors / frees shrug at NULL like free(3).
  iatf_sdestroy(nullptr);
  iatf_zdestroy(nullptr);
  iatf_sfree_packed(nullptr);
  iatf_cfree_packed(nullptr);
  // Accessors report impossible values instead of dereferencing.
  EXPECT_LT(iatf_srows(nullptr), 0);
  EXPECT_LT(iatf_zbatch(nullptr), 0);
  EXPECT_LT(iatf_dpacked_rows(nullptr), 0);
  EXPECT_EQ(iatf_cpacked_epoch(nullptr), 0u);
}

TEST_F(CapiFuzz, NullServerHandlesNeverCrash) {
  uint64_t ticket = 0;
  EXPECT_EQ(iatf_server_submit_sgemm(nullptr, IATF_NOTRANS, IATF_NOTRANS, 1.0f,
                                     nullptr, nullptr, 0.0f, nullptr, 0, 0,
                                     &ticket),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_server_poll(nullptr, 1, nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_server_wait(nullptr, 1), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_server_drain(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_server_stop(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_server_get_stats(nullptr, nullptr),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_server_set_watchdog(nullptr, 1.0, 100.0),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_server_set_tenant_weight(nullptr, 0, 1),
            IATF_STATUS_INVALID_ARG);
  EXPECT_LT(iatf_server_tenant_served(nullptr, 0), 0);
  iatf_server_destroy(nullptr);
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
  EXPECT_EQ(iatf_server_set_watchdog(server, 0.0, -5.0), IATF_STATUS_OK);
  EXPECT_EQ(iatf_server_set_tenant_weight(server, 3, 0),
            IATF_STATUS_INVALID_ARG);
  iatf_server_destroy(server);
  iatf_sdestroy(a);
  iatf_sdestroy(b);
  iatf_sdestroy(c);
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
