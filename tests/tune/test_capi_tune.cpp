// C API surface of the autotuner: iatf_tune_* and iatf_set_plan_tuning.
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "iatf/capi/iatf.h"

namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

class CapiTune : public ::testing::Test {
protected:
  void TearDown() override {
    iatf_tune_clear();
    iatf_set_plan_tuning(nullptr);
    iatf_clear_error();
  }
};

TEST_F(CapiTune, TuneSaveLoadRoundTrip) {
  const std::string path = temp_path("iatf_capi_tune.tbl");
  ASSERT_EQ(iatf_tune_gemm('s', IATF_NOTRANS, IATF_NOTRANS, 4, 4, 4,
                           /*batch=*/16, /*reps=*/1),
            IATF_STATUS_OK)
      << iatf_last_error();
  ASSERT_EQ(iatf_tune_trsm('d', IATF_LEFT, IATF_LOWER, IATF_NOTRANS,
                           IATF_NONUNIT, 4, 4, 16, 1),
            IATF_STATUS_OK)
      << iatf_last_error();
  EXPECT_EQ(iatf_tune_count(), 2);

  ASSERT_EQ(iatf_tune_save(path.c_str()), IATF_STATUS_OK)
      << iatf_last_error();
  iatf_tune_clear();
  EXPECT_EQ(iatf_tune_count(), 0);
  ASSERT_EQ(iatf_tune_load(path.c_str()), IATF_STATUS_OK)
      << iatf_last_error();
  EXPECT_EQ(iatf_tune_count(), 2);
  std::remove(path.c_str());
}

TEST_F(CapiTune, LoadFailureKeepsCurrentTable) {
  ASSERT_EQ(iatf_tune_gemm('s', IATF_NOTRANS, IATF_NOTRANS, 3, 3, 3, 16, 1),
            IATF_STATUS_OK);
  ASSERT_EQ(iatf_tune_count(), 1);

  // Missing file.
  EXPECT_EQ(iatf_tune_load(temp_path("iatf_capi_nope.tbl").c_str()),
            IATF_STATUS_UNSUPPORTED);
  EXPECT_NE(std::string(iatf_last_error()).find("missing"),
            std::string::npos);
  EXPECT_EQ(iatf_tune_count(), 1) << "rejected load must not clobber";

  // Corrupt file.
  const std::string bad = temp_path("iatf_capi_bad.tbl");
  {
    std::ofstream out(bad);
    out << "garbage\n";
  }
  EXPECT_EQ(iatf_tune_load(bad.c_str()), IATF_STATUS_UNSUPPORTED);
  EXPECT_EQ(iatf_tune_count(), 1);
  std::remove(bad.c_str());
}

TEST_F(CapiTune, UnknownDtypeIsInvalidArg) {
  EXPECT_EQ(iatf_tune_gemm('q', IATF_NOTRANS, IATF_NOTRANS, 2, 2, 2, 8, 1),
            IATF_STATUS_INVALID_ARG);
}

TEST_F(CapiTune, ManualPlanTuningReachesTheEngine) {
  // Force no-pack for a transposed A: the plan build inside the compute
  // call must report InvalidArg (satellite: ablations via the C API).
  iatf_plan_tuning tuning{};
  tuning.force_pack_a = 0;
  tuning.force_pack_b = -1;
  ASSERT_EQ(iatf_set_plan_tuning(&tuning), IATF_STATUS_OK);

  iatf_sbuf* a = iatf_screate(4, 4, 8);
  iatf_sbuf* b = iatf_screate(4, 4, 8);
  iatf_sbuf* c = iatf_screate(4, 4, 8);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(iatf_sgemm_compact(IATF_TRANS, IATF_NOTRANS, 1.0f, a, b, 0.0f,
                               c),
            IATF_STATUS_INVALID_ARG);

  // Legal for NoTrans x NoTrans; clearing restores the default path.
  EXPECT_EQ(iatf_sgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0f, a, b,
                               0.0f, c),
            IATF_STATUS_OK)
      << iatf_last_error();
  ASSERT_EQ(iatf_set_plan_tuning(nullptr), IATF_STATUS_OK);
  EXPECT_EQ(iatf_sgemm_compact(IATF_TRANS, IATF_NOTRANS, 1.0f, a, b, 0.0f,
                               c),
            IATF_STATUS_OK)
      << iatf_last_error();

  iatf_sdestroy(a);
  iatf_sdestroy(b);
  iatf_sdestroy(c);
}

// A tuned record is keyed at the register width C buffers are created
// at, so the next compute call of the tuned descriptor builds its plan
// from the record.
TEST_F(CapiTune, TunedRecordReachesTheNextComputeCall) {
  ASSERT_EQ(iatf_tune_gemm('d', IATF_NOTRANS, IATF_NOTRANS, 4, 4, 4,
                           /*batch=*/16, /*reps=*/1),
            IATF_STATUS_OK)
      << iatf_last_error();
  ASSERT_EQ(iatf_tune_trsm('d', IATF_LEFT, IATF_LOWER, IATF_NOTRANS,
                           IATF_UNIT, 4, 4, 16, 1),
            IATF_STATUS_OK)
      << iatf_last_error();
  iatf_engine_stats_reset();

  iatf_dbuf* a = iatf_dcreate(4, 4, 8);
  iatf_dbuf* b = iatf_dcreate(4, 4, 8);
  iatf_dbuf* c = iatf_dcreate(4, 4, 8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(iatf_dgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0, a, b, 0.0,
                               c),
            IATF_STATUS_OK)
      << iatf_last_error();
  iatf_engine_stats stats;
  ASSERT_EQ(iatf_get_engine_stats(&stats), IATF_STATUS_OK);
  EXPECT_EQ(stats.tuned, 1) << "gemm record missed on ISA "
                            << iatf_active_isa();

  ASSERT_EQ(iatf_dtrsm_compact(IATF_LEFT, IATF_LOWER, IATF_NOTRANS,
                               IATF_UNIT, 1.0, a, b),
            IATF_STATUS_OK)
      << iatf_last_error();
  ASSERT_EQ(iatf_get_engine_stats(&stats), IATF_STATUS_OK);
  EXPECT_EQ(stats.tuned, 2) << "trsm record missed on ISA "
                            << iatf_active_isa();

  iatf_ddestroy(a);
  iatf_ddestroy(b);
  iatf_ddestroy(c);
}

} // namespace
