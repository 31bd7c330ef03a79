// C-API surface of the self-healing layer: stats reset round-trip, the
// engine-health snapshot, admission/breaker/retry knobs, the OVERLOADED
// status, and iatf_last_error_detail's failing-descriptor attribution.
//
// The C API fronts the process-wide default engine, so tests here are
// ordered: knob round-trips and the self-test come first, the test that
// quarantines a kernel in the default engine runs last.
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "iatf/capi/iatf.h"
#include "iatf/common/fault_inject.hpp"
#include "iatf/core/engine.hpp"

namespace {

class CapiResilience : public ::testing::Test {
protected:
  void SetUp() override {
    iatf::fault::disarm_all();
    iatf_clear_error();
  }
  void TearDown() override {
    iatf::fault::disarm_all();
    iatf_set_max_inflight(0);
    iatf_set_overload_policy(IATF_OVERLOAD_BLOCK);
    iatf_set_kernel_verification(1);
    iatf_clear_error();
  }
};

iatf_dbuf* filled_dbuf(int64_t rows, int64_t cols, int64_t batch,
                       double salt) {
  iatf_dbuf* buf = iatf_dcreate(rows, cols, batch);
  EXPECT_NE(buf, nullptr);
  std::vector<double> host(static_cast<std::size_t>(rows * cols));
  for (int64_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < host.size(); ++i) {
      host[i] = salt + 0.25 * static_cast<double>(i % 7) +
                0.125 * static_cast<double>(b);
    }
    EXPECT_EQ(iatf_dimport(buf, b, host.data(), rows), IATF_STATUS_OK);
  }
  return buf;
}

TEST_F(CapiResilience, KnobRoundTrips) {
  iatf_set_max_inflight(5);
  EXPECT_EQ(iatf_get_max_inflight(), 5);
  iatf_set_max_inflight(0);
  EXPECT_EQ(iatf_get_max_inflight(), 0);

  iatf_set_overload_policy(IATF_OVERLOAD_SHED);
  EXPECT_EQ(iatf_get_overload_policy(), IATF_OVERLOAD_SHED);
  iatf_set_overload_policy(IATF_OVERLOAD_DEGRADE);
  EXPECT_EQ(iatf_get_overload_policy(), IATF_OVERLOAD_DEGRADE);
  iatf_set_overload_policy(IATF_OVERLOAD_BLOCK);

  EXPECT_EQ(iatf_get_kernel_verification(), 1);
  iatf_set_kernel_verification(0);
  EXPECT_EQ(iatf_get_kernel_verification(), 0);
  iatf_set_kernel_verification(1);

  iatf_set_retry_policy(3, 0.5);
  iatf_set_retry_policy(1, 0.0); // restore the default
  iatf_set_breaker(8, 2, 4);
  iatf_set_breaker(0, 0, 0); // window 0 disables
}

TEST_F(CapiResilience, StatsResetRoundTrip) {
  iatf_dbuf* a = filled_dbuf(4, 3, 6, 0.5);
  iatf_dbuf* b = filled_dbuf(3, 5, 6, -0.25);
  iatf_dbuf* c = filled_dbuf(4, 5, 6, 1.0);
  ASSERT_EQ(iatf_dgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0, a, b, 0.0,
                               c),
            IATF_STATUS_OK);

  iatf_engine_stats stats;
  ASSERT_EQ(iatf_get_engine_stats(&stats), IATF_STATUS_OK);
  EXPECT_GT(stats.misses + stats.hits, 0);
  const int64_t verified = stats.verified_kernels;

  iatf_engine_stats_reset();
  ASSERT_EQ(iatf_get_engine_stats(&stats), IATF_STATUS_OK);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.builds, 0);
  EXPECT_EQ(stats.shed_calls, 0);
  EXPECT_EQ(stats.ref_routed_calls, 0);
  EXPECT_EQ(stats.retries, 0);
  // The kernel-trust ledger is state, not statistics.
  EXPECT_EQ(stats.verified_kernels, verified);

  // Counting restarts from zero: the cached plan turns into one hit.
  ASSERT_EQ(iatf_dgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0, a, b, 0.0,
                               c),
            IATF_STATUS_OK);
  ASSERT_EQ(iatf_get_engine_stats(&stats), IATF_STATUS_OK);
  EXPECT_EQ(stats.hits, 1);

  iatf_ddestroy(a);
  iatf_ddestroy(b);
  iatf_ddestroy(c);
}

TEST_F(CapiResilience, HealthSnapshotIsConsistent) {
  iatf_engine_health health;
  ASSERT_EQ(iatf_get_engine_health(&health), IATF_STATUS_OK);
  EXPECT_EQ(health.breaker_closed + health.breaker_open +
                health.breaker_half_open,
            64);
  EXPECT_EQ(health.inflight, 0);
  EXPECT_EQ(iatf_get_engine_health(nullptr), IATF_STATUS_INVALID_ARG);
}

TEST_F(CapiResilience, ErrorDetailCarriesTheFailingDescriptor) {
  iatf_error_detail detail;
  EXPECT_EQ(iatf_last_error_detail(&detail), 0); // nothing failed yet

  iatf_dbuf* a = filled_dbuf(4, 3, 6, 0.5);
  iatf_dbuf* b = filled_dbuf(3, 5, 6, -0.25);
  iatf_dbuf* c = filled_dbuf(4, 5, 7, 1.0); // mismatched batch
  EXPECT_EQ(iatf_dgemm_compact(IATF_NOTRANS, IATF_TRANS, 1.0, a, b, 0.0,
                               c),
            IATF_STATUS_INVALID_ARG);
  ASSERT_EQ(iatf_last_error_detail(&detail), 1);
  EXPECT_EQ(detail.status, IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(detail.op, 'g');
  EXPECT_EQ(detail.dtype, 'd');
  EXPECT_EQ(detail.m, 4);
  EXPECT_EQ(detail.n, 5);
  EXPECT_EQ(detail.k, 3); // op_a == NoTrans: k is A's column count
  EXPECT_EQ(detail.batch, 7);
  EXPECT_EQ(detail.op_a, IATF_NOTRANS);
  EXPECT_EQ(detail.op_b, IATF_TRANS);
  EXPECT_EQ(detail.side, -1); // gemm has no trsm mode

  iatf_clear_error();
  EXPECT_EQ(iatf_last_error_detail(&detail), 0);

  iatf_ddestroy(a);
  iatf_ddestroy(b);
  iatf_ddestroy(c);
}

// Regression: iatf_clear_error must blank the thread-local detail
// struct itself, not only the availability flag -- no field or event
// bit from before the clear may survive into the next failure's
// report.
TEST_F(CapiResilience, ClearErrorBlanksTheDetailDescriptor) {
  // Produce a trsm-flavoured detail with the mode fields populated.
  iatf_dbuf* a = filled_dbuf(4, 4, 6, 2.0);
  iatf_dbuf* b = filled_dbuf(4, 3, 7, 1.0); // mismatched batch
  ASSERT_EQ(iatf_dtrsm_compact(IATF_LEFT, IATF_UPPER, IATF_NOTRANS,
                               IATF_UNIT, 1.0, a, b),
            IATF_STATUS_INVALID_ARG);
  iatf_error_detail detail;
  ASSERT_EQ(iatf_last_error_detail(&detail), 1);
  ASSERT_EQ(detail.uplo, IATF_UPPER);

  iatf_clear_error();
  EXPECT_EQ(iatf_last_error_detail(&detail), 0);
  EXPECT_STREQ(iatf_last_error(), "");

  // The next failure is a gemm: its detail must carry no trsm mode and
  // no event bits from the cleared descriptor.
  iatf_dbuf* c = filled_dbuf(4, 5, 7, 1.0);
  iatf_dbuf* a2 = filled_dbuf(4, 3, 6, 0.5);
  iatf_dbuf* b2 = filled_dbuf(3, 5, 6, -0.25);
  ASSERT_EQ(iatf_dgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0, a2, b2,
                               0.0, c),
            IATF_STATUS_INVALID_ARG);
  ASSERT_EQ(iatf_last_error_detail(&detail), 1);
  EXPECT_EQ(detail.op, 'g');
  EXPECT_EQ(detail.side, -1);
  EXPECT_EQ(detail.uplo, -1);
  EXPECT_EQ(detail.diag, -1);
  EXPECT_EQ(detail.events, 0u);

  iatf_ddestroy(a);
  iatf_ddestroy(b);
  iatf_ddestroy(a2);
  iatf_ddestroy(b2);
  iatf_ddestroy(c);
}

TEST_F(CapiResilience, TrsmErrorDetailCarriesTheMode) {
  iatf_dbuf* a = filled_dbuf(4, 4, 6, 2.0);
  iatf_dbuf* b = filled_dbuf(4, 3, 7, 1.0); // mismatched batch
  EXPECT_EQ(iatf_dtrsm_compact(IATF_LEFT, IATF_LOWER, IATF_NOTRANS,
                               IATF_NONUNIT, 1.0, a, b),
            IATF_STATUS_INVALID_ARG);
  iatf_error_detail detail;
  ASSERT_EQ(iatf_last_error_detail(&detail), 1);
  EXPECT_EQ(detail.op, 't');
  EXPECT_EQ(detail.dtype, 'd');
  EXPECT_EQ(detail.m, 4);
  EXPECT_EQ(detail.n, 3);
  EXPECT_EQ(detail.k, 0);
  EXPECT_EQ(detail.batch, 7);
  EXPECT_EQ(detail.side, IATF_LEFT);
  EXPECT_EQ(detail.uplo, IATF_LOWER);
  EXPECT_EQ(detail.diag, IATF_NONUNIT);

  // TRMM shares the triangular shim: its detail is op 'm'.
  EXPECT_EQ(iatf_dtrmm_compact(IATF_RIGHT, IATF_UPPER, IATF_TRANS,
                               IATF_UNIT, 1.0, a, b),
            IATF_STATUS_INVALID_ARG);
  ASSERT_EQ(iatf_last_error_detail(&detail), 1);
  EXPECT_EQ(detail.op, 'm');
  EXPECT_EQ(detail.dtype, 'd');
  EXPECT_EQ(detail.m, 4);
  EXPECT_EQ(detail.n, 3);
  EXPECT_EQ(detail.batch, 7);
  EXPECT_EQ(detail.op_a, IATF_TRANS);
  EXPECT_EQ(detail.side, IATF_RIGHT);
  EXPECT_EQ(detail.uplo, IATF_UPPER);
  EXPECT_EQ(detail.diag, IATF_UNIT);
  iatf_ddestroy(a);
  iatf_ddestroy(b);
}

TEST_F(CapiResilience, OverloadedStatusAndDetail) {
  iatf_set_kernel_verification(0);
  iatf_set_max_inflight(1);
  iatf_set_overload_policy(IATF_OVERLOAD_SHED);

  iatf_dbuf* a = filled_dbuf(6, 4, 6, 0.5);
  iatf_dbuf* b = filled_dbuf(4, 5, 6, -0.25);
  iatf_dbuf* c = filled_dbuf(6, 5, 6, 1.0);

  // A worker holds the one admission slot (its plan build stalls on the
  // armed fault) while this thread's call arrives and must be shed.
  iatf_clear_plan_cache();
  iatf::fault::arm("plan.stall", 0, 20);
  std::thread worker([&] {
    iatf_dbuf* wc = filled_dbuf(6, 5, 6, 3.0);
    (void)iatf_dgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0, a, b, 0.0,
                             wc);
    iatf_ddestroy(wc);
  });
  iatf_engine_health health;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    ASSERT_EQ(iatf_get_engine_health(&health), IATF_STATUS_OK);
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "worker never entered the engine";
  } while (health.inflight == 0);

  EXPECT_EQ(iatf_dgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0, a, b, 0.0,
                               c),
            IATF_STATUS_OVERLOADED);
  iatf_error_detail detail;
  ASSERT_EQ(iatf_last_error_detail(&detail), 1);
  EXPECT_EQ(detail.status, IATF_STATUS_OVERLOADED);
  EXPECT_EQ(detail.op, 'g');
  EXPECT_EQ(detail.dtype, 'd');
  EXPECT_EQ(detail.m, 6);
  EXPECT_EQ(detail.n, 5);

  worker.join();
  iatf::fault::disarm_all();
  ASSERT_EQ(iatf_get_engine_health(&health), IATF_STATUS_OK);
  EXPECT_GE(health.shed_calls, 1);

  iatf_ddestroy(a);
  iatf_ddestroy(b);
  iatf_ddestroy(c);
}

iatf_sbuf* filled_sbuf(int64_t rows, int64_t cols, int64_t batch,
                       float salt) {
  iatf_sbuf* buf = iatf_screate(rows, cols, batch);
  EXPECT_NE(buf, nullptr);
  std::vector<float> host(static_cast<std::size_t>(rows * cols));
  for (int64_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < host.size(); ++i) {
      host[i] = salt + 0.25f * static_cast<float>(i % 7) +
                0.125f * static_cast<float>(b);
    }
    EXPECT_EQ(iatf_simport(buf, b, host.data(), rows), IATF_STATUS_OK);
  }
  return buf;
}

// Runs last: it permanently quarantines a kernel in the process-wide
// default engine. The call still succeeds (ref substitution), but the
// degradation is attributed in the error detail.
TEST_F(CapiResilience, QuarantineDegradationIsAttributedInTheDetail) {
  iatf_set_kernel_verification(1);
  iatf_sbuf* a = filled_sbuf(4, 4, 5, 0.5f);
  iatf_sbuf* b = filled_sbuf(4, 4, 5, -0.25f);
  iatf_sbuf* c = filled_sbuf(4, 4, 5, 1.0f);

  // Every canary verification fails: first dispatch of the float gemm
  // kernels quarantines them and the call degrades to the ref path.
  iatf::fault::ScopedFault poison("resilience.verify", 0, 1000);
  EXPECT_EQ(iatf_sgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0f, a, b,
                               0.0f, c),
            IATF_STATUS_OK);
  iatf_error_detail detail;
  ASSERT_EQ(iatf_last_error_detail(&detail), 1);
  EXPECT_EQ(detail.status, IATF_STATUS_OK);
  EXPECT_NE(detail.events & IATF_EVENT_QUARANTINED_KERNEL, 0u);
  EXPECT_EQ(detail.op, 'g');
  EXPECT_EQ(detail.dtype, 's');
  EXPECT_EQ(detail.m, 4);
  EXPECT_EQ(detail.n, 4);
  EXPECT_EQ(detail.batch, 5);

  iatf_engine_health health;
  ASSERT_EQ(iatf_get_engine_health(&health), IATF_STATUS_OK);
  EXPECT_GE(health.quarantined_kernels, 1);

  iatf_sdestroy(a);
  iatf_sdestroy(b);
  iatf_sdestroy(c);
}

// The registry sweep: one injected canary failure quarantines exactly
// one more kernel, and a clean re-sweep never resurrects it. (Baseline
// is read first: when the whole binary runs in one process the earlier
// quarantine test has already flagged kernels.)
TEST_F(CapiResilience, SelfTestSweepsAndCountsQuarantinedKernels) {
  iatf_engine_health before;
  ASSERT_EQ(iatf_get_engine_health(&before), IATF_STATUS_OK);
  {
    iatf::fault::ScopedFault poison("resilience.verify", 0, 1);
    EXPECT_EQ(iatf_engine_self_test(), before.quarantined_kernels + 1);
  }
  EXPECT_EQ(iatf_engine_self_test(), before.quarantined_kernels + 1);
  iatf_engine_health after;
  ASSERT_EQ(iatf_get_engine_health(&after), IATF_STATUS_OK);
  EXPECT_EQ(after.quarantined_kernels, before.quarantined_kernels + 1);
  EXPECT_GT(after.verified_kernels, 0);
}

} // namespace
