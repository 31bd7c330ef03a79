// C API surface of the serving front-end: iatf_server lifecycle, ticket
// submit/poll/wait semantics, stats mirroring, tenant accounting, and
// the IATF_STATUS_CANCELLED refusal path. The handle binds the default
// engine, so every server is destroyed inside each test (the shutdown
// ordering contract; see DESIGN.md section 12).
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "iatf/capi/iatf.h"
#include "iatf/common/fault_inject.hpp"

namespace {

class CapiServe : public ::testing::Test {
protected:
  void SetUp() override {
    iatf_clear_error();
    iatf_set_kernel_verification(0);
  }
  void TearDown() override { iatf_clear_error(); }

  static iatf_dbuf* filled(int64_t rows, int64_t cols, int64_t batch,
                           double value) {
    iatf_dbuf* buf = iatf_dcreate(rows, cols, batch);
    EXPECT_NE(buf, nullptr);
    std::vector<double> host(static_cast<std::size_t>(rows * cols), value);
    for (int64_t b = 0; b < batch; ++b) {
      EXPECT_EQ(iatf_dimport(buf, b, host.data(), rows), IATF_STATUS_OK);
    }
    return buf;
  }
};

TEST_F(CapiServe, SubmitWaitComputesTheProduct) {
  iatf_server* server = iatf_server_create(nullptr);
  ASSERT_NE(server, nullptr);
  const int64_t m = 4, n = 3, k = 5, batch = 6;
  iatf_dbuf* a = filled(m, k, batch, 2.0);
  iatf_dbuf* b = filled(k, n, batch, 0.5);
  iatf_dbuf* c = filled(m, n, batch, 1.0);

  uint64_t ticket = 0;
  ASSERT_EQ(iatf_server_submit_dgemm(server, IATF_NOTRANS, IATF_NOTRANS,
                                     1.0, a, b, 0.0, c, /*tenant=*/0,
                                     /*deadline_ms=*/0.0, &ticket),
            IATF_STATUS_OK);
  EXPECT_NE(ticket, 0u);
  EXPECT_EQ(iatf_server_wait(server, ticket), IATF_STATUS_OK);

  // C = A(2.0) * B(0.5) with k = 5: every entry is 5.
  std::vector<double> out(static_cast<std::size_t>(m * n));
  ASSERT_EQ(iatf_dexport(c, 0, out.data(), m), IATF_STATUS_OK);
  for (double v : out) {
    EXPECT_DOUBLE_EQ(v, 5.0);
  }

  // The ticket was consumed by wait.
  EXPECT_EQ(iatf_server_wait(server, ticket), IATF_STATUS_INVALID_ARG);

  // wait() returns when the future resolves, which can be a hair before
  // the dispatcher finishes its bookkeeping; drain for stable counters.
  ASSERT_EQ(iatf_server_drain(server), IATF_STATUS_OK);
  iatf_server_stats stats;
  ASSERT_EQ(iatf_server_get_stats(server, &stats), IATF_STATUS_OK);
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.queued, 0);

  iatf_ddestroy(a);
  iatf_ddestroy(b);
  iatf_ddestroy(c);
  iatf_server_destroy(server);
}

// A one-dispatcher server serves sequential round trips on that one
// thread, one dispatch at a time, and says so through the getter.
TEST_F(CapiServe, DispatcherCountAndPeakAreReadable) {
  iatf_server* server = iatf_server_create_with_dispatchers(nullptr, 1);
  ASSERT_NE(server, nullptr);
  iatf_dbuf* a = filled(4, 4, 4, 1.0);
  iatf_dbuf* b = filled(4, 4, 4, 1.0);
  iatf_dbuf* c = filled(4, 4, 4, 0.0);
  int64_t dispatchers = -1, peak = -1;
  ASSERT_EQ(iatf_server_get_dispatchers(server, &dispatchers, &peak),
            IATF_STATUS_OK);
  EXPECT_EQ(dispatchers, 1);
  EXPECT_EQ(peak, 0);
  for (int i = 0; i < 3; ++i) {
    uint64_t ticket = 0;
    ASSERT_EQ(iatf_server_submit_dgemm(server, IATF_NOTRANS, IATF_NOTRANS,
                                       1.0, a, b, 0.0, c, 0, 0.0, &ticket),
              IATF_STATUS_OK);
    EXPECT_EQ(iatf_server_wait(server, ticket), IATF_STATUS_OK);
  }
  ASSERT_EQ(iatf_server_get_dispatchers(server, &dispatchers, &peak),
            IATF_STATUS_OK);
  EXPECT_EQ(dispatchers, 1);
  EXPECT_EQ(peak, 1);
  iatf_server_destroy(server);
  iatf_ddestroy(a);
  iatf_ddestroy(b);
  iatf_ddestroy(c);
}

TEST_F(CapiServe, SgemmAndTrsmVariants) {
  iatf_server* server = iatf_server_create(nullptr);
  ASSERT_NE(server, nullptr);

  iatf_sbuf* sa = iatf_screate(3, 3, 4);
  iatf_sbuf* sb = iatf_screate(3, 3, 4);
  iatf_sbuf* sc = iatf_screate(3, 3, 4);
  ASSERT_TRUE(sa && sb && sc);
  uint64_t ticket = 0;
  ASSERT_EQ(iatf_server_submit_sgemm(server, IATF_NOTRANS, IATF_TRANS,
                                     1.0f, sa, sb, 0.0f, sc, 0, 0.0,
                                     &ticket),
            IATF_STATUS_OK);
  EXPECT_EQ(iatf_server_wait(server, ticket), IATF_STATUS_OK);

  // TRSM with an identity-like diagonal factor.
  iatf_dbuf* ta = filled(3, 3, 4, 0.0);
  std::vector<double> eye(9, 0.0);
  eye[0] = eye[4] = eye[8] = 2.0;
  for (int64_t b = 0; b < 4; ++b) {
    ASSERT_EQ(iatf_dimport(ta, b, eye.data(), 3), IATF_STATUS_OK);
  }
  iatf_dbuf* tb = filled(3, 2, 4, 4.0);
  ASSERT_EQ(iatf_server_submit_dtrsm(server, IATF_LEFT, IATF_LOWER,
                                     IATF_NOTRANS, IATF_NONUNIT, 1.0, ta,
                                     tb, 0, 0.0, &ticket),
            IATF_STATUS_OK);
  EXPECT_EQ(iatf_server_wait(server, ticket), IATF_STATUS_OK);
  std::vector<double> out(6);
  ASSERT_EQ(iatf_dexport(tb, 0, out.data(), 3), IATF_STATUS_OK);
  for (double v : out) {
    EXPECT_DOUBLE_EQ(v, 2.0); // 2x = 4
  }

  iatf_sdestroy(sa);
  iatf_sdestroy(sb);
  iatf_sdestroy(sc);
  iatf_ddestroy(ta);
  iatf_ddestroy(tb);
  iatf_server_destroy(server);
}

TEST_F(CapiServe, PollReportsWithoutConsuming) {
  iatf_server* server = iatf_server_create(nullptr);
  ASSERT_NE(server, nullptr);
  iatf_dbuf* a = filled(4, 4, 4, 1.0);
  iatf_dbuf* b = filled(4, 4, 4, 1.0);
  iatf_dbuf* c = filled(4, 4, 4, 0.0);
  uint64_t ticket = 0;
  ASSERT_EQ(iatf_server_submit_dgemm(server, IATF_NOTRANS, IATF_NOTRANS,
                                     1.0, a, b, 0.0, c, 0, 0.0, &ticket),
            IATF_STATUS_OK);
  // Unknown tickets are rejected, not treated as pending.
  EXPECT_EQ(iatf_server_poll(server, ticket + 999, nullptr),
            IATF_STATUS_INVALID_ARG);
  // Drain guarantees the request finished; poll then reports done and
  // keeps the ticket alive for wait.
  ASSERT_EQ(iatf_server_drain(server), IATF_STATUS_OK);
  int status = -1;
  ASSERT_EQ(iatf_server_poll(server, ticket, &status), 1);
  EXPECT_EQ(status, IATF_STATUS_OK);
  ASSERT_EQ(iatf_server_poll(server, ticket, &status), 1); // repeatable
  EXPECT_EQ(iatf_server_wait(server, ticket), IATF_STATUS_OK);
  EXPECT_EQ(iatf_server_poll(server, ticket, &status),
            IATF_STATUS_INVALID_ARG); // consumed

  iatf_ddestroy(a);
  iatf_ddestroy(b);
  iatf_ddestroy(c);
  iatf_server_destroy(server);
}

TEST_F(CapiServe, SubmitAfterStopIsCancelled) {
  iatf_server* server = iatf_server_create(nullptr);
  ASSERT_NE(server, nullptr);
  ASSERT_EQ(iatf_server_stop(server), IATF_STATUS_OK);
  iatf_dbuf* a = filled(4, 4, 4, 1.0);
  iatf_dbuf* b = filled(4, 4, 4, 1.0);
  iatf_dbuf* c = filled(4, 4, 4, 0.0);
  uint64_t ticket = 7;
  EXPECT_EQ(iatf_server_submit_dgemm(server, IATF_NOTRANS, IATF_NOTRANS,
                                     1.0, a, b, 0.0, c, 0, 0.0, &ticket),
            IATF_STATUS_CANCELLED);
  EXPECT_EQ(ticket, 7u); // refused submissions issue no ticket

  iatf_server_stats stats;
  ASSERT_EQ(iatf_server_get_stats(server, &stats), IATF_STATUS_OK);
  EXPECT_GE(stats.cancelled, 1);

  iatf_ddestroy(a);
  iatf_ddestroy(b);
  iatf_ddestroy(c);
  iatf_server_destroy(server);
}

TEST_F(CapiServe, TenantWeightAndServedAccounting) {
  iatf_serve_config config{};
  config.queue_capacity = 32;
  config.overload = IATF_OVERLOAD_BLOCK;
  iatf_server* server = iatf_server_create(&config);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(iatf_server_set_tenant_weight(server, 1, 4), IATF_STATUS_OK);
  EXPECT_EQ(iatf_server_set_tenant_weight(server, 1, 0),
            IATF_STATUS_INVALID_ARG);

  iatf_dbuf* a = filled(4, 4, 4, 1.0);
  iatf_dbuf* b = filled(4, 4, 4, 1.0);
  std::vector<iatf_dbuf*> cs;
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 6; ++i) {
    cs.push_back(filled(4, 4, 4, 0.0));
    uint64_t ticket = 0;
    ASSERT_EQ(iatf_server_submit_dgemm(server, IATF_NOTRANS, IATF_NOTRANS,
                                       1.0, a, b, 0.0, cs.back(),
                                       /*tenant=*/i % 2 ? 1u : 2u, 0.0,
                                       &ticket),
              IATF_STATUS_OK);
    tickets.push_back(ticket);
  }
  for (uint64_t t : tickets) {
    EXPECT_EQ(iatf_server_wait(server, t), IATF_STATUS_OK);
  }
  EXPECT_EQ(iatf_server_tenant_served(server, 1), 3);
  EXPECT_EQ(iatf_server_tenant_served(server, 2), 3);
  EXPECT_EQ(iatf_server_tenant_served(server, 42), 0);
  EXPECT_EQ(iatf_server_tenant_served(nullptr, 1), -1);

  iatf_ddestroy(a);
  iatf_ddestroy(b);
  for (iatf_dbuf* c : cs) {
    iatf_ddestroy(c);
  }
  iatf_server_destroy(server);
}

TEST_F(CapiServe, RejectedPolicyKeepsShedOnAFullQueue) {
  iatf_serve_config config{};
  config.queue_capacity = 1;
  config.max_coalesce = 1;
  config.overload = IATF_OVERLOAD_SHED;
  iatf_server* server = iatf_server_create(&config);
  ASSERT_NE(server, nullptr);
  // Out of range: refused, and SHED stays (a policy no case handles
  // would spin in the full-queue loop forever).
  EXPECT_EQ(iatf_server_set_overload_policy(
                server, static_cast<iatf_overload_policy>(9)),
            IATF_STATUS_INVALID_ARG);

  // Every dispatch stalls, so the one queue slot fills and stays full.
  iatf::fault::ScopedFault stall("watchdog.stall", 0, 1000);
  iatf_dbuf* a = filled(4, 4, 4, 1.0);
  iatf_dbuf* b = filled(4, 4, 4, 1.0);
  std::vector<iatf_dbuf*> cs;
  std::vector<uint64_t> tickets;
  int rc = IATF_STATUS_OK;
  for (int i = 0; i < 16 && rc == IATF_STATUS_OK; ++i) {
    cs.push_back(filled(4, 4, 4, 0.0));
    uint64_t ticket = 0;
    rc = iatf_server_submit_dgemm(server, IATF_NOTRANS, IATF_NOTRANS, 1.0,
                                  a, b, 0.0, cs.back(), 0, 0.0, &ticket);
    if (rc == IATF_STATUS_OK) {
      tickets.push_back(ticket);
    }
  }
  EXPECT_EQ(rc, IATF_STATUS_OVERLOADED);
  iatf::fault::disarm_all();
  for (uint64_t t : tickets) {
    EXPECT_EQ(iatf_server_wait(server, t), IATF_STATUS_OK);
  }
  iatf_server_destroy(server);
  iatf_ddestroy(a);
  iatf_ddestroy(b);
  for (iatf_dbuf* c : cs) {
    iatf_ddestroy(c);
  }
}

TEST_F(CapiServe, HugeSubmitDeadlineOverridesATinyDefault) {
  iatf_serve_config config{};
  config.overload = IATF_OVERLOAD_BLOCK;
  config.default_deadline_ms = 1e-6; // 1 ns: expires before dispatch
  iatf_server* server = iatf_server_create(&config);
  ASSERT_NE(server, nullptr);
  iatf_dbuf* a = filled(4, 4, 4, 1.0);
  iatf_dbuf* b = filled(4, 4, 4, 1.0);
  iatf_dbuf* c = filled(4, 4, 4, 0.0);
  // 1e300 ms clamps to the largest budget, not to "none" (which would
  // fall back to the 1 ns default and time out).
  for (const double deadline_ms : {1e300, static_cast<double>(INFINITY)}) {
    uint64_t ticket = 0;
    ASSERT_EQ(iatf_server_submit_dgemm(server, IATF_NOTRANS, IATF_NOTRANS,
                                       1.0, a, b, 0.0, c, 0, deadline_ms,
                                       &ticket),
              IATF_STATUS_OK);
    EXPECT_EQ(iatf_server_wait(server, ticket), IATF_STATUS_OK)
        << deadline_ms;
  }
  iatf_ddestroy(a);
  iatf_ddestroy(b);
  iatf_ddestroy(c);
  iatf_server_destroy(server);
}

TEST_F(CapiServe, NullArgumentsAreRejected) {
  EXPECT_EQ(iatf_server_drain(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_server_stop(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_server_get_stats(nullptr, nullptr),
            IATF_STATUS_INVALID_ARG);
  iatf_server* server = iatf_server_create(nullptr);
  ASSERT_NE(server, nullptr);
  uint64_t ticket = 0;
  EXPECT_EQ(iatf_server_submit_dgemm(server, IATF_NOTRANS, IATF_NOTRANS,
                                     1.0, nullptr, nullptr, 0.0, nullptr,
                                     0, 0.0, &ticket),
            IATF_STATUS_INVALID_ARG);
  iatf_dbuf* a = filled(2, 2, 2, 1.0);
  EXPECT_EQ(iatf_server_submit_dgemm(server, IATF_NOTRANS, IATF_NOTRANS,
                                     1.0, a, a, 0.0, nullptr, 0, 0.0,
                                     &ticket),
            IATF_STATUS_INVALID_ARG);
  iatf_ddestroy(a);
  iatf_server_destroy(server);
}

TEST_F(CapiServe, CancelIsAdvisoryAndTicketStaysWaitable) {
  iatf_server* server = iatf_server_create(nullptr);
  ASSERT_NE(server, nullptr);

  // Cancel of a ticket that was never issued: stable refusal.
  EXPECT_EQ(iatf_server_cancel(server, 12345), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_server_cancel(nullptr, 1), IATF_STATUS_INVALID_ARG);

  // Queue a burst and cancel every ticket right after submitting it.
  // Cancellation is advisory -- a request the dispatcher already picked
  // up completes normally -- so each ticket must resolve exactly once
  // as either OK or CANCELLED, and the ticket stays waitable after the
  // cancel call (the caller still owns the buffers until then).
  iatf_dbuf* a = filled(4, 4, 4, 1.0);
  iatf_dbuf* b = filled(4, 4, 4, 1.0);
  constexpr int kBurst = 16;
  std::vector<iatf_dbuf*> cs;
  std::vector<uint64_t> tickets;
  for (int i = 0; i < kBurst; ++i) {
    cs.push_back(filled(4, 4, 4, 0.0));
    uint64_t ticket = 0;
    ASSERT_EQ(iatf_server_submit_dgemm(server, IATF_NOTRANS, IATF_NOTRANS,
                                       1.0, a, b, 0.0, cs.back(), 0, 0.0,
                                       &ticket),
              IATF_STATUS_OK);
    EXPECT_EQ(iatf_server_cancel(server, ticket), IATF_STATUS_OK);
    // Cancelling twice is as advisory as cancelling once.
    EXPECT_EQ(iatf_server_cancel(server, ticket), IATF_STATUS_OK);
    tickets.push_back(ticket);
  }

  int ok = 0, cancelled = 0;
  for (uint64_t t : tickets) {
    const int rc = iatf_server_wait(server, t);
    ASSERT_TRUE(rc == IATF_STATUS_OK || rc == IATF_STATUS_CANCELLED)
        << "ticket resolved with status " << rc;
    (rc == IATF_STATUS_OK ? ok : cancelled) += 1;
    // wait consumed the ticket; a late cancel is now INVALID_ARG.
    EXPECT_EQ(iatf_server_cancel(server, t), IATF_STATUS_INVALID_ARG);
    EXPECT_EQ(iatf_server_wait(server, t), IATF_STATUS_INVALID_ARG);
  }
  ASSERT_EQ(iatf_server_drain(server), IATF_STATUS_OK);
  iatf_server_stats stats;
  ASSERT_EQ(iatf_server_get_stats(server, &stats), IATF_STATUS_OK);
  EXPECT_EQ(stats.submitted, kBurst);
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.cancelled, cancelled);

  iatf_ddestroy(a);
  iatf_ddestroy(b);
  for (iatf_dbuf* c : cs) {
    iatf_ddestroy(c);
  }
  iatf_server_destroy(server);
}

TEST_F(CapiServe, VersionStringIsExposed) {
  ASSERT_NE(iatf_version(), nullptr);
  EXPECT_STREQ(iatf_version(), "0.10.0");
}

} // namespace
