// Deadline-aware dispatch at the engine boundary: a per-call budget set
// with set_call_deadline() bounds each gemm/trsm. Expiry surfaces as
// Status::Timeout with partial-work accounting, is counted in the engine
// stats, is never degraded to a fallback recompute, and never poisons the
// engine or an attached thread pool.
#include <atomic>
#include <chrono>

#include <gtest/gtest.h>

#include "iatf/common/error.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/parallel/thread_pool.hpp"

namespace iatf {
namespace {

class EngineDeadline : public ::testing::Test {
protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(EngineDeadline, ExpiredDeadlineReturnsTimeout) {
  Engine engine(CacheInfo::kunpeng920());
  CompactBuffer<float> a(4, 4, 64), b(4, 4, 64), c(4, 4, 64);

  engine.set_call_deadline(std::chrono::nanoseconds(1));
  try {
    engine.gemm<float>(Op::NoTrans, Op::NoTrans, 1.0f, a, b, 0.0f, c);
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& e) {
    EXPECT_EQ(e.status(), Status::Timeout);
    EXPECT_LT(e.completed(), e.total());
  }
  EXPECT_EQ(engine.stats().timeout_calls, 1u);

  // Disabling the deadline restores normal completion: nothing was
  // poisoned by the timed-out call.
  engine.set_call_deadline(std::chrono::nanoseconds(0));
  const BatchHealth health =
      engine.gemm<float>(Op::NoTrans, Op::NoTrans, 1.0f, a, b, 0.0f, c);
  EXPECT_EQ(health.batch, 64);
  EXPECT_EQ(engine.stats().timeout_calls, 1u);
}

TEST_F(EngineDeadline, TrsmHonoursDeadlineToo) {
  Engine engine(CacheInfo::kunpeng920());
  CompactBuffer<double> a(5, 5, 48), b(5, 5, 48);
  a.pad_identity();

  engine.set_call_deadline(std::chrono::nanoseconds(1));
  EXPECT_THROW(engine.trsm<double>(Side::Left, Uplo::Lower, Op::NoTrans,
                                   Diag::Unit, 1.0, a, b),
               TimeoutError);
  EXPECT_EQ(engine.stats().timeout_calls, 1u);
}

// Timeout must never be "repaired" by the Fallback policy: a scalar
// recompute of the whole batch can only take longer than the plan that
// already blew the budget. The error propagates exactly as under Fast.
TEST_F(EngineDeadline, TimeoutIsNotDegradedUnderFallback) {
  Engine engine(CacheInfo::kunpeng920());
  engine.set_policy(ExecPolicy::Fallback);
  CompactBuffer<float> a(4, 4, 64), b(4, 4, 64), c(4, 4, 64);

  engine.set_call_deadline(std::chrono::nanoseconds(1));
  EXPECT_THROW(
      engine.gemm<float>(Op::NoTrans, Op::NoTrans, 1.0f, a, b, 0.0f, c),
      TimeoutError);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.timeout_calls, 1u);
  EXPECT_EQ(stats.degraded_calls, 0u);
  EXPECT_EQ(stats.fallback_lanes, 0u);
}

// With a pool attached, expiry is detected between pool chunks as well as
// between batch slices; the pool survives and serves later calls.
TEST_F(EngineDeadline, ParallelTimeoutLeavesPoolUsable) {
  ThreadPool pool(4);
  Engine engine(CacheInfo::kunpeng920());
  engine.set_thread_pool(&pool);
  plan::PlanTuning tuning;
  tuning.chunk_groups = 1; // fan out: one-group work items
  engine.set_plan_tuning(tuning);
  CompactBuffer<float> a(4, 4, 256), b(4, 4, 256), c(4, 4, 256);

  engine.set_call_deadline(std::chrono::nanoseconds(1));
  EXPECT_THROW(
      engine.gemm<float>(Op::NoTrans, Op::NoTrans, 1.0f, a, b, 0.0f, c),
      TimeoutError);

  engine.set_call_deadline(std::chrono::nanoseconds(0));
  const BatchHealth health =
      engine.gemm<float>(Op::NoTrans, Op::NoTrans, 1.0f, a, b, 0.0f, c);
  EXPECT_EQ(health.batch, 256);
  // The pool itself still dispatches unrelated work.
  std::atomic<index_t> count{0};
  pool.parallel_for(0, 100, [&](index_t lo, index_t hi) {
    count.fetch_add(hi - lo);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST_F(EngineDeadline, GenerousDeadlineDoesNotFire) {
  Engine engine(CacheInfo::kunpeng920());
  CompactBuffer<float> a(4, 4, 64), b(4, 4, 64), c(4, 4, 64);
  engine.set_call_deadline(std::chrono::seconds(30));
  EXPECT_EQ(engine.call_deadline(), std::chrono::seconds(30));
  const BatchHealth health =
      engine.gemm<float>(Op::NoTrans, Op::NoTrans, 1.0f, a, b, 0.0f, c);
  EXPECT_EQ(health.batch, 64);
  EXPECT_EQ(engine.stats().timeout_calls, 0u);
}

} // namespace
} // namespace iatf
