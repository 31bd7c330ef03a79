// Fault suite for the guarded-execution subsystem: every degradation path
// (injected allocation failure, missing kernel, unsupported plan, worker
// exception, singular TRSM diagonal, non-finite output) must complete via
// the reference fallback under ExecPolicy::Fallback, report correctly
// under Check, and leave Fast behaviour untouched.
#include <atomic>
#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/parallel/thread_pool.hpp"
#include "iatf/ref/ref_blas.hpp"

namespace iatf {
namespace {

// NaN-aware exact equality: fallback lanes are produced by ref_blas on a
// bit-exact export of the inputs, so they must match a host-side ref run
// bit-for-bit, including the NaN/Inf pattern.
template <class R> void expect_refequal_scalar(R e, R a) {
  if (std::isnan(e)) {
    EXPECT_TRUE(std::isnan(a));
  } else {
    EXPECT_EQ(e, a);
  }
}

template <class T>
void expect_lane_refequal(const test::HostBatch<T>& expected,
                          const test::HostBatch<T>& actual, index_t lane) {
  for (index_t j = 0; j < expected.cols; ++j) {
    for (index_t i = 0; i < expected.rows; ++i) {
      const T e = expected.mat(lane)[j * expected.ld() + i];
      const T a = actual.mat(lane)[j * actual.ld() + i];
      if constexpr (is_complex_v<T>) {
        expect_refequal_scalar(e.real(), a.real());
        expect_refequal_scalar(e.imag(), a.imag());
      } else {
        expect_refequal_scalar(e, a);
      }
    }
  }
}

class GuardedEngine : public ::testing::Test {
protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// A GEMM problem with transposed operands (so the plan packs and its
// workspace allocation is live) plus its host-side reference result.
struct GemmFixture {
  index_t m = 9, n = 7, k = 6, batch = 0;
  test::HostBatch<double> a, b, c, expected;
  CompactBuffer<double> ca, cb, cc;

  explicit GemmFixture(index_t groups = 3) {
    Rng rng(2031);
    batch = simd::pack_width_v<double> * groups + 1;
    a = test::random_batch<double>(k, m, batch, rng); // Trans: A is k x m
    b = test::random_batch<double>(n, k, batch, rng); // Trans: B is n x k
    c = test::random_batch<double>(m, n, batch, rng);
    expected = c;
    for (index_t l = 0; l < batch; ++l) {
      ref::gemm(Op::Trans, Op::Trans, m, n, k, 2.0, a.mat(l), a.ld(),
                b.mat(l), b.ld(), -1.0, expected.mat(l), expected.ld());
    }
    ca = a.to_compact();
    cb = b.to_compact();
    cc = c.to_compact();
  }

  BatchHealth run(Engine& e) {
    return e.gemm<double>(Op::Trans, Op::Trans, 2.0, ca, cb, -1.0, cc);
  }

  void expect_matches_reference() {
    test::HostBatch<double> out = c;
    out.from_compact(cc);
    test::expect_batch_near(expected, out,
                            test::ulp_tolerance<double>(k), "guarded gemm");
  }
};

TEST_F(GuardedEngine, FastPolicyReturnsEmptyHealth) {
  Engine e(CacheInfo::kunpeng920());
  EXPECT_EQ(e.policy(), ExecPolicy::Fast);
  GemmFixture fx;
  const BatchHealth h = fx.run(e);
  EXPECT_EQ(h.batch, fx.batch);
  EXPECT_TRUE(h.clean());
  fx.expect_matches_reference();
}

TEST_F(GuardedEngine, FastPolicyDoesNotScanOutputs) {
  Engine e(CacheInfo::kunpeng920());
  GemmFixture fx;
  fx.a.mat(1)[0] = std::numeric_limits<double>::quiet_NaN();
  fx.ca = fx.a.to_compact();
  const BatchHealth h = fx.run(e);
  EXPECT_TRUE(h.clean()); // Fast: hazards flow through unreported
}

TEST_F(GuardedEngine, CheckReportsNonfiniteLanes) {
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Check);
  GemmFixture fx;
  fx.a.mat(2)[0] = std::numeric_limits<double>::quiet_NaN();
  fx.a.mat(5)[1] = std::numeric_limits<double>::infinity();
  fx.ca = fx.a.to_compact();

  const BatchHealth h = fx.run(e);
  EXPECT_EQ(h.nonfinite, 2);
  EXPECT_EQ(h.first_nonfinite, 2);
  EXPECT_EQ(h.fallback, 0); // Check observes, never repairs
  EXPECT_TRUE(has_event(h.events, DegradeEvent::NumericalHazard));

  // The hazardous lanes really contain non-finite values (Check must not
  // alter the fast-path output).
  test::HostBatch<double> out = fx.c;
  out.from_compact(fx.cc);
  bool lane2_bad = false;
  for (index_t j = 0; j < fx.n; ++j) {
    for (index_t i = 0; i < fx.m; ++i) {
      lane2_bad = lane2_bad || !std::isfinite(out.mat(2)[j * fx.m + i]);
    }
  }
  EXPECT_TRUE(lane2_bad);
}

TEST_F(GuardedEngine, FallbackRepairsNonfiniteLanes) {
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Fallback);
  GemmFixture fx;
  fx.a.mat(2)[0] = std::numeric_limits<double>::quiet_NaN();
  fx.ca = fx.a.to_compact();
  // The reference recomputation starts from the original C, so rebuild
  // the expected lane from the NaN-seeded inputs.
  fx.expected = fx.c;
  for (index_t l = 0; l < fx.batch; ++l) {
    ref::gemm(Op::Trans, Op::Trans, fx.m, fx.n, fx.k, 2.0, fx.a.mat(l),
              fx.a.ld(), fx.b.mat(l), fx.b.ld(), -1.0, fx.expected.mat(l),
              fx.expected.ld());
  }

  const BatchHealth h = fx.run(e);
  EXPECT_EQ(h.nonfinite, 1);
  EXPECT_EQ(h.fallback, 1);
  EXPECT_EQ(h.first_fallback, 2);
  EXPECT_TRUE(h.degraded());
  EXPECT_TRUE(has_event(h.events, DegradeEvent::NumericalHazard));

  // The repaired lane is bit-for-bit the reference result; the clean
  // lanes stayed on the optimised path.
  test::HostBatch<double> out = fx.c;
  out.from_compact(fx.cc);
  expect_lane_refequal(fx.expected, out, 2);
  const double tol = test::ulp_tolerance<double>(fx.k);
  for (index_t l = 0; l < fx.batch; ++l) {
    if (l == 2) {
      continue; // verified bit-for-bit above
    }
    for (index_t j = 0; j < fx.n; ++j) {
      for (index_t i = 0; i < fx.m; ++i) {
        const double diff = std::abs(fx.expected.mat(l)[j * fx.m + i] -
                                     out.mat(l)[j * fx.m + i]);
        ASSERT_LE(diff, tol * 16) << "lane " << l;
      }
    }
  }
}

TEST_F(GuardedEngine, FallbackOnAllocFailure) {
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Fallback);
  GemmFixture fx;
  fault::ScopedFault guard("alloc");
  const BatchHealth h = fx.run(e);
  EXPECT_GE(fault::hits("alloc"), 1);
  EXPECT_TRUE(has_event(h.events, DegradeEvent::AllocFailure));
  EXPECT_EQ(h.fallback, fx.batch);
  EXPECT_EQ(h.first_fallback, 0);
  fx.expect_matches_reference();
}

TEST_F(GuardedEngine, FastThrowsOnAllocFailure) {
  Engine e(CacheInfo::kunpeng920());
  GemmFixture fx;
  fault::ScopedFault guard("alloc");
  EXPECT_THROW(fx.run(e), fault::FaultInjected);
}

TEST_F(GuardedEngine, CheckThrowsOnAllocFailure) {
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Check);
  GemmFixture fx;
  fault::ScopedFault guard("alloc");
  EXPECT_THROW(fx.run(e), fault::FaultInjected);
}

TEST_F(GuardedEngine, FallbackOnMissingGemmKernel) {
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Fallback);
  GemmFixture fx;
  fault::ScopedFault guard("registry.gemm");
  const BatchHealth h = fx.run(e);
  EXPECT_TRUE(has_event(h.events, DegradeEvent::MissingKernel));
  EXPECT_EQ(h.fallback, fx.batch);
  fx.expect_matches_reference();
}

TEST_F(GuardedEngine, FallbackOnUnsupportedPlan) {
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Fallback);
  GemmFixture fx;
  fault::ScopedFault guard("plan.gemm");
  const BatchHealth h = fx.run(e);
  EXPECT_TRUE(has_event(h.events, DegradeEvent::UnsupportedPlan));
  EXPECT_EQ(h.fallback, fx.batch);
  fx.expect_matches_reference();
}

TEST_F(GuardedEngine, FailedPlanIsNotCached) {
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Fallback);
  GemmFixture fx;
  {
    fault::ScopedFault guard("plan.gemm");
    const BatchHealth h = fx.run(e);
    EXPECT_TRUE(h.degraded());
  }
  EXPECT_EQ(e.plan_cache_size(), 0u);
  // With the fault gone the same descriptor builds and runs normally.
  GemmFixture fresh;
  const BatchHealth h = fresh.run(e);
  EXPECT_TRUE(h.clean());
  EXPECT_EQ(e.plan_cache_size(), 1u);
  fresh.expect_matches_reference();
}

TEST_F(GuardedEngine, FallbackOnWorkerFailure) {
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Fallback);
  ThreadPool pool(4);
  e.set_thread_pool(&pool);
  EXPECT_EQ(e.thread_pool(), &pool);
  // One-group work items: the call fans out to the workers, where the
  // armed "threadpool.worker" site sits.
  plan::PlanTuning tuning;
  tuning.chunk_groups = 1;
  e.set_plan_tuning(tuning);
  GemmFixture fx(/*groups=*/8);
  fault::ScopedFault guard("threadpool.worker");
  const BatchHealth h = fx.run(e);
  EXPECT_TRUE(has_event(h.events, DegradeEvent::WorkerFailure));
  EXPECT_EQ(h.fallback, fx.batch);
  fx.expect_matches_reference();
  // The pool survives the injected failure.
  fault::disarm_all();
  std::atomic<int> total{0};
  pool.parallel_for(0, 16, [&](index_t b, index_t en) {
    total += static_cast<int>(en - b);
  });
  EXPECT_EQ(total.load(), 16);
}

TEST_F(GuardedEngine, ParallelGuardedMatchesSerialGuarded) {
  Engine serial(CacheInfo::kunpeng920());
  serial.set_policy(ExecPolicy::Check);
  GemmFixture fx1(/*groups=*/8);
  const BatchHealth h1 = fx1.run(serial);

  Engine parallel(CacheInfo::kunpeng920());
  parallel.set_policy(ExecPolicy::Check);
  ThreadPool pool(3);
  parallel.set_thread_pool(&pool);
  plan::PlanTuning tuning;
  tuning.chunk_groups = 1; // fan out: one-group work items
  parallel.set_plan_tuning(tuning);
  GemmFixture fx2(/*groups=*/8);
  const BatchHealth h2 = fx2.run(parallel);

  EXPECT_TRUE(h1.clean());
  EXPECT_TRUE(h2.clean());
  for (index_t l = 0; l < fx1.batch; ++l) {
    for (index_t j = 0; j < fx1.n; ++j) {
      for (index_t i = 0; i < fx1.m; ++i) {
        ASSERT_EQ(fx1.cc.get(l, i, j), fx2.cc.get(l, i, j));
      }
    }
  }
}

TEST_F(GuardedEngine, InvalidArgIsNeverDegraded) {
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Fallback);
  CompactBuffer<double> a(4, 4, 8), b(4, 4, 8);
  CompactBuffer<double> c(4, 4, 9); // mismatched batch
  try {
    e.gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a, b, 0.0, c);
    FAIL() << "expected InvalidArg";
  } catch (const Error& err) {
    EXPECT_EQ(err.status(), Status::InvalidArg);
  }
}

// --- TRSM -----------------------------------------------------------------

struct TrsmFixture {
  index_t m = 7, n = 5, batch = 0;
  test::HostBatch<double> a, b, expected;
  CompactBuffer<double> ca, cb;

  TrsmFixture() {
    Rng rng(2032);
    batch = simd::pack_width_v<double> * 3 + 1;
    a = test::random_triangular_batch<double>(m, batch, rng);
    b = test::random_batch<double>(m, n, batch, rng);
    rebuild();
  }

  /// Recompute the compact buffers and reference after editing a or b.
  void rebuild() {
    expected = b;
    for (index_t l = 0; l < batch; ++l) {
      ref::trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, m, n,
                1.5, a.mat(l), a.ld(), expected.mat(l), expected.ld());
    }
    ca = a.to_compact();
    ca.pad_identity();
    cb = b.to_compact();
  }

  BatchHealth run(Engine& e) {
    return e.trsm<double>(Side::Left, Uplo::Lower, Op::NoTrans,
                          Diag::NonUnit, 1.5, ca, cb);
  }
};

TEST_F(GuardedEngine, TrsmFastPolicyIsClean) {
  Engine e(CacheInfo::kunpeng920());
  TrsmFixture fx;
  const BatchHealth h = fx.run(e);
  EXPECT_TRUE(h.clean());
  test::HostBatch<double> out = fx.b;
  out.from_compact(fx.cb);
  test::expect_batch_near(fx.expected, out, test::ulp_tolerance<double>(fx.m),
                          "trsm fast");
}

TEST_F(GuardedEngine, TrsmCheckReportsSingularDiagonal) {
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Check);
  TrsmFixture fx;
  fx.a.mat(3)[2 * fx.m + 2] = 0.0; // zero diagonal in lane 3
  fx.rebuild();
  const BatchHealth h = fx.run(e);
  EXPECT_EQ(h.singular, 1);
  EXPECT_EQ(h.first_singular, 3);
  EXPECT_EQ(h.fallback, 0);
  EXPECT_TRUE(has_event(h.events, DegradeEvent::NumericalHazard));
}

TEST_F(GuardedEngine, TrsmFallbackRecomputesSingularLaneExactly) {
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Fallback);
  TrsmFixture fx;
  fx.a.mat(3)[2 * fx.m + 2] = 0.0;
  fx.rebuild(); // expected lane 3 now holds ref's divide-by-zero result
  const BatchHealth h = fx.run(e);
  EXPECT_EQ(h.singular, 1);
  EXPECT_EQ(h.fallback, 1);
  EXPECT_EQ(h.first_fallback, 3);

  test::HostBatch<double> out = fx.b;
  out.from_compact(fx.cb);
  // The singular lane must match the scalar reference bit-for-bit.
  expect_lane_refequal(fx.expected, out, 3);
  // Clean lanes stay on the optimised path, within tolerance of ref.
  for (index_t l = 0; l < fx.batch; ++l) {
    if (l == 3) {
      continue;
    }
    for (index_t j = 0; j < fx.n; ++j) {
      for (index_t i = 0; i < fx.m; ++i) {
        const double diff = std::abs(fx.expected.mat(l)[j * fx.m + i] -
                                     out.mat(l)[j * fx.m + i]);
        ASSERT_LE(diff, 1e-10) << "lane " << l;
      }
    }
  }
}

TEST_F(GuardedEngine, TrsmFallbackOnMissingTriKernel) {
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Fallback);
  TrsmFixture fx;
  fault::ScopedFault guard("registry.tri");
  const BatchHealth h = fx.run(e);
  EXPECT_TRUE(has_event(h.events, DegradeEvent::MissingKernel));
  EXPECT_EQ(h.fallback, fx.batch);
  test::HostBatch<double> out = fx.b;
  out.from_compact(fx.cb);
  test::expect_batch_near(fx.expected, out, test::ulp_tolerance<double>(fx.m),
                          "trsm fallback");
}

TEST_F(GuardedEngine, TrsmFallbackOnUnsupportedPlan) {
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Fallback);
  TrsmFixture fx;
  fault::ScopedFault guard("plan.trsm");
  const BatchHealth h = fx.run(e);
  EXPECT_TRUE(has_event(h.events, DegradeEvent::UnsupportedPlan));
  EXPECT_EQ(h.fallback, fx.batch);
  test::HostBatch<double> out = fx.b;
  out.from_compact(fx.cb);
  test::expect_batch_near(fx.expected, out, test::ulp_tolerance<double>(fx.m),
                          "trsm fallback");
}

TEST_F(GuardedEngine, TrsmCheckThrowsOnInjectedFault) {
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Check);
  TrsmFixture fx;
  fault::ScopedFault guard("registry.tri");
  EXPECT_THROW(fx.run(e), fault::FaultInjected);
}

// Hazard detection across all four scalar types.
template <class T> class GuardedEngineTyped : public ::testing::Test {
protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};
using ScalarTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(GuardedEngineTyped, ScalarTypes);

TYPED_TEST(GuardedEngineTyped, FallbackRepairsSeededNan) {
  using T = TypeParam;
  using R = real_t<T>;
  Engine e(CacheInfo::kunpeng920());
  e.set_policy(ExecPolicy::Fallback);
  Rng rng(2033);
  const index_t m = 6, n = 5, k = 4;
  const index_t batch = simd::pack_width_v<T> * 2 + 1;
  auto a = test::random_batch<T>(m, k, batch, rng);
  auto b = test::random_batch<T>(k, n, batch, rng);
  auto c = test::random_batch<T>(m, n, batch, rng);
  const index_t bad = batch - 1; // last (partially padded) group
  a.mat(bad)[1] = T(std::numeric_limits<R>::quiet_NaN());

  auto expected = c;
  for (index_t l = 0; l < batch; ++l) {
    ref::gemm(Op::NoTrans, Op::NoTrans, m, n, k, T(1), a.mat(l), a.ld(),
              b.mat(l), b.ld(), T(0), expected.mat(l), expected.ld());
  }

  auto ca = a.to_compact();
  auto cb = b.to_compact();
  auto cc = c.to_compact();
  const BatchHealth h =
      e.gemm<T>(Op::NoTrans, Op::NoTrans, T(1), ca, cb, T(0), cc);
  EXPECT_EQ(h.nonfinite, 1);
  EXPECT_EQ(h.first_nonfinite, bad);
  EXPECT_EQ(h.fallback, 1);

  auto out = c;
  out.from_compact(cc);
  expect_lane_refequal(expected, out, bad);

  // TRMM, the multiply of the triangular plan: a NaN below A's diagonal
  // is flagged under Check and repaired under Fallback.
  auto ta = test::random_triangular_batch<T>(m, batch, rng);
  auto tb = test::random_batch<T>(m, n, batch, rng);
  ta.mat(bad)[1] = T(std::numeric_limits<R>::quiet_NaN());
  auto texpected = tb;
  for (index_t l = 0; l < batch; ++l) {
    ref::trmm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, m, n,
              T(0.5), ta.mat(l), ta.ld(), texpected.mat(l),
              texpected.ld());
  }
  for (const ExecPolicy policy : {ExecPolicy::Check, ExecPolicy::Fallback}) {
    e.set_policy(policy);
    auto cta = ta.to_compact();
    auto ctb = tb.to_compact();
    const BatchHealth th = e.trmm<T>(Side::Left, Uplo::Lower, Op::NoTrans,
                                     Diag::NonUnit, T(0.5), cta, ctb);
    EXPECT_EQ(th.nonfinite, 1);
    EXPECT_EQ(th.first_nonfinite, bad);
    EXPECT_EQ(th.fallback, policy == ExecPolicy::Fallback ? 1 : 0);
    if (policy == ExecPolicy::Fallback) {
      auto tout = tb;
      tout.from_compact(ctb);
      expect_lane_refequal(texpected, tout, bad);
    }
  }
}

} // namespace
} // namespace iatf
