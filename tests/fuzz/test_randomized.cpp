// Randomised differential testing: hundreds of randomly-drawn problem
// descriptors (shape, modes, scalars, batch) for every routine, each
// checked against the scalar reference. This is the safety net behind
// the structured suites -- any plan-generator / tiler / packer
// interaction missed by the targeted tests shows up here.
//
// The hazard sweeps additionally seed random batches with NaN/Inf inputs
// and zero TRSM diagonals, asserting the guarded engine's BatchHealth
// report and that ExecPolicy::Fallback recomputes exactly the affected
// lanes on the reference path.
#include <cmath>
#include <complex>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/core/compact_blas.hpp"
#include "iatf/ref/ref_blas.hpp"

namespace iatf {
namespace {

template <class R> void expect_refequal_scalar(R e, R a) {
  if (std::isnan(e)) {
    EXPECT_TRUE(std::isnan(a));
  } else {
    EXPECT_EQ(e, a);
  }
}

/// NaN-aware exact comparison of one lane against the host reference.
template <class T>
void expect_lane_refequal(const test::HostBatch<T>& expected,
                          const test::HostBatch<T>& actual, index_t lane,
                          const std::string& context) {
  SCOPED_TRACE(context + " lane " + std::to_string(lane));
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

Op random_op(Rng& rng) {
  return static_cast<Op>(rng.uniform_int(0, 2));
}

template <class T> T random_scalar(Rng& rng) {
  using R = real_t<T>;
  // Bias toward the special values the kernels branch on.
  switch (rng.uniform_int(0, 4)) {
  case 0:
    return T(0);
  case 1:
    return T(1);
  case 2:
    return T(-1);
  default:
    if constexpr (is_complex_v<T>) {
      return T(rng.uniform<R>(-2, 2), rng.uniform<R>(-2, 2));
    } else {
      return T(rng.uniform<R>(-2, 2));
    }
  }
}

template <class T> void fuzz_gemm_once(Rng& rng, int round) {
  const index_t m = rng.uniform_int(1, 24);
  const index_t n = rng.uniform_int(1, 24);
  const index_t k = rng.uniform_int(0, 24);
  const index_t batch = rng.uniform_int(1, 3 * simd::pack_width_v<T>);
  const Op op_a = random_op(rng);
  const Op op_b = random_op(rng);
  const T alpha = random_scalar<T>(rng);
  const T beta = random_scalar<T>(rng);

  const bool ta = op_a != Op::NoTrans;
  const bool tb = op_b != Op::NoTrans;
  auto a = test::random_batch<T>(ta ? k : m, ta ? m : k, batch, rng);
  auto b = test::random_batch<T>(tb ? n : k, tb ? k : n, batch, rng);
  auto c = test::random_batch<T>(m, n, batch, rng);
  auto ca = a.to_compact();
  auto cb = b.to_compact();
  auto cc = c.to_compact();

  compact_gemm<T>(op_a, op_b, alpha, ca, cb, beta, cc);

  auto expected = c;
  for (index_t l = 0; l < batch; ++l) {
    ref::gemm<T>(op_a, op_b, m, n, k, alpha, a.mat(l), a.ld(), b.mat(l),
                 b.ld(), beta, expected.mat(l), m);
  }
  test::HostBatch<T> actual(m, n, batch);
  actual.from_compact(cc);
  test::expect_batch_near(
      expected, actual, test::ulp_tolerance<T>(k, 128),
      "fuzz gemm round " + std::to_string(round) + " " +
          to_string(GemmShape{m, n, k, op_a, op_b, batch}));
}

template <class T> void fuzz_trsm_once(Rng& rng, int round) {
  const index_t m = rng.uniform_int(1, 20);
  const index_t n = rng.uniform_int(1, 20);
  const index_t batch = rng.uniform_int(1, 2 * simd::pack_width_v<T>);
  const Side side = rng.uniform_int(0, 1) ? Side::Right : Side::Left;
  const Uplo uplo = rng.uniform_int(0, 1) ? Uplo::Upper : Uplo::Lower;
  const Op op_a = random_op(rng);
  const Diag diag = rng.uniform_int(0, 1) ? Diag::Unit : Diag::NonUnit;
  const T alpha = random_scalar<T>(rng);

  const index_t adim = side == Side::Left ? m : n;
  auto a = test::random_triangular_batch<T>(adim, batch, rng);
  auto b = test::random_batch<T>(m, n, batch, rng);
  auto ca = a.to_compact();
  ca.pad_identity();
  auto cb = b.to_compact();

  compact_trsm<T>(side, uplo, op_a, diag, alpha, ca, cb);

  auto expected = b;
  for (index_t l = 0; l < batch; ++l) {
    ref::trsm<T>(side, uplo, op_a, diag, m, n, alpha, a.mat(l), adim,
                 expected.mat(l), m);
  }
  test::HostBatch<T> actual(m, n, batch);
  actual.from_compact(cb);
  test::expect_batch_near(
      expected, actual, test::ulp_tolerance<T>(adim, 512),
      "fuzz trsm round " + std::to_string(round) + " " +
          to_string(TrsmShape{m, n, side, uplo, op_a, diag, batch}));
}

template <class T> void fuzz_trmm_once(Rng& rng, int round) {
  const index_t m = rng.uniform_int(1, 20);
  const index_t n = rng.uniform_int(1, 20);
  const index_t batch = rng.uniform_int(1, 2 * simd::pack_width_v<T>);
  const Side side = rng.uniform_int(0, 1) ? Side::Right : Side::Left;
  const Uplo uplo = rng.uniform_int(0, 1) ? Uplo::Upper : Uplo::Lower;
  const Op op_a = random_op(rng);
  const Diag diag = rng.uniform_int(0, 1) ? Diag::Unit : Diag::NonUnit;
  const T alpha = random_scalar<T>(rng);

  const index_t adim = side == Side::Left ? m : n;
  auto a = test::random_triangular_batch<T>(adim, batch, rng);
  auto b = test::random_batch<T>(m, n, batch, rng);
  auto ca = a.to_compact();
  auto cb = b.to_compact();

  compact_trmm<T>(side, uplo, op_a, diag, alpha, ca, cb);

  auto expected = b;
  for (index_t l = 0; l < batch; ++l) {
    ref::trmm<T>(side, uplo, op_a, diag, m, n, alpha, a.mat(l), adim,
                 expected.mat(l), m);
  }
  test::HostBatch<T> actual(m, n, batch);
  actual.from_compact(cb);
  test::expect_batch_near(expected, actual, test::ulp_tolerance<T>(adim, 256),
                          "fuzz trmm round " + std::to_string(round));
}

/// Max-abs-difference check on a single lane (the batch-wide helper in
/// testutil is NaN-unsafe, so hazard sweeps compare lane by lane).
template <class T>
void expect_lane_near(const test::HostBatch<T>& expected,
                      const test::HostBatch<T>& actual, index_t lane,
                      real_t<T> tol, const std::string& context) {
  SCOPED_TRACE(context + " lane " + std::to_string(lane));
  for (index_t j = 0; j < expected.cols; ++j) {
    for (index_t i = 0; i < expected.rows; ++i) {
      const T e = expected.mat(lane)[j * expected.ld() + i];
      const T a = actual.mat(lane)[j * actual.ld() + i];
      ASSERT_LE(std::abs(a - e), tol)
          << "(" << i << "," << j << ") expected " << e << " got " << a;
    }
  }
}

template <class T> real_t<T> hazard_value(Rng& rng) {
  using R = real_t<T>;
  return rng.uniform_int(0, 1) ? std::numeric_limits<R>::quiet_NaN()
                               : std::numeric_limits<R>::infinity();
}

// GEMM hazard sweep: poison a random subset of lanes with a NaN or Inf in
// A, then assert that (a) Check reports exactly those lanes while leaving
// the optimised output identical to Fast, and (b) Fallback recomputes
// exactly those lanes on the reference path bit-for-bit and leaves the
// clean lanes on the optimised result.
template <class T>
void fuzz_gemm_hazard_once(Engine& eng, Rng& rng, int round) {
  const index_t m = rng.uniform_int(1, 12);
  const index_t n = rng.uniform_int(1, 12);
  const index_t k = rng.uniform_int(1, 12); // k >= 1 so poison propagates
  const index_t batch = rng.uniform_int(1, 3 * simd::pack_width_v<T>);
  const Op op_a = random_op(rng);
  const Op op_b = random_op(rng);
  // alpha = 1, beta = 0: any non-finite entry in A is guaranteed to reach
  // the output (alpha = 0 or a beta-only update would mask it).
  const T alpha = T(1);
  const T beta = T(0);
  const std::string context =
      "gemm hazard round " + std::to_string(round) + " " +
      to_string(GemmShape{m, n, k, op_a, op_b, batch});
  SCOPED_TRACE(context);

  const bool ta = op_a != Op::NoTrans;
  auto a = test::random_batch<T>(ta ? k : m, ta ? m : k, batch, rng);
  const bool tb = op_b != Op::NoTrans;
  auto b = test::random_batch<T>(tb ? n : k, tb ? k : n, batch, rng);
  auto c = test::random_batch<T>(m, n, batch, rng);

  std::set<index_t> bad;
  const std::int64_t nbad = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < nbad; ++i) {
    bad.insert(static_cast<index_t>(rng.uniform_int(0, batch - 1)));
  }
  for (index_t lane : bad) {
    const index_t i = rng.uniform_int(0, a.rows - 1);
    const index_t j = rng.uniform_int(0, a.cols - 1);
    a.mat(lane)[j * a.ld() + i] = T(hazard_value<T>(rng));
  }

  auto expected = c;
  for (index_t l = 0; l < batch; ++l) {
    ref::gemm<T>(op_a, op_b, m, n, k, alpha, a.mat(l), a.ld(), b.mat(l),
                 b.ld(), beta, expected.mat(l), m);
  }

  auto ca = a.to_compact();
  auto cb = b.to_compact();

  // Fast: no scanning, optimised output as-is.
  auto cc_fast = c.to_compact();
  eng.set_policy(ExecPolicy::Fast);
  const BatchHealth fast = eng.gemm<T>(op_a, op_b, alpha, ca, cb, beta,
                                       cc_fast);
  EXPECT_TRUE(fast.clean());

  // Check: exact hazard report, output identical to Fast.
  auto cc_check = c.to_compact();
  eng.set_policy(ExecPolicy::Check);
  const BatchHealth check = eng.gemm<T>(op_a, op_b, alpha, ca, cb, beta,
                                        cc_check);
  EXPECT_EQ(check.batch, batch);
  EXPECT_EQ(check.nonfinite, static_cast<index_t>(bad.size()));
  EXPECT_EQ(check.first_nonfinite, *bad.begin());
  EXPECT_EQ(check.fallback, 0);
  EXPECT_TRUE(has_event(check.events, DegradeEvent::NumericalHazard));
  test::HostBatch<T> fast_host(m, n, batch), check_host(m, n, batch);
  fast_host.from_compact(cc_fast);
  check_host.from_compact(cc_check);
  for (index_t l = 0; l < batch; ++l) {
    expect_lane_refequal(fast_host, check_host, l, context + " check==fast");
  }

  // Fallback: poisoned lanes recomputed on the reference path (bit-for-bit
  // against the host reference), clean lanes still the optimised result.
  auto cc_fb = c.to_compact();
  eng.set_policy(ExecPolicy::Fallback);
  const BatchHealth fb = eng.gemm<T>(op_a, op_b, alpha, ca, cb, beta, cc_fb);
  EXPECT_EQ(fb.nonfinite, static_cast<index_t>(bad.size()));
  EXPECT_EQ(fb.fallback, static_cast<index_t>(bad.size()));
  EXPECT_EQ(fb.first_fallback, *bad.begin());
  EXPECT_TRUE(fb.degraded());
  test::HostBatch<T> fb_host(m, n, batch);
  fb_host.from_compact(cc_fb);
  const auto tol = test::ulp_tolerance<T>(k, 128);
  for (index_t l = 0; l < batch; ++l) {
    if (bad.count(l)) {
      expect_lane_refequal(expected, fb_host, l, context + " repaired");
    } else {
      expect_lane_near(expected, fb_host, l, tol, context + " clean");
    }
  }
  eng.set_policy(ExecPolicy::Fast);
}

// TRSM hazard sweep: zero out the diagonal of a random subset of lanes
// (NonUnit, so the zero is actually consumed) and assert the pack-time
// singularity report plus exact reference recomputation under Fallback.
template <class T>
void fuzz_trsm_hazard_once(Engine& eng, Rng& rng, int round) {
  const index_t m = rng.uniform_int(1, 12);
  const index_t n = rng.uniform_int(1, 12);
  const index_t batch = rng.uniform_int(1, 2 * simd::pack_width_v<T>);
  const Side side = rng.uniform_int(0, 1) ? Side::Right : Side::Left;
  const Uplo uplo = rng.uniform_int(0, 1) ? Uplo::Upper : Uplo::Lower;
  const Op op_a = random_op(rng);
  const Diag diag = Diag::NonUnit;
  const T alpha = T(1);
  const index_t adim = side == Side::Left ? m : n;
  const std::string context =
      "trsm hazard round " + std::to_string(round) + " " +
      to_string(TrsmShape{m, n, side, uplo, op_a, diag, batch});
  SCOPED_TRACE(context);

  auto a = test::random_triangular_batch<T>(adim, batch, rng);
  auto b = test::random_batch<T>(m, n, batch, rng);

  std::set<index_t> bad;
  const std::int64_t nbad = rng.uniform_int(1, 2);
  for (std::int64_t i = 0; i < nbad; ++i) {
    bad.insert(static_cast<index_t>(rng.uniform_int(0, batch - 1)));
  }
  for (index_t lane : bad) {
    const index_t d = rng.uniform_int(0, adim - 1);
    a.mat(lane)[d * adim + d] = T(0);
  }

  auto expected = b;
  for (index_t l = 0; l < batch; ++l) {
    ref::trsm<T>(side, uplo, op_a, diag, m, n, alpha, a.mat(l), adim,
                 expected.mat(l), m);
  }

  auto ca = a.to_compact();
  ca.pad_identity();

  // Check: singular lanes reported from the pack-time diagonal scan; the
  // solve itself still ran on the optimised path.
  auto cb_check = b.to_compact();
  eng.set_policy(ExecPolicy::Check);
  const BatchHealth check = eng.trsm<T>(side, uplo, op_a, diag, alpha, ca,
                                        cb_check);
  EXPECT_EQ(check.batch, batch);
  EXPECT_EQ(check.singular, static_cast<index_t>(bad.size()));
  EXPECT_EQ(check.first_singular, *bad.begin());
  EXPECT_EQ(check.fallback, 0);
  EXPECT_TRUE(has_event(check.events, DegradeEvent::NumericalHazard));

  // Fallback: exactly the singular lanes are recomputed via ref::trsm --
  // including its divide-by-zero Inf/NaN pattern -- bit-for-bit.
  auto cb_fb = b.to_compact();
  eng.set_policy(ExecPolicy::Fallback);
  const BatchHealth fb = eng.trsm<T>(side, uplo, op_a, diag, alpha, ca,
                                     cb_fb);
  EXPECT_EQ(fb.singular, static_cast<index_t>(bad.size()));
  EXPECT_EQ(fb.fallback, static_cast<index_t>(bad.size()));
  EXPECT_EQ(fb.first_fallback, *bad.begin());
  test::HostBatch<T> fb_host(m, n, batch);
  fb_host.from_compact(cb_fb);
  const auto tol = test::ulp_tolerance<T>(adim, 512);
  for (index_t l = 0; l < batch; ++l) {
    if (bad.count(l)) {
      expect_lane_refequal(expected, fb_host, l, context + " repaired");
    } else {
      expect_lane_near(expected, fb_host, l, tol, context + " clean");
    }
  }
  eng.set_policy(ExecPolicy::Fast);
}

template <class T> class FuzzTyped : public ::testing::Test {};
using ScalarTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(FuzzTyped, ScalarTypes);

TYPED_TEST(FuzzTyped, GemmRandomisedSweep) {
  Rng rng(0xfeedbeef);
  for (int round = 0; round < 60; ++round) {
    fuzz_gemm_once<TypeParam>(rng, round);
  }
}

TYPED_TEST(FuzzTyped, TrsmRandomisedSweep) {
  Rng rng(0xdecade);
  for (int round = 0; round < 60; ++round) {
    fuzz_trsm_once<TypeParam>(rng, round);
  }
}

TYPED_TEST(FuzzTyped, TrmmRandomisedSweep) {
  Rng rng(0xacce55);
  for (int round = 0; round < 40; ++round) {
    fuzz_trmm_once<TypeParam>(rng, round);
  }
}

TYPED_TEST(FuzzTyped, GemmHazardSweep) {
  // A private engine keeps the policy switches away from the shared
  // default engine the plain sweeps run through.
  Engine eng(CacheInfo::kunpeng920());
  Rng rng(0xbadf00d);
  for (int round = 0; round < 25; ++round) {
    fuzz_gemm_hazard_once<TypeParam>(eng, rng, round);
  }
}

TYPED_TEST(FuzzTyped, TrsmHazardSweep) {
  Engine eng(CacheInfo::kunpeng920());
  Rng rng(0x51261a70);
  for (int round = 0; round < 25; ++round) {
    fuzz_trsm_hazard_once<TypeParam>(eng, rng, round);
  }
}

} // namespace
} // namespace iatf
