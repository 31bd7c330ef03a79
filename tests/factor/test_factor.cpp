// Fused batched compact factorisations (iatf::factor): potrf_batch /
// getrf_nopiv_batch / trtri_batch against the scalar references across
// the blocked and unblocked regimes, hazard lanes under Check and
// Fallback (flagged and ref-repaired, never poisoning the batch), the
// packed-handle forms, and heterogeneous factor_grouped chains.
#include <complex>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "factor_testutil.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/factor/factor.hpp"
#include "iatf/sched/group_scheduler.hpp"

namespace iatf {
namespace {

template <class T> class FactorTyped : public ::testing::Test {};
using ScalarTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(FactorTyped, ScalarTypes);

// Sizes spanning the unblocked small-m regime (<= 12), odd orders inside
// and past it (3, 5, 9, 13), the first blocked panel boundary and the
// paper's upper bound; batches deliberately ragged against the
// interleave width.
template <class T> std::vector<index_t> factor_sizes() {
  return {1, 2, 3, 4, 5, 8, 9, 12, 13, 16, 33};
}
template <class T> index_t ragged_batch() {
  return 3 * simd::pack_width_v<T> + 1;
}

TYPED_TEST(FactorTyped, PotrfMatchesReference) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  Rng rng(0x2f01);
  for (index_t m : factor_sizes<T>()) {
    const index_t batch = ragged_batch<T>();
    auto host = test::random_spd_batch<T>(m, batch, rng);
    auto expected = host;
    test::ref_potrf_batch(expected);

    auto a = host.to_compact();
    const BatchHealth health = engine.potrf_batch<T>(a);
    EXPECT_TRUE(health.clean()) << "m=" << m;
    auto actual = host;
    actual.from_compact(a);
    // The factorisation accumulates through ~m panel updates on top of
    // the reference's own O(m) recurrence; budget accordingly.
    test::expect_batch_near(expected, actual,
                            test::ulp_tolerance<T>(m, real_t<T>(128)),
                            "potrf m=" + std::to_string(m));
  }
}

TYPED_TEST(FactorTyped, GetrfNopivMatchesReference) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  Rng rng(0x2f02);
  for (index_t m : factor_sizes<T>()) {
    const index_t batch = ragged_batch<T>();
    auto host = test::random_diag_dominant_batch<T>(m, batch, rng);
    auto expected = host;
    test::ref_getrf_np_batch(expected);

    auto a = host.to_compact();
    const BatchHealth health = engine.getrf_nopiv_batch<T>(a);
    EXPECT_TRUE(health.clean()) << "m=" << m;
    auto actual = host;
    actual.from_compact(a);
    test::expect_batch_near(expected, actual,
                            test::ulp_tolerance<T>(m, real_t<T>(128)),
                            "getrf_np m=" + std::to_string(m));
  }
}

TYPED_TEST(FactorTyped, TrtriMatchesReference) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  Rng rng(0x2f03);
  for (index_t m : factor_sizes<T>()) {
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
        const index_t batch = simd::pack_width_v<T> + 2;
        // random_triangular_batch conditions the whole matrix, so the
        // same generator serves both uplo triangles.
        auto host = test::random_triangular_batch<T>(m, batch, rng);
        auto expected = host;
        test::ref_trtri_batch(uplo, diag, expected);

        auto a = host.to_compact();
        const BatchHealth health = engine.trtri_batch<T>(uplo, diag, a);
        EXPECT_TRUE(health.clean())
            << "m=" << m << " uplo=" << static_cast<int>(uplo);
        auto actual = host;
        actual.from_compact(a);
        test::expect_batch_near(
            expected, actual, test::ulp_tolerance<T>(m, real_t<T>(128)),
            "trtri m=" + std::to_string(m));
      }
    }
  }
}

TYPED_TEST(FactorTyped, HandleFormsMatchBufferFormsBitForBit) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  Rng rng(0x2f04);
  const index_t m = 16;
  const index_t batch = ragged_batch<T>();
  auto host = test::random_spd_batch<T>(m, batch, rng);

  auto buf = host.to_compact();
  engine.potrf_batch<T>(buf);
  auto via_buffer = host;
  via_buffer.from_compact(buf);

  auto handle = engine.pack<T>(host.data.data(), m, m, host.ld(),
                               host.matrix_stride(), batch);
  const std::uint64_t before = handle.epoch();
  engine.potrf_batch<T>(handle);
  EXPECT_GT(handle.epoch(), before);
  auto via_handle = host;
  engine.unpack<T>(handle, via_handle.data.data(), via_handle.ld(),
                   via_handle.matrix_stride());

  // Layout only keys the plan cache; plan construction is identical, so
  // the two paths run the same arithmetic.
  for (index_t lane = 0; lane < batch; ++lane) {
    EXPECT_TRUE(test::lanes_equal(via_buffer, via_handle, lane))
        << "lane " << lane;
  }
}

TYPED_TEST(FactorTyped, NonSpdLaneIsFlaggedUnderCheck) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  engine.set_policy(ExecPolicy::Check);
  Rng rng(0x2f05);
  const index_t m = 8;
  const index_t batch = simd::pack_width_v<T> + 3;
  const index_t bad = 1;
  auto host = test::random_spd_batch<T>(m, batch, rng);
  // Indefinite lane: negate the diagonal so the first pivot is negative.
  for (index_t j = 0; j < m; ++j) {
    host.mat(bad)[j * m + j] = T(real_t<T>(-1)) * host.mat(bad)[j * m + j];
  }

  auto a = host.to_compact();
  const BatchHealth health = engine.potrf_batch<T>(a);
  EXPECT_EQ(health.batch, batch);
  EXPECT_GE(health.singular + health.nonfinite, 1);
  EXPECT_TRUE(has_event(health.events, DegradeEvent::NumericalHazard));
  EXPECT_EQ(health.fallback, 0); // Check reports, never repairs

  // Healthy lanes are untouched by the hazard lane.
  auto expected = host;
  test::ref_potrf_batch_skipping(expected, bad);
  auto actual = host;
  actual.from_compact(a);
  const auto tol = test::ulp_tolerance<T>(m, real_t<T>(128));
  for (index_t lane = 0; lane < batch; ++lane) {
    if (lane == bad) {
      continue;
    }
    EXPECT_TRUE(
        test::lane_near(expected, actual, lane, tol))
        << "healthy lane " << lane;
  }
}

TYPED_TEST(FactorTyped, NonSpdLaneIsRestoredUnderFallback) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  engine.set_policy(ExecPolicy::Fallback);
  Rng rng(0x2f06);
  const index_t m = 8;
  const index_t batch = simd::pack_width_v<T> + 3;
  const index_t bad = 2;
  auto host = test::random_spd_batch<T>(m, batch, rng);
  for (index_t j = 0; j < m; ++j) {
    host.mat(bad)[j * m + j] = T(real_t<T>(-1)) * host.mat(bad)[j * m + j];
  }

  auto a = host.to_compact();
  const BatchHealth health = engine.potrf_batch<T>(a);
  EXPECT_GE(health.singular + health.nonfinite, 1);
  EXPECT_GE(health.fallback, 1);
  EXPECT_TRUE(has_event(health.events, DegradeEvent::NumericalHazard));

  auto actual = host;
  actual.from_compact(a);
  // The reference refuses a non-SPD lane too, so repair restores the
  // lane to its original input -- the batch is never poisoned.
  EXPECT_TRUE(test::lanes_equal(host, actual, bad));
  // Healthy lanes keep their factorisation.
  auto expected = host;
  test::ref_potrf_batch_skipping(expected, bad);
  const auto tol = test::ulp_tolerance<T>(m, real_t<T>(128));
  for (index_t lane = 0; lane < batch; ++lane) {
    if (lane == bad) {
      continue;
    }
    EXPECT_TRUE(test::lane_near(expected, actual, lane, tol))
        << "healthy lane " << lane;
  }

  const EngineStats stats = engine.stats();
  EXPECT_GE(stats.degraded_calls, 1u);
  EXPECT_GE(stats.fallback_lanes, 1u);
}

TYPED_TEST(FactorTyped, GetrfZeroPivotLaneIsRestoredUnderFallback) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  engine.set_policy(ExecPolicy::Fallback);
  Rng rng(0x2f07);
  const index_t m = 6;
  const index_t batch = simd::pack_width_v<T> + 1;
  const index_t bad = 0;
  auto host = test::random_diag_dominant_batch<T>(m, batch, rng);
  host.mat(bad)[0] = T(0); // zero first pivot

  auto a = host.to_compact();
  const BatchHealth health = engine.getrf_nopiv_batch<T>(a);
  EXPECT_GE(health.singular + health.nonfinite, 1);
  EXPECT_GE(health.fallback, 1);

  auto actual = host;
  actual.from_compact(a);
  // The reference divides by the same zero pivot and is refused on the
  // non-finite result, so the lane comes back as its original input.
  EXPECT_TRUE(test::lanes_equal(host, actual, bad));
}

TYPED_TEST(FactorTyped, TrtriZeroDiagonalLaneIsRestoredUnderFallback) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  engine.set_policy(ExecPolicy::Fallback);
  Rng rng(0x2f08);
  const index_t m = 5;
  const index_t batch = simd::pack_width_v<T> + 1;
  const index_t bad = 1;
  auto host = test::random_triangular_batch<T>(m, batch, rng);
  host.mat(bad)[2 * m + 2] = T(0);

  auto a = host.to_compact();
  const BatchHealth health =
      engine.trtri_batch<T>(Uplo::Lower, Diag::NonUnit, a);
  EXPECT_GE(health.singular + health.nonfinite, 1);
  EXPECT_GE(health.fallback, 1);

  auto actual = host;
  actual.from_compact(a);
  EXPECT_TRUE(test::lanes_equal(host, actual, bad));
}

TYPED_TEST(FactorTyped, GroupedHeterogeneousChain) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  Rng rng(0x2f09);
  const index_t batch = simd::pack_width_v<T> + 2;

  auto spd_a = test::random_spd_batch<T>(6, batch, rng);
  auto dd = test::random_diag_dominant_batch<T>(9, batch, rng);
  auto tri = test::random_triangular_batch<T>(6, batch, rng);
  auto spd_b = test::random_spd_batch<T>(6, batch, rng);

  auto exp_spd_a = spd_a;
  test::ref_potrf_batch(exp_spd_a);
  auto exp_dd = dd;
  test::ref_getrf_np_batch(exp_dd);
  auto exp_tri = tri;
  test::ref_trtri_batch(Uplo::Lower, Diag::NonUnit, exp_tri);
  auto exp_spd_b = spd_b;
  test::ref_potrf_batch(exp_spd_b);

  auto ca = spd_a.to_compact();
  auto cb = dd.to_compact();
  auto cc = tri.to_compact();
  auto cd = spd_b.to_compact();

  std::vector<sched::FactorSegment<T>> segments(4);
  segments[0] = {factor::FactorOp::Potrf, Uplo::Lower, Diag::NonUnit, &ca};
  segments[1] = {factor::FactorOp::GetrfNp, Uplo::Lower, Diag::NonUnit,
                 &cb};
  segments[2] = {factor::FactorOp::Trtri, Uplo::Lower, Diag::NonUnit, &cc};
  segments[3] = {factor::FactorOp::Potrf, Uplo::Lower, Diag::NonUnit, &cd};

  const std::vector<BatchHealth> healths =
      engine.factor_grouped<T>(segments);
  ASSERT_EQ(healths.size(), 4u);
  for (const BatchHealth& h : healths) {
    EXPECT_TRUE(h.clean());
  }
  EXPECT_EQ(engine.stats().grouped_calls, 1u);

  auto check = [&](test::HostBatch<T>& expected,
                   const CompactBuffer<T>& got, index_t m,
                   const char* what) {
    test::HostBatch<T> actual(m, m, batch);
    actual.from_compact(got);
    test::expect_batch_near(expected, actual,
                            test::ulp_tolerance<T>(m, real_t<T>(128)),
                            what);
  };
  check(exp_spd_a, ca, 6, "grouped potrf #0");
  check(exp_dd, cb, 9, "grouped getrf_np #1");
  check(exp_tri, cc, 6, "grouped trtri #2");
  check(exp_spd_b, cd, 6, "grouped potrf #3");
}

TYPED_TEST(FactorTyped, ConvenienceFrontEndsReachTheDefaultEngine) {
  using T = TypeParam;
  Rng rng(0x2f0a);
  const index_t m = 4;
  const index_t batch = simd::pack_width_v<T>;
  auto host = test::random_spd_batch<T>(m, batch, rng);
  auto expected = host;
  test::ref_potrf_batch(expected);

  auto handle = compact_pack<T>(host.data.data(), m, m, host.ld(),
                                host.matrix_stride(), batch);
  compact_potrf_batch<T>(handle);
  auto actual = host;
  compact_unpack<T>(handle, actual.data.data(), actual.ld(),
                    actual.matrix_stride());
  test::expect_batch_near(expected, actual,
                          test::ulp_tolerance<T>(m, real_t<T>(128)),
                          "compact_potrf_batch front-end");
}

TYPED_TEST(FactorTyped, InvalidDescriptorsThrow) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  CompactBuffer<T> rect(3, 4, 2);
  EXPECT_THROW(engine.potrf_batch<T>(rect), Error);
  EXPECT_THROW(engine.getrf_nopiv_batch<T>(rect), Error);
  EXPECT_THROW(engine.trtri_batch<T>(Uplo::Lower, Diag::NonUnit, rect),
               Error);
  EXPECT_THROW(
      engine.pack<T>(nullptr, 3, 3, 3, 9, 2), Error);
}

// Width accounting: a grouped factorisation is one compute call of its
// kernel width class, exactly like gemm_grouped.
TYPED_TEST(FactorTyped, GroupedCallCountsOneWidthCall) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  Rng rng(0x2f0b);
  const index_t batch = simd::pack_width_v<T> + 1;
  auto ca = test::random_spd_batch<T>(4, batch, rng).to_compact();
  auto cb = test::random_triangular_batch<T>(5, batch, rng).to_compact();
  const auto width_calls = [&] {
    const EngineStats s = engine.stats();
    return s.width16_calls + s.width32_calls + s.width64_calls;
  };

  std::vector<sched::FactorSegment<T>> segments(2);
  segments[0] = {factor::FactorOp::Potrf, Uplo::Lower, Diag::NonUnit, &ca};
  segments[1] = {factor::FactorOp::Trtri, Uplo::Lower, Diag::NonUnit, &cb};
  const std::size_t before = width_calls();
  (void)engine.factor_grouped<T>(segments);
  EXPECT_EQ(width_calls() - before, 1u);
  EXPECT_EQ(engine.stats().width16_calls, 1u);

  CompactBuffer<T> ga(3, 3, batch);
  CompactBuffer<T> gb(3, 3, batch);
  CompactBuffer<T> gc(3, 3, batch);
  const std::vector<sched::GemmSegment<T>> gemms = {
      {Op::NoTrans, Op::NoTrans, T(1), T(0), &ga, &gb, &gc}};
  const std::size_t mid = width_calls();
  (void)engine.gemm_grouped<T>(gemms);
  EXPECT_EQ(width_calls() - mid, 1u);
}

} // namespace
} // namespace iatf
