// Persistent packed layouts: PackedHandle lifecycle (pack / adopt /
// repack / unpack / release), the epoch rules, the packed_reuse_hits /
// packed_repacks counters, and the one class identity (a buffer call and
// a handle call of one descriptor share its plan and breaker slot).
#include <complex>
#include <utility>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "factor_testutil.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/factor/packed_handle.hpp"

namespace iatf {
namespace {

template <class T> class PackedHandleTyped : public ::testing::Test {};
using ScalarTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(PackedHandleTyped, ScalarTypes);

TYPED_TEST(PackedHandleTyped, PackUnpackRoundTrip) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  Rng rng(0x9ac4ed01);
  const index_t m = 7;
  const index_t batch = simd::pack_width_v<T> + 2;
  auto src = test::random_batch<T>(m, m, batch, rng);

  auto handle = engine.pack<T>(src.data.data(), m, m, src.ld(),
                               src.matrix_stride(), batch);
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.rows(), m);
  EXPECT_EQ(handle.cols(), m);
  EXPECT_EQ(handle.batch(), batch);
  EXPECT_EQ(handle.epoch(), 0u);

  test::HostBatch<T> round(m, m, batch);
  engine.unpack<T>(handle, round.data.data(), round.ld(),
                   round.matrix_stride());
  for (index_t lane = 0; lane < batch; ++lane) {
    EXPECT_TRUE(test::lanes_equal(src, round, lane)) << "lane " << lane;
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.packed_repacks, 1u); // pack converts, unpack is free
  EXPECT_EQ(stats.packed_reuse_hits, 0u);
}

TYPED_TEST(PackedHandleTyped, AdoptAndReleaseAreZeroConversion) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  Rng rng(0x9ac4ed02);
  auto src = test::random_batch<T>(5, 5, 6, rng);

  auto handle = engine.adopt_packed<T>(src.to_compact());
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(engine.stats().packed_repacks, 0u);

  CompactBuffer<T> buf = handle.release();
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(buf.rows(), 5);
  test::HostBatch<T> out(5, 5, 6);
  out.from_compact(buf);
  for (index_t lane = 0; lane < 6; ++lane) {
    EXPECT_TRUE(test::lanes_equal(src, out, lane));
  }
}

TYPED_TEST(PackedHandleTyped, RepackRefreshesAndBumpsEpoch) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  Rng rng(0x9ac4ed03);
  const index_t m = 4;
  const index_t batch = 5;
  auto first = test::random_batch<T>(m, m, batch, rng);
  auto second = test::random_batch<T>(m, m, batch, rng);

  auto handle = engine.pack<T>(first.data.data(), m, m, first.ld(),
                               first.matrix_stride(), batch);
  const std::uint64_t before = handle.epoch();
  engine.repack<T>(handle, second.data.data(), second.ld(),
                   second.matrix_stride());
  EXPECT_GT(handle.epoch(), before);
  EXPECT_EQ(engine.stats().packed_repacks, 2u);

  test::HostBatch<T> out(m, m, batch);
  engine.unpack<T>(handle, out.data.data(), out.ld(), out.matrix_stride());
  for (index_t lane = 0; lane < batch; ++lane) {
    EXPECT_TRUE(test::lanes_equal(second, out, lane));
  }
}

TYPED_TEST(PackedHandleTyped, MoveInvalidatesSourceAndEngineRejectsIt) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  Rng rng(0x9ac4ed04);
  auto src = test::random_batch<T>(3, 3, 4, rng);
  auto handle = engine.pack<T>(src.data.data(), 3, 3, src.ld(),
                               src.matrix_stride(), 4);

  factor::PackedHandle<T> stolen = std::move(handle);
  EXPECT_FALSE(handle.valid());
  EXPECT_TRUE(stolen.valid());

  EXPECT_THROW(engine.potrf_batch<T>(handle), Error);
  EXPECT_THROW(engine.unpack<T>(handle, src.data.data(), src.ld(),
                                src.matrix_stride()),
               Error);
  factor::PackedHandle<T> empty;
  EXPECT_THROW(engine.getrf_nopiv_batch<T>(empty), Error);
}

TYPED_TEST(PackedHandleTyped, HandleGemmMatchesRawBuffersBitForBit) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  Rng rng(0x9ac4ed05);
  const index_t m = 8;
  const index_t batch = simd::pack_width_v<T> + 1;
  auto a = test::random_batch<T>(m, m, batch, rng);
  auto b = test::random_batch<T>(m, m, batch, rng);
  auto c = test::random_batch<T>(m, m, batch, rng);
  const T alpha = T(real_t<T>(1.25));
  const T beta = T(real_t<T>(-0.5));

  // Raw-buffer path.
  auto ca = a.to_compact();
  auto cb = b.to_compact();
  auto cc = c.to_compact();
  engine.gemm<T>(Op::NoTrans, Op::NoTrans, alpha, ca, cb, beta, cc);

  // Packed-handle path over the same inputs.
  auto ha = engine.pack<T>(a.data.data(), m, m, a.ld(), a.matrix_stride(),
                           batch);
  auto hb = engine.pack<T>(b.data.data(), m, m, b.ld(), b.matrix_stride(),
                           batch);
  auto hc = engine.pack<T>(c.data.data(), m, m, c.ld(), c.matrix_stride(),
                           batch);
  const std::uint64_t c_epoch = hc.epoch();
  engine.gemm<T>(Op::NoTrans, Op::NoTrans, alpha, ha, hb, beta, hc);
  EXPECT_GT(hc.epoch(), c_epoch);
  EXPECT_EQ(ha.epoch(), 0u); // inputs are read-only: no bump

  test::HostBatch<T> raw(m, m, batch);
  raw.from_compact(cc);
  test::HostBatch<T> packed(m, m, batch);
  engine.unpack<T>(hc, packed.data.data(), packed.ld(),
                   packed.matrix_stride());
  for (index_t lane = 0; lane < batch; ++lane) {
    EXPECT_TRUE(test::lanes_equal(raw, packed, lane)) << "lane " << lane;
  }
}

TYPED_TEST(PackedHandleTyped, ReuseCountersFollowTheContract) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  Rng rng(0x9ac4ed06);
  const index_t m = 4;
  const index_t batch = 6;
  auto a = test::random_triangular_batch<T>(m, batch, rng);
  auto b = test::random_batch<T>(m, m, batch, rng);

  auto ha = engine.pack<T>(a.data.data(), m, m, a.ld(), a.matrix_stride(),
                           batch);
  auto hb = engine.pack<T>(b.data.data(), m, m, b.ld(), b.matrix_stride(),
                           batch);
  auto hc = engine.pack<T>(b.data.data(), m, m, b.ld(), b.matrix_stride(),
                           batch);
  EXPECT_EQ(engine.stats().packed_repacks, 3u);
  EXPECT_EQ(engine.stats().packed_reuse_hits, 0u);

  // gemm over handles: 3 operand reuse hits.
  engine.gemm<T>(Op::NoTrans, Op::NoTrans, T(1), ha, hb, T(0), hc);
  EXPECT_EQ(engine.stats().packed_reuse_hits, 3u);

  // trsm over handles: 2 more.
  engine.trsm<T>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit,
                 T(1), ha, hb);
  EXPECT_EQ(engine.stats().packed_reuse_hits, 5u);

  // factorisation over a handle: 1 more.
  engine.getrf_nopiv_batch<T>(ha);
  EXPECT_EQ(engine.stats().packed_reuse_hits, 6u);
  EXPECT_EQ(engine.stats().packed_repacks, 3u); // no conversions since

  engine.reset_stats();
  EXPECT_EQ(engine.stats().packed_reuse_hits, 0u);
  EXPECT_EQ(engine.stats().packed_repacks, 0u);
}

TYPED_TEST(PackedHandleTyped, BufferAndHandleCallsShareOnePlanAndSlot) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  engine.set_kernel_verification(false);
  Rng rng(0x9ac4ed07);
  const index_t m = 6;
  const index_t batch = 4;
  auto a = test::random_batch<T>(m, m, batch, rng);
  auto ca = a.to_compact();
  auto cb = a.to_compact();
  auto cc = a.to_compact();
  const auto handle = [&] {
    return engine.pack<T>(a.data.data(), m, m, a.ld(), a.matrix_stride(),
                          batch);
  };
  auto ha = handle();
  auto hb = handle();
  auto hc = handle();

  // One plan: the handle call of the same descriptor hits the entry the
  // buffer call built...
  engine.gemm<T>(Op::NoTrans, Op::NoTrans, T(1), ca, cb, T(0), cc);
  EXPECT_EQ(engine.stats().builds, 1u);
  engine.gemm<T>(Op::NoTrans, Op::NoTrans, T(1), ha, hb, T(0), hc);
  EXPECT_EQ(engine.stats().builds, 1u);
  EXPECT_EQ(engine.stats().plan_cache_size, 1u);
  // ...so both outputs are bit-identical.
  const CompactBuffer<T>& out = hc.buffer();
  ASSERT_EQ(out.size(), cc.size());
  for (std::size_t i = 0; i < cc.size(); ++i) {
    ASSERT_EQ(out.data()[i], cc.data()[i]) << "storage element " << i;
  }

  // One breaker slot: buffer calls whose plan build fails degrade and
  // trip it, and the handle call finds it Open and is served on the
  // reference path.
  engine.set_policy(ExecPolicy::Fallback);
  engine.set_breaker_config({/*window=*/2, /*threshold=*/1, /*cooldown=*/4});
  for (int call = 0; call < 2; ++call) {
    engine.clear_plan_cache();
    fault::ScopedFault plan("plan.gemm", 0, 1);
    engine.gemm<T>(Op::NoTrans, Op::NoTrans, T(1), ca, cb, T(0), cc);
  }
  const sched::ClassKey key = sched::class_key<T>(
      GemmShape{m, m, m, Op::NoTrans, Op::NoTrans, batch}, 16);
  ASSERT_EQ(engine.breaker_state(key), resilience::BreakerState::Open);
  const BatchHealth h =
      engine.gemm<T>(Op::NoTrans, Op::NoTrans, T(1), ha, hb, T(0), hc);
  EXPECT_TRUE(has_event(h.events, DegradeEvent::BreakerOpen));
}

} // namespace
} // namespace iatf
