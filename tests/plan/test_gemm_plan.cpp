#include <complex>
#include <cstring>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/core/width_dispatch.hpp"
#include "iatf/plan/gemm_plan.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "iatf/simd/isa.hpp"

namespace iatf {
namespace {

using plan::GemmPlan;

template <class T>
void check_gemm(index_t m, index_t n, index_t k, Op op_a, Op op_b, T alpha,
                T beta, index_t batch, std::uint64_t seed,
                const CacheInfo& cache = CacheInfo::kunpeng920()) {
  Rng rng(seed);
  const bool ta = op_a != Op::NoTrans;
  const bool tb = op_b != Op::NoTrans;
  auto a = test::random_batch<T>(ta ? k : m, ta ? m : k, batch, rng);
  auto b = test::random_batch<T>(tb ? n : k, tb ? k : n, batch, rng);
  auto c = test::random_batch<T>(m, n, batch, rng);

  auto ca = a.to_compact();
  auto cb = b.to_compact();
  auto cc = c.to_compact();

  const GemmShape shape{m, n, k, op_a, op_b, batch};
  GemmPlan<T> plan(shape, cache);
  plan.execute(ca, cb, cc, alpha, beta);

  auto expected = c;
  for (index_t l = 0; l < batch; ++l) {
    ref::gemm<T>(op_a, op_b, m, n, k, alpha, a.mat(l), a.ld(), b.mat(l),
                 b.ld(), beta, expected.mat(l), m);
  }
  test::HostBatch<T> actual(m, n, batch);
  actual.from_compact(cc);
  test::expect_batch_near(expected, actual, test::ulp_tolerance<T>(k),
                          to_string(shape));
}

template <class T> class GemmPlanTyped : public ::testing::Test {};
using ScalarTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(GemmPlanTyped, ScalarTypes);

// Full square sweep over the paper's evaluated size range (1..33) in NN
// mode -- every tile decomposition and edge-kernel combination.
TYPED_TEST(GemmPlanTyped, SquareSweepNN) {
  using T = TypeParam;
  const index_t batch = simd::pack_width_v<T> * 2 + 1;
  for (index_t s = 1; s <= 33; ++s) {
    check_gemm<T>(s, s, s, Op::NoTrans, Op::NoTrans, T(1), T(0), batch,
                  1000 + static_cast<std::uint64_t>(s));
  }
}

// All transposition mode combinations (Figure 8) on rectangular shapes.
TYPED_TEST(GemmPlanTyped, AllModeCombinations) {
  using T = TypeParam;
  const index_t batch = simd::pack_width_v<T> + 2;
  std::uint64_t seed = 2000;
  for (Op op_a : test::all_ops()) {
    for (Op op_b : test::all_ops()) {
      check_gemm<T>(7, 5, 9, op_a, op_b, T(1), T(0), batch, seed++);
      check_gemm<T>(4, 12, 3, op_a, op_b, T(1), T(1), batch, seed++);
    }
  }
}

TYPED_TEST(GemmPlanTyped, AlphaBetaVariants) {
  using T = TypeParam;
  const index_t batch = simd::pack_width_v<T>;
  std::uint64_t seed = 3000;
  for (T alpha : {T(0), T(1), T(-1), T(2.5)}) {
    for (T beta : {T(0), T(1), T(-0.5)}) {
      check_gemm<T>(6, 6, 6, Op::NoTrans, Op::Trans, alpha, beta, batch,
                    seed++);
    }
  }
}

TYPED_TEST(GemmPlanTyped, DegenerateDimensions) {
  using T = TypeParam;
  const index_t batch = simd::pack_width_v<T>;
  // k == 0 means C = beta*C.
  check_gemm<T>(3, 3, 0, Op::NoTrans, Op::NoTrans, T(1), T(0.5), batch,
                4000);
  check_gemm<T>(1, 1, 1, Op::NoTrans, Op::NoTrans, T(1), T(0), batch,
                4001);
}

TYPED_TEST(GemmPlanTyped, BatchNotMultipleOfPackWidth) {
  using T = TypeParam;
  for (index_t batch : {index_t(1), index_t(3),
                        index_t(simd::pack_width_v<T> * 3 - 1)}) {
    check_gemm<T>(5, 5, 5, Op::NoTrans, Op::NoTrans, T(1), T(0), batch,
                  5000 + static_cast<std::uint64_t>(batch));
  }
}

TYPED_TEST(GemmPlanTyped, TinyL1ForcesMultipleSlices) {
  using T = TypeParam;
  CacheInfo tiny;
  tiny.l1d = 512; // absurdly small: slices of one group
  const index_t batch = simd::pack_width_v<T> * 4;
  check_gemm<T>(8, 8, 8, Op::NoTrans, Op::NoTrans, T(1), T(1), batch,
                6000, tiny);
  GemmPlan<T> plan(GemmShape{8, 8, 8, Op::NoTrans, Op::NoTrans, batch},
                   tiny);
  EXPECT_EQ(plan.slice_groups(), 1);
}

TEST(GemmPlanPolicy, PackSelecterFollowsStridedKernelRules) {
  const CacheInfo cache = CacheInfo::kunpeng920();
  // NoTrans operands are directly consumable through kernel strides --
  // the no-packing strategy applies at every size (see the policy note
  // in gemm_plan.cpp; the paper's asm kernels only allow it when one
  // tile covers the dimension).
  GemmPlan<float> p1(GemmShape{4, 4, 9, Op::NoTrans, Op::NoTrans, 64},
                     cache);
  EXPECT_FALSE(p1.packs_a());
  EXPECT_FALSE(p1.packs_b());
  GemmPlan<float> p2(GemmShape{9, 9, 9, Op::NoTrans, Op::NoTrans, 64},
                     cache);
  EXPECT_FALSE(p2.packs_a());
  EXPECT_FALSE(p2.packs_b());
  // Transposed operands always pack (gather reorders them).
  GemmPlan<float> p3(GemmShape{4, 4, 9, Op::Trans, Op::Trans, 64}, cache);
  EXPECT_TRUE(p3.packs_a());
  EXPECT_TRUE(p3.packs_b());
  // Mixed: only the transposed side packs.
  GemmPlan<float> p4(GemmShape{9, 9, 9, Op::NoTrans, Op::ConjTrans, 64},
                     cache);
  EXPECT_FALSE(p4.packs_a());
  EXPECT_TRUE(p4.packs_b());
}

TEST(GemmPlanPolicy, TileGridMatchesFigure4b) {
  // 15x15 sgemm: kernels 4x4, 4x3, 3x4, 3x3 only (paper Figure 4(b)).
  GemmPlan<float> plan(
      GemmShape{15, 15, 15, Op::NoTrans, Op::NoTrans, 64},
      CacheInfo::kunpeng920());
  ASSERT_EQ(plan.m_tiles().size(), 4u);
  ASSERT_EQ(plan.n_tiles().size(), 4u);
  for (const auto& call : plan.calls()) {
    EXPECT_GE(call.mc, 3);
    EXPECT_LE(call.mc, 4);
    EXPECT_GE(call.nc, 3);
    EXPECT_LE(call.nc, 4);
  }
  EXPECT_EQ(plan.calls().size(), 16u);
}

TEST(GemmPlanPolicy, BatchCounterRespectsL1Bound) {
  const CacheInfo cache = CacheInfo::kunpeng920();
  GemmPlan<double> plan(
      GemmShape{8, 8, 8, Op::NoTrans, Op::NoTrans, 16384}, cache);
  // Working set per group: (64+64+64) elements * es(2) * 8 bytes = 3KB.
  const index_t per_group = (8 * 8 * 3) * 2 * 8;
  EXPECT_EQ(plan.slice_groups(),
            static_cast<index_t>(cache.l1d) / per_group);
  EXPECT_GE(plan.slice_groups(), 1);
}

TEST(GemmPlanErrors, MismatchedBuffersThrow) {
  const GemmShape shape{4, 4, 4, Op::NoTrans, Op::NoTrans, 8};
  GemmPlan<float> plan(shape, CacheInfo::kunpeng920());
  CompactBuffer<float> a(4, 4, 8), b(4, 4, 8), c(4, 4, 8);
  CompactBuffer<float> bad_dim(4, 5, 8);
  CompactBuffer<float> bad_batch(4, 4, 9);
  EXPECT_THROW(plan.execute(bad_dim, b, c, 1.0f, 0.0f), Error);
  EXPECT_THROW(plan.execute(a, bad_batch, c, 1.0f, 0.0f), Error);
  EXPECT_THROW(plan.execute(a, b, bad_dim, 1.0f, 0.0f), Error);
  EXPECT_THROW((GemmPlan<float>(GemmShape{-1, 4, 4, Op::NoTrans,
                                          Op::NoTrans, 8},
                                CacheInfo::kunpeng920())),
               Error);
  // Wrong interleave width.
  CompactBuffer<float> wide_a(4, 4, 8, 8);
  EXPECT_THROW(plan.execute(wide_a, b, c, 1.0f, 0.0f), Error);
}

// The SAVE's alpha*acc + beta*C is pinned (out = alpha*acc, then
// out = fma(beta, C, out)), so a tiling that hands a C element to a
// different kernel instance cannot change its bits: default tiles and
// 2x3 tiles give memcmp-equal C at beta != 0, at every width the host
// supports.
template <class T, int Bytes> void expect_tile_cap_bit_identical() {
  const index_t pw = simd::pack_width_bytes_v<T, Bytes>;
  const index_t batch = 2 * pw + 1;
  Rng rng(7100 + Bytes);
  const auto a = test::random_batch<T>(7, 5, batch, rng);
  const auto b = test::random_batch<T>(5, 7, batch, rng);
  const auto c = test::random_batch<T>(7, 7, batch, rng);
  const auto ca = a.to_compact(pw);
  const auto cb = b.to_compact(pw);
  T alpha(0.75);
  T beta(-1.25);
  if constexpr (is_complex_v<T>) {
    alpha.imag(0.5);
    beta.imag(0.375);
  }
  const GemmShape shape{7, 7, 5, Op::NoTrans, Op::NoTrans, batch};
  const CacheInfo cache = CacheInfo::kunpeng920();
  plan::PlanTuning capped;
  capped.mc_cap = 2;
  capped.nc_cap = 3;
  auto c_default = c.to_compact(pw);
  auto c_capped = c.to_compact(pw);
  GemmPlan<T, Bytes>(shape, cache).execute(ca, cb, c_default, alpha, beta);
  GemmPlan<T, Bytes>(shape, cache, capped)
      .execute(ca, cb, c_capped, alpha, beta);
  ASSERT_EQ(c_default.size(), c_capped.size());
  EXPECT_EQ(std::memcmp(c_default.data(), c_capped.data(),
                        c_default.size() * sizeof(real_t<T>)),
            0)
      << Bytes << "-byte width";
}

template <class T> class GemmSave : public ::testing::Test {};
TYPED_TEST_SUITE(GemmSave, ScalarTypes);

TYPED_TEST(GemmSave, TileCapDoesNotChangeBits) {
  using T = TypeParam;
  for (simd::Isa isa : simd::supported_isas()) {
    dispatch_bytes<T>(simd::isa_bytes(isa), [](auto bytes) {
      expect_tile_cap_bit_identical<T, decltype(bytes)::value>();
    });
  }
}

} // namespace
} // namespace iatf
