// The compact routines beyond the paper's GEMM/TRSM: TRMM (the multiply
// of the triangular plan), the unpivoted-LU solve and the factorisations
// it consumes, each against the scalar reference.
#include <complex>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/core/compact_blas.hpp"
#include "iatf/ref/ref_blas.hpp"

namespace iatf {
namespace {

template <class T> class CompactExtTyped : public ::testing::Test {};
using ScalarTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(CompactExtTyped, ScalarTypes);

template <class T>
void check_trmm(index_t m, index_t n, Side side, Uplo uplo, Op op_a,
                Diag diag, T alpha, index_t batch, std::uint64_t seed) {
  Rng rng(seed);
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
  test::expect_batch_near(
      expected, actual, test::ulp_tolerance<T>(adim, 128),
      "trmm " + to_string(TrsmShape{m, n, side, uplo, op_a, diag, batch}));
}

TYPED_TEST(CompactExtTyped, TrmmSquareSweep) {
  using T = TypeParam;
  const index_t batch = simd::pack_width_v<T> * 2 + 1;
  for (index_t s = 1; s <= 17; ++s) {
    check_trmm<T>(s, s, Side::Left, Uplo::Lower, Op::NoTrans,
                  Diag::NonUnit, T(1), batch,
                  100 + static_cast<std::uint64_t>(s));
  }
}

TYPED_TEST(CompactExtTyped, TrmmAllSixteenModes) {
  using T = TypeParam;
  const index_t batch = simd::pack_width_v<T> + 1;
  std::uint64_t seed = 300;
  for (Side side : {Side::Left, Side::Right}) {
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      for (Op op : test::all_ops()) {
        for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
          check_trmm<T>(3, 4, side, uplo, op, diag, T(1), batch, seed++);
          check_trmm<T>(10, 7, side, uplo, op, diag, T(1), batch,
                        seed++);
        }
      }
    }
  }
}

TYPED_TEST(CompactExtTyped, TrmmAlpha) {
  using T = TypeParam;
  check_trmm<T>(6, 5, Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit,
                T(-2.5), simd::pack_width_v<T>, 900);
  if constexpr (is_complex_v<T>) {
    check_trmm<T>(6, 5, Side::Right, Uplo::Upper, Op::ConjTrans,
                  Diag::Unit, T(0.5, 1.5), simd::pack_width_v<T>, 901);
  }
}

// The factorisations compact_getrs_np consumes come from the engine; these
// check its LU and Cholesky against the reference over ragged batches.
TYPED_TEST(CompactExtTyped, GetrfMatchesReference) {
  using T = TypeParam;
  Rng rng(42);
  const index_t batch = simd::pack_width_v<T> * 3 + 1;
  for (index_t m : {index_t(1), index_t(2), index_t(5), index_t(9),
                    index_t(16)}) {
    // Diagonally dominant: factorisable without pivoting.
    auto host = test::random_batch<T>(m, m, batch, rng);
    for (index_t l = 0; l < batch; ++l) {
      for (index_t d = 0; d < m; ++d) {
        host.mat(l)[d * m + d] += T(static_cast<real_t<T>>(m) + 1);
      }
    }
    auto compact = host.to_compact();
    EXPECT_TRUE(Engine::default_engine().getrf_nopiv_batch<T>(compact).clean())
        << "getrf m=" << m;

    auto expected = host;
    for (index_t l = 0; l < batch; ++l) {
      ref::getrf_np<T>(m, expected.mat(l), m);
    }
    test::HostBatch<T> actual(m, m, batch);
    actual.from_compact(compact);
    test::expect_batch_near(expected, actual,
                            test::ulp_tolerance<T>(m, 128),
                            "getrf m=" + std::to_string(m));
  }
}

TYPED_TEST(CompactExtTyped, PotrfMatchesReference) {
  using T = TypeParam;
  using R = real_t<T>;
  Rng rng(43);
  const index_t batch = simd::pack_width_v<T> * 2 + 1;
  for (index_t m : {index_t(1), index_t(3), index_t(8), index_t(13)}) {
    // SPD/HPD via G G^H + m*I.
    auto g = test::random_batch<T>(m, m, batch, rng);
    test::HostBatch<T> host(m, m, batch);
    for (index_t l = 0; l < batch; ++l) {
      for (index_t j = 0; j < m; ++j) {
        for (index_t i = 0; i < m; ++i) {
          T s{};
          for (index_t k = 0; k < m; ++k) {
            s += g.mat(l)[k * m + i] * conj_if_complex(g.mat(l)[k * m + j]);
          }
          if (i == j) {
            s += T(static_cast<R>(m));
          }
          host.mat(l)[j * m + i] = s;
        }
      }
    }
    auto compact = host.to_compact();
    EXPECT_TRUE(Engine::default_engine().potrf_batch<T>(compact).clean())
        << "potrf m=" << m;

    auto expected = host;
    for (index_t l = 0; l < batch; ++l) {
      ref::potrf<T>(m, expected.mat(l), m);
    }
    // Compare the lower triangles only (upper is unspecified scratch).
    test::HostBatch<T> actual(m, m, batch);
    actual.from_compact(compact);
    const R tol = test::ulp_tolerance<T>(m, 256);
    for (index_t l = 0; l < batch; ++l) {
      for (index_t j = 0; j < m; ++j) {
        for (index_t i = j; i < m; ++i) {
          const R diff = std::abs(actual.mat(l)[j * m + i] -
                                  expected.mat(l)[j * m + i]);
          ASSERT_LE(diff, tol * static_cast<R>(m))
              << "potrf m=" << m << " batch=" << l << " (" << i << ","
              << j << ")";
        }
      }
    }
  }
}

TYPED_TEST(CompactExtTyped, GetrsSolvesSystems) {
  using T = TypeParam;
  using R = real_t<T>;
  Rng rng(44);
  const index_t m = 7, nrhs = 3;
  const index_t batch = simd::pack_width_v<T> + 2;
  auto host = test::random_batch<T>(m, m, batch, rng);
  for (index_t l = 0; l < batch; ++l) {
    for (index_t d = 0; d < m; ++d) {
      host.mat(l)[d * m + d] += T(static_cast<R>(m) + 1);
    }
  }
  auto rhs = test::random_batch<T>(m, nrhs, batch, rng);

  auto clu = host.to_compact();
  auto cx = rhs.to_compact();
  Engine::default_engine().getrf_nopiv_batch<T>(clu);
  compact_getrs_np<T>(clu, cx);

  // Verify A x = b directly.
  test::HostBatch<T> x(m, nrhs, batch);
  x.from_compact(cx);
  const R tol = test::ulp_tolerance<T>(m, 2048);
  for (index_t l = 0; l < batch; ++l) {
    for (index_t c = 0; c < nrhs; ++c) {
      for (index_t i = 0; i < m; ++i) {
        T acc{};
        for (index_t k = 0; k < m; ++k) {
          acc += host.mat(l)[k * m + i] * x.mat(l)[c * m + k];
        }
        ASSERT_LE(std::abs(acc - rhs.mat(l)[c * m + i]), tol)
            << "batch " << l;
      }
    }
  }
}

// A zero U pivot is the back substitution's hazard: compact_getrs_np
// reports it through the merged health of its two solves.
TEST(CompactExt, GetrsReportsZeroPivotUnderCheck) {
  const index_t m = 3, batch = 2;
  CompactBuffer<double> lu(m, m, batch), b(m, 1, batch);
  for (index_t l = 0; l < batch; ++l) {
    for (index_t j = 0; j < m; ++j) {
      for (index_t i = 0; i < m; ++i) {
        lu.set(l, i, j, i == j ? 2.0 : 0.25);
      }
      b.set(l, j, 0, 1.0);
    }
  }
  lu.set(1, 2, 2, 0.0); // lane 1: U(2,2) = 0
  lu.pad_identity();

  Engine& e = Engine::default_engine();
  const ExecPolicy before = e.policy();
  e.set_policy(ExecPolicy::Check);
  const BatchHealth health = compact_getrs_np(lu, b);
  e.set_policy(before);

  EXPECT_EQ(health.batch, batch);
  EXPECT_EQ(health.singular, 1);
  EXPECT_EQ(health.first_singular, 1);
}

TEST(CompactExt, ErrorsOnBadShapes) {
  CompactBuffer<double> a(3, 3, 2), b(4, 2, 2);
  EXPECT_THROW(compact_getrs_np(a, b), Error);
  CompactBuffer<double> amis(4, 4, 2), bok(3, 2, 2);
  EXPECT_THROW(compact_trmm<double>(Side::Left, Uplo::Lower, Op::NoTrans,
                                    Diag::NonUnit, 1.0, amis, bok),
               Error);
}

} // namespace
} // namespace iatf
