// Exhaustive golden sweep: every size 1..33 crossed with every GEMM
// transpose pair and every TRSM and TRMM mode combination, for all four
// dtypes, checked against the scalar reference at the shared K-scaled ULP
// tolerance. Sizes 1..33 bracket the compact regime the paper targets
// (one to two L1 tiles) and hit every kernel edge-remainder path.
//
// The sweep runs once per ISA backend the host exposes
// (simd::supported_isas(): sse2/avx2/avx512 on x86-64, neon on AArch64):
// buffers are packed at the backend's lane count and the engine call
// dispatches to the matching kernel width class, so every backend is
// conformance-tested against the same scalar reference -- the cross-ISA
// conformance matrix. CI additionally runs this binary once per backend
// under IATF_FORCE_ISA so the C-API default-width path is covered too.
//
// The full cross product is a nightly-sized job (it builds thousands of
// plans), so the same source compiles into two binaries:
//   test_golden          -- per-PR: a sampled size list covering the
//                           pack-width boundaries and remainder classes;
//   test_golden_nightly  -- -DIATF_GOLDEN_FULL: all 33 sizes per backend.
#include <complex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/core/width_dispatch.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "iatf/simd/isa.hpp"

namespace iatf {
namespace {

const std::vector<index_t>& sweep_sizes() {
#ifdef IATF_GOLDEN_FULL
  static const std::vector<index_t> sizes = [] {
    std::vector<index_t> s;
    for (index_t v = 1; v <= 33; ++v) {
      s.push_back(v);
    }
    return s;
  }();
#else
  // Pack-width multiples and their neighbours, plus the extremes: the
  // sizes where remainder handling changes shape.
  static const std::vector<index_t> sizes{1, 2, 3, 4, 5, 7, 8,
                                          9, 15, 16, 17, 32, 33};
#endif
  return sizes;
}

template <class T> index_t isa_pack_width(simd::Isa isa) {
  return static_cast<index_t>(simd::isa_bytes(isa)) /
         static_cast<index_t>(sizeof(real_t<T>));
}

template <class T> class GoldenSweep : public ::testing::Test {};
using ScalarTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(GoldenSweep, ScalarTypes);

TYPED_TEST(GoldenSweep, GemmAllModes) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  const T alpha = T(real_t<T>(0.37));
  const T beta = T(-1);
  Rng rng(0x901d5eed);

  for (const simd::Isa isa : simd::supported_isas()) {
    const index_t pw = isa_pack_width<T>(isa);
    // A ragged batch (one group plus a partial tail) so the masked lanes
    // of the last group are exercised at every size and width.
    const index_t batch = pw + 3;
    for (const index_t s : sweep_sizes()) {
      for (const Op op_a : {Op::NoTrans, Op::Trans}) {
        for (const Op op_b : {Op::NoTrans, Op::Trans}) {
          auto a = test::random_batch<T>(s, s, batch, rng);
          auto b = test::random_batch<T>(s, s, batch, rng);
          auto c = test::random_batch<T>(s, s, batch, rng);
          auto ca = a.to_compact(pw);
          auto cb = b.to_compact(pw);
          auto cc = c.to_compact(pw);

          dispatch_width<T>(pw, [&](auto bytes) {
            engine.gemm<T, decltype(bytes)::value>(op_a, op_b, alpha, ca,
                                                   cb, beta, cc);
          });

          auto expected = c;
          for (index_t l = 0; l < batch; ++l) {
            ref::gemm<T>(op_a, op_b, s, s, s, alpha, a.mat(l), s,
                         b.mat(l), s, beta, expected.mat(l), s);
          }
          test::HostBatch<T> actual(s, s, batch);
          actual.from_compact(cc);
          test::expect_batch_near(
              expected, actual, test::ulp_tolerance<T>(s, 128),
              std::string("golden gemm [") + simd::isa_name(isa) + "] " +
                  to_string(GemmShape{s, s, s, op_a, op_b, batch}));
          if (::testing::Test::HasFailure()) {
            return; // the first failing size/mode is the whole story
          }
        }
      }
    }
  }
}

// TRMM is the multiply of the same triangular plan, so it is one more
// input of this sweep: every TRSM case, then every TRMM case.
TYPED_TEST(GoldenSweep, TrsmAllModes) {
  using T = TypeParam;
  Engine engine(CacheInfo::kunpeng920());
  const T alpha = T(real_t<T>(0.37));
  Rng rng(0x901d5eee);

  for (const TriOp op : {TriOp::Solve, TriOp::Multiply}) {
    const auto reference =
        op == TriOp::Solve ? &ref::trsm<T> : &ref::trmm<T>;
    for (const simd::Isa isa : simd::supported_isas()) {
      const index_t pw = isa_pack_width<T>(isa);
      const index_t batch = pw + 3;
      for (const index_t s : sweep_sizes()) {
        for (const Side side : {Side::Left, Side::Right}) {
          for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
            for (const Op op_a : {Op::NoTrans, Op::Trans}) {
              for (const Diag diag : {Diag::NonUnit, Diag::Unit}) {
                auto a = test::random_triangular_batch<T>(s, batch, rng);
                auto b = test::random_batch<T>(s, s, batch, rng);
                auto ca = a.to_compact(pw);
                ca.pad_identity();
                auto cb = b.to_compact(pw);

                dispatch_width<T>(pw, [&](auto bytes) {
                  constexpr int kBytes = decltype(bytes)::value;
                  if (op == TriOp::Solve) {
                    engine.trsm<T, kBytes>(side, uplo, op_a, diag, alpha,
                                           ca, cb);
                  } else {
                    engine.trmm<T, kBytes>(side, uplo, op_a, diag, alpha,
                                           ca, cb);
                  }
                });

                auto expected = b;
                for (index_t l = 0; l < batch; ++l) {
                  reference(side, uplo, op_a, diag, s, s, alpha, a.mat(l),
                            s, expected.mat(l), s);
                }
                test::HostBatch<T> actual(s, s, batch);
                actual.from_compact(cb);
                test::expect_batch_near(
                    expected, actual, test::ulp_tolerance<T>(s, 512),
                    std::string("golden [") + simd::isa_name(isa) + "] " +
                        to_string(TrsmShape{s, s, side, uplo, op_a, diag,
                                            batch, op}));
                if (::testing::Test::HasFailure()) {
                  return;
                }
              }
            }
          }
        }
      }
    }
  }
}

} // namespace
} // namespace iatf
