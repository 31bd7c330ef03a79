// Extension routines (paper section 7 future work, implemented here):
// compact TRMM, unpivoted LU and Cholesky versus looping per-matrix
// scalar LAPACK-style calls -- the same comparison structure as the
// paper's GEMM/TRSM figures, extended to the routines Intel's compact
// BLAS/LAPACK covers. The TRMM rows time the multiply of the engine's
// triangular plan (compact_trmm), the LU and Cholesky rows its fused
// factorisations (Engine::getrf_nopiv_batch / potrf_batch).
#include <complex>
#include <cstring>

#include "common/series.hpp"
#include "iatf/core/compact_blas.hpp"
#include "iatf/ref/ref_blas.hpp"

namespace iatf::bench {
namespace {

template <class T>
void sweep_trmm(const char* dtype, const Options& opt) {
  for (index_t s = 2; s <= opt.max_size; s += opt.size_step) {
    const index_t batch = auto_batch(trsm_bytes_per_matrix<T>(s, s),
                                     simd::pack_width_v<T>, opt);
    Rng rng(1);
    auto ha = random_host_triangular<T>(s, batch, rng);
    auto hb = random_host_batch<T>(s, s, batch, rng);
    auto ca = to_compact_buffer(ha, simd::pack_width_v<T>);
    auto cb = to_compact_buffer(hb, simd::pack_width_v<T>);
    const double flops = trsm_flops<T>(
        TrsmShape{s, s, Side::Left, Uplo::Lower, Op::NoTrans,
                  Diag::NonUnit, batch});
    const double iatf_g = measure_gflops(flops, opt, [&] {
      compact_trmm<T>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit,
                      T(1), ca, cb);
    });
    const double loop_g = measure_gflops(flops, opt, [&] {
      for (index_t l = 0; l < batch; ++l) {
        ref::trmm<T>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit,
                     s, s, T(1), ha.data.data() + l * ha.stride(), s,
                     hb.data.data() + l * hb.stride(), s);
      }
    });
    print_row("ext-trmm", dtype, "LNLN", s, "iatf", iatf_g);
    print_row("ext-trmm", dtype, "LNLN", s, "lapack-loop", loop_g);
  }
}

template <class T>
void sweep_getrf(const char* dtype, const Options& opt) {
  using R = real_t<T>;
  for (index_t s = 2; s <= opt.max_size; s += opt.size_step) {
    const index_t batch =
        auto_batch(static_cast<index_t>(sizeof(T)) * s * s,
                   simd::pack_width_v<T>, opt);
    Rng rng(2);
    auto host = random_host_batch<T>(s, s, batch, rng);
    for (index_t l = 0; l < batch; ++l) {
      for (index_t d = 0; d < s; ++d) {
        host.mat(l)[d * s + d] += T(static_cast<R>(s) + 1);
      }
    }
    auto pristine = to_compact_buffer(host, simd::pack_width_v<T>);
    auto compact = to_compact_buffer(host, simd::pack_width_v<T>);
    // 2/3 n^3 multiply-adds. Each repetition restores the unfactored
    // input first (same memcpy cost on both series) so repeated
    // factorisation stays well-defined.
    const double flops = flops_per_madd<T>() / 2.0 * (2.0 / 3.0) *
                         static_cast<double>(s) * s * s * batch;
    const double iatf_g = measure_gflops(flops, opt, [&] {
      std::memcpy(compact.data(), pristine.data(),
                  compact.size() * sizeof(real_t<T>));
      Engine::default_engine().getrf_nopiv_batch<T>(compact);
    });
    auto scratch = host;
    const double loop_g = measure_gflops(flops, opt, [&] {
      std::memcpy(scratch.data.data(), host.data.data(),
                  host.data.size() * sizeof(T));
      for (index_t l = 0; l < batch; ++l) {
        ref::getrf_np<T>(s, scratch.data.data() + l * scratch.stride(),
                         s);
      }
    });
    print_row("ext-getrf", dtype, "np", s, "iatf", iatf_g);
    print_row("ext-getrf", dtype, "np", s, "lapack-loop", loop_g);
  }
}

template <class T>
void sweep_potrf(const char* dtype, const Options& opt) {
  using R = real_t<T>;
  for (index_t s = 2; s <= opt.max_size; s += opt.size_step) {
    const index_t batch =
        auto_batch(static_cast<index_t>(sizeof(T)) * s * s,
                   simd::pack_width_v<T>, opt);
    Rng rng(3);
    // SPD-ish: dominant real diagonal keeps repeated factorisation of the
    // (already factored) buffer finite for timing purposes.
    auto host = random_host_batch<T>(s, s, batch, rng);
    for (index_t l = 0; l < batch; ++l) {
      for (index_t j = 0; j < s; ++j) {
        for (index_t i = 0; i < s; ++i) {
          if (i == j) {
            host.mat(l)[j * s + i] = T(static_cast<R>(2 * s) + 2);
          } else {
            host.mat(l)[j * s + i] *= R(0.25) / static_cast<R>(s);
          }
        }
      }
    }
    auto pristine = to_compact_buffer(host, simd::pack_width_v<T>);
    auto compact = to_compact_buffer(host, simd::pack_width_v<T>);
    const double flops = flops_per_madd<T>() / 2.0 * (1.0 / 3.0) *
                         static_cast<double>(s) * s * s * batch;
    const double iatf_g = measure_gflops(flops, opt, [&] {
      std::memcpy(compact.data(), pristine.data(),
                  compact.size() * sizeof(real_t<T>));
      Engine::default_engine().potrf_batch<T>(compact);
    });
    auto scratch = host;
    const double loop_g = measure_gflops(flops, opt, [&] {
      std::memcpy(scratch.data.data(), host.data.data(),
                  host.data.size() * sizeof(T));
      for (index_t l = 0; l < batch; ++l) {
        ref::potrf<T>(s, scratch.data.data() + l * scratch.stride(), s);
      }
    });
    print_row("ext-potrf", dtype, "lower", s, "iatf", iatf_g);
    print_row("ext-potrf", dtype, "lower", s, "lapack-loop", loop_g);
  }
}

} // namespace
} // namespace iatf::bench

int main(int argc, char** argv) {
  using namespace iatf::bench;
  Options opt = Options::parse(argc, argv);
  if (opt.size_step == 1) {
    opt.size_step = 4;
  }
  enable_flush_to_zero();
  std::printf("# Extension routines (future work of paper section 7)\n");
  print_header();
  sweep_trmm<float>("s", opt);
  sweep_trmm<double>("d", opt);
  sweep_trmm<std::complex<double>>("z", opt);
  sweep_getrf<float>("s", opt);
  sweep_getrf<double>("d", opt);
  sweep_getrf<std::complex<double>>("z", opt);
  sweep_potrf<float>("s", opt);
  sweep_potrf<double>("d", opt);
  sweep_potrf<std::complex<double>>("z", opt);
  return 0;
}
