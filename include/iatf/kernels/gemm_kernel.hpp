// Compact GEMM micro-kernels (paper section 4.2.1, Algorithms 2-3).
//
// Each kernel instance updates the P x mc x nc block of C held by one
// interleave group: acc[i][j] accumulates sum_k A(i0+i,k)*B(k,j0+j) as a
// SIMD vector spanning P matrices, then SAVE applies alpha/beta.
//
// The kernel body is generated from the paper's templates with ping-pong
// double buffering: two register sets for A and for B alternate so the
// loads feeding the *next* k-step issue alongside the FMAs of the current
// one (TEMPLATE_I / M1 / M2 / E / SUB / SAVE). SAVE's arithmetic is
// pinned, and with beta == 0 it can stream C past the caches (see the
// SAVE below and DESIGN.md section 5.1).
//
// Deviation from the paper, documented here and in DESIGN.md: Algorithm 3
// as printed loads K+1 k-blocks when K is odd and >= 5 (the final SUB
// re-loads a block the preceding M2 already fetched, reading one block
// past the packed panel). We emit the equivalent corrected sequence
//   I; M2; {M1; M2;}*; E                     (even K)
//   I; M2; {M1; M2;}*; M2'; E0               (odd K)
// where E0 is E computing from register set 0; it performs exactly K loads
// and K multiply steps while preserving the ping-pong schedule.
//
// Strides make the same kernel serve both the packed path and the paper's
// *no-packing* strategy (section 4.4): a packed panel is walked with
// k-stride = mc*P; an unpacked NoTrans operand is walked in place with
// k-stride = rows*P. Rows of A and C are always element-contiguous in
// compact layout, which is what makes no-pack legal whenever one tile
// covers the dimension.
#pragma once

#include "iatf/common/types.hpp"
#include "iatf/kernels/kreg.hpp"

namespace iatf::kernels {

template <class T> struct GemmKernelArgs {
  using R = real_t<T>;
  const R* pa = nullptr; ///< A tile base: element (i0, k=0) of the group
  const R* pb = nullptr; ///< B tile base: element (k=0, j0) of the group
  R* c = nullptr;        ///< C tile base: element (i0, j0) of the group
  index_t k = 0;
  index_t a_kstride = 0; ///< reals between k-blocks of A
  index_t b_kstride = 0; ///< reals between k-blocks of B
  index_t b_jstride = 0; ///< reals between columns within a B k-block
  index_t c_jstride = 0; ///< reals between columns of C
  T alpha{};
  T beta{};
  /// beta == 0 only: write C with non-temporal stores (kreg::stream).
  /// Every C block must be aligned to the register, and the caller
  /// fences (simd::stream_fence) before C is read.
  bool stream = false;
};

template <class T, int Bytes = 16>
using GemmKernelFn = void (*)(const GemmKernelArgs<T>&);

template <class T, int MC, int NC, int Bytes = 16>
void gemm_kernel(const GemmKernelArgs<T>& g) {
  using K = kreg<T, Bytes>;
  using R = real_t<T>;
  constexpr index_t ES = K::stride;

  K acc[MC][NC];
  K a0[MC];
  K a1[MC];
  K b0[NC];
  K b1[NC];

  const R* pa = g.pa;
  const R* pb = g.pb;

  const auto load_a = [&](K (&dst)[MC]) {
    for (int i = 0; i < MC; ++i) {
      dst[i] = K::load(pa + i * ES);
    }
    pa += g.a_kstride;
  };
  const auto load_b = [&](K (&dst)[NC]) {
    for (int j = 0; j < NC; ++j) {
      dst[j] = K::load(pb + j * g.b_jstride);
    }
    pb += g.b_kstride;
  };
  const auto compute_mul = [&](const K (&a)[MC], const K (&b)[NC]) {
    for (int i = 0; i < MC; ++i) {
      for (int j = 0; j < NC; ++j) {
        acc[i][j] = K::mul(a[i], b[j]);
      }
    }
  };
  const auto compute_fma = [&](const K (&a)[MC], const K (&b)[NC]) {
    for (int i = 0; i < MC; ++i) {
      for (int j = 0; j < NC; ++j) {
        acc[i][j] = K::fma(acc[i][j], a[i], b[j]);
      }
    }
  };

  if (g.k <= 0) {
    for (int i = 0; i < MC; ++i) {
      for (int j = 0; j < NC; ++j) {
        acc[i][j] = K::zero();
      }
    }
  } else if (g.k == 1) {
    // TEMPLATE_SUB with an empty accumulator (Algorithm 3, K==1 branch).
    load_a(a0);
    load_b(b0);
    compute_mul(a0, b0);
  } else {
    // TEMPLATE_I: load k-blocks 0 and 1, multiply block 0.
    load_a(a0);
    load_a(a1);
    load_b(b0);
    load_b(b1);
    compute_mul(a0, b0);

    index_t remaining = g.k - 2; // blocks not yet loaded
    while (remaining >= 2) {
      // TEMPLATE_M2: load into set 0, compute set 1.
      load_a(a0);
      load_b(b0);
      compute_fma(a1, b1);
      // TEMPLATE_M1: load into set 1, compute set 0.
      load_a(a1);
      load_b(b1);
      compute_fma(a0, b0);
      remaining -= 2;
    }
    if (remaining == 1) {
      // TEMPLATE_M2 then E0 (E computing from set 0).
      load_a(a0);
      load_b(b0);
      compute_fma(a1, b1);
      compute_fma(a0, b0);
    } else {
      // TEMPLATE_E: compute set 1, no loads.
      compute_fma(a1, b1);
    }
  }

  // TEMPLATE_SAVE: C = alpha*acc + beta*C, computed as out = alpha*acc,
  // then out = fma(beta, C, out), through pinned ops. Written as one
  // expression, either product could be fused and the compiler picks per
  // kernel instance, so a C element's bits would depend on its tile.
  // With beta == 0 C is never read: a streaming call writes each block
  // with a non-temporal store, skipping the read-for-ownership of lines
  // it overwrites whole; the values are the same.
  const auto save = [&](const auto& put) {
    for (int j = 0; j < NC; ++j) {
      R* cp = g.c + j * g.c_jstride;
      for (int i = 0; i < MC; ++i) {
        put(K::scale(g.alpha, acc[i][j]), cp + i * ES);
      }
    }
  };
  if (g.beta != T{}) {
    const K beta = K::broadcast(g.beta);
    save([&](const K& out, R* p) { K::fma(out, beta, K::load(p)).store(p); });
  } else if (g.stream) {
    save([](const K& out, R* p) { out.stream(p); });
  } else {
    save([](const K& out, R* p) { out.store(p); });
  }
}

} // namespace iatf::kernels
