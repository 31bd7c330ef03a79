// Width-generic portable SIMD backend (primary template).
//
// The paper's kernels are written in AArch64 assembly over 128-bit NEON
// registers (fmla / fmls / fmul / ldp / stp). This header provides the same
// operation set as a typed value class, generic over the lane count W, so
// the identical kernel *algorithms* (paper Algorithms 2-4) compile to NEON
// on AArch64, to SSE/AVX/AVX-512 on x86-64, and to scalar code elsewhere.
//
// GCC/Clang vector extensions are the primary backend because they are
// correct at ANY width: when W exceeds the native register width the
// compiler synthesizes the operation from narrower instructions, and when
// the translation unit is compiled with the matching ISA enabled
// (-march=native or -mavx2/-mavx512f) each op lowers 1:1 onto one native
// instruction. A plain array fallback keeps other compilers working.
//
// Per-ISA refinements live in sibling headers included by vec.hpp:
//   vec_x86.hpp   -- AVX2/AVX-512 intrinsic specializations (W = 8/16 lanes)
//   vec_neon.hpp  -- NEON intrinsic specializations (128-bit baseline)
// Include vec.hpp, never this header directly, so specializations are
// always visible before the first instantiation.
#pragma once

#include <cmath>
#include <cstring>

#include "iatf/common/types.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define IATF_SIMD_NATIVE 1
#else
#define IATF_SIMD_NATIVE 0
#endif

namespace iatf::simd {

template <class Real, int W> struct vec {
  static_assert(W > 0 && (W & (W - 1)) == 0, "lane count must be power of 2");
  static constexpr int lanes = W;
  using real_type = Real;

#if IATF_SIMD_NATIVE
  typedef Real native_type __attribute__((vector_size(sizeof(Real) * W)));
#else
  struct native_type {
    Real lane[W];
  };
#endif

  native_type v;

  vec() = default;
  explicit vec(native_type n) : v(n) {}

  /// Load W consecutive reals (no alignment requirement).
  static vec load(const Real* p) {
    vec r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }

  /// Store W consecutive reals (no alignment requirement).
  void store(Real* p) const { std::memcpy(p, &v, sizeof(v)); }

  /// All lanes = x (NEON `dup`).
  static vec broadcast(Real x) {
    vec r;
#if IATF_SIMD_NATIVE
    r.v = x - native_type{}; // splat: scalar op vector broadcasts
#else
    for (int i = 0; i < W; ++i) {
      r.v.lane[i] = x;
    }
#endif
    return r;
  }

  static vec zero() { return broadcast(Real(0)); }

  Real get(int i) const {
    Real tmp[W];
    store(tmp);
    return tmp[i];
  }

#if IATF_SIMD_NATIVE
  friend vec operator+(vec a, vec b) { return vec(a.v + b.v); }
  friend vec operator-(vec a, vec b) { return vec(a.v - b.v); }
  friend vec operator*(vec a, vec b) { return vec(a.v * b.v); }
  friend vec operator/(vec a, vec b) { return vec(a.v / b.v); }
#else
  friend vec operator+(vec a, vec b) {
    vec r;
    for (int i = 0; i < W; ++i) {
      r.v.lane[i] = a.v.lane[i] + b.v.lane[i];
    }
    return r;
  }
  friend vec operator-(vec a, vec b) {
    vec r;
    for (int i = 0; i < W; ++i) {
      r.v.lane[i] = a.v.lane[i] - b.v.lane[i];
    }
    return r;
  }
  friend vec operator*(vec a, vec b) {
    vec r;
    for (int i = 0; i < W; ++i) {
      r.v.lane[i] = a.v.lane[i] * b.v.lane[i];
    }
    return r;
  }
  friend vec operator/(vec a, vec b) {
    vec r;
    for (int i = 0; i < W; ++i) {
      r.v.lane[i] = a.v.lane[i] / b.v.lane[i];
    }
    return r;
  }
#endif

  /// NEON `fmla`: acc + a*b. The compiler contracts this to a hardware FMA
  /// where available (-mfma / NEON fmla).
  static vec fma(vec acc, vec a, vec b) { return acc + a * b; }

  /// NEON `fmls`: acc - a*b. Used by the TRSM rectangular kernels, saving
  /// the M*N extra multiplies a GEMM call with alpha=-1 would spend
  /// (paper equation 4).
  static vec fms(vec acc, vec a, vec b) { return acc - a * b; }

  /// Lane-wise square root (NEON `fsqrt`); used by the compact Cholesky
  /// extension. The store/compute/load form keeps it portable -- the
  /// compiler lowers it to the hardware sqrt where one exists.
  static vec sqrt(vec x) {
    Real tmp[W];
    x.store(tmp);
    for (int i = 0; i < W; ++i) {
      tmp[i] = std::sqrt(tmp[i]);
    }
    return load(tmp);
  }
};

} // namespace iatf::simd
