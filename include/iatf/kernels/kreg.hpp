// Kernel register abstraction.
//
// The paper's kernels manipulate NEON vector registers holding the same
// element of P interleaved matrices. For real types one logical value is
// one vector register; for complex types it is a *pair* of registers (the
// real-part plane and the imaginary-part plane of the compact layout), and
// each complex multiply-add expands to the paper's 4 real FMA/FMS
// instructions (section 4.2.1: complex kernels need 2x the registers and
// 4x the computation ops per element).
//
// kreg<T, Bytes> hides that difference so the GEMM/TRSM kernel templates
// are written once against fmul / fma / fms / scale / recip, and store /
// stream (the non-temporal store of the GEMM SAVE).
#pragma once

#include "iatf/common/types.hpp"
#include "iatf/simd/vec.hpp"

namespace iatf::kernels {

template <class T, int Bytes = 16, bool = is_complex_v<T>> struct kreg;

/// Real-type register: one SIMD vector.
template <class T, int Bytes> struct kreg<T, Bytes, false> {
  using R = real_t<T>;
  using V = simd::compact_vec_t<T, Bytes>;
  /// Lanes (matrices interleaved) per logical value.
  static constexpr int pack = V::lanes;
  /// Scalars of R consumed by one load (= compact element stride).
  static constexpr int stride = V::lanes;

  V v;

  static kreg load(const R* p) { return {V::load(p)}; }
  void store(R* p) const { v.store(p); }
  /// Non-temporal store (vec::stream): `p` aligned to the register.
  void stream(R* p) const { v.stream(p); }
  static kreg zero() { return {V::zero()}; }
  /// All lanes = x.
  static kreg broadcast(T x) { return {V::broadcast(x)}; }

  static kreg mul(kreg a, kreg b) { return {a.v * b.v}; }
  static kreg fma(kreg acc, kreg a, kreg b) {
    return {V::fma(acc.v, a.v, b.v)};
  }
  static kreg fms(kreg acc, kreg a, kreg b) {
    return {V::fms(acc.v, a.v, b.v)};
  }

  /// alpha * x for a scalar alpha of type T.
  static kreg scale(T alpha, kreg x) {
    return {V::broadcast(alpha) * x.v};
  }

  /// Lane-wise reciprocal (used by the factorisation extensions; the
  /// BLAS-level kernels receive diagonals pre-inverted by the packers).
  static kreg recip(kreg x) { return {V::broadcast(R(1)) / x.v}; }

  /// Lane-wise square root (mathematically-real diagonals in POTRF).
  static kreg sqrt(kreg x) { return {V::sqrt(x.v)}; }

  /// acc - a*conj(b): the Hermitian rank-update of POTRF (plain fms for
  /// real types).
  static kreg fms_conj(kreg acc, kreg a, kreg b) {
    return fms(acc, a, b);
  }
};

/// Complex-type register: a (real-plane, imag-plane) vector pair.
template <class T, int Bytes> struct kreg<T, Bytes, true> {
  using R = real_t<T>;
  using V = simd::compact_vec_t<T, Bytes>;
  static constexpr int pack = V::lanes;
  static constexpr int stride = 2 * V::lanes;

  V re;
  V im;

  static kreg load(const R* p) {
    return {V::load(p), V::load(p + V::lanes)};
  }
  void store(R* p) const {
    re.store(p);
    im.store(p + V::lanes);
  }
  void stream(R* p) const {
    re.stream(p);
    im.stream(p + V::lanes);
  }
  static kreg zero() { return {V::zero(), V::zero()}; }
  static kreg broadcast(T x) {
    return {V::broadcast(x.real()), V::broadcast(x.imag())};
  }

  /// a * b: 2 fmul + 1 fms + 1 fma.
  static kreg mul(kreg a, kreg b) {
    kreg r;
    r.re = V::fms(a.re * b.re, a.im, b.im);
    r.im = V::fma(a.re * b.im, a.im, b.re);
    return r;
  }

  /// acc + a*b: the paper's 4-instruction complex update.
  static kreg fma(kreg acc, kreg a, kreg b) {
    kreg r;
    r.re = V::fms(V::fma(acc.re, a.re, b.re), a.im, b.im);
    r.im = V::fma(V::fma(acc.im, a.re, b.im), a.im, b.re);
    return r;
  }

  /// acc - a*b.
  static kreg fms(kreg acc, kreg a, kreg b) {
    kreg r;
    r.re = V::fma(V::fms(acc.re, a.re, b.re), a.im, b.im);
    r.im = V::fms(V::fms(acc.im, a.re, b.im), a.im, b.re);
    return r;
  }

  static kreg scale(T alpha, kreg x) {
    const V ar = V::broadcast(alpha.real());
    const V ai = V::broadcast(alpha.imag());
    kreg r;
    r.re = V::fms(ar * x.re, ai, x.im);
    r.im = V::fma(ar * x.im, ai, x.re);
    return r;
  }

  /// Lane-wise complex reciprocal: conj(x) / |x|^2.
  static kreg recip(kreg x) {
    const V mag2 = V::fma(x.re * x.re, x.im, x.im);
    kreg r;
    r.re = x.re / mag2;
    r.im = (V::zero() - x.im) / mag2;
    return r;
  }

  /// Square root of a register whose value is mathematically real
  /// (Cholesky diagonals): sqrt of the real plane, zero imaginary plane.
  static kreg sqrt(kreg x) { return {V::sqrt(x.re), V::zero()}; }

  /// acc - a*conj(b): 4 real FMA/FMS, the Hermitian update of POTRF.
  static kreg fms_conj(kreg acc, kreg a, kreg b) {
    kreg r;
    r.re = V::fms(V::fms(acc.re, a.re, b.re), a.im, b.im);
    r.im = V::fms(V::fma(acc.im, a.re, b.im), a.im, b.re);
    return r;
  }
};

} // namespace iatf::kernels
