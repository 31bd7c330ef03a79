// AArch64 NEON backend: the paper's native 128-bit baseline.
//
// Full specializations of vec<float, 4> and vec<double, 2> -- exactly one
// NEON q-register each, the shapes every IATF kernel was derived for
// (paper section 4.1). The generic vector-extension template already
// lowers 1:1 on AArch64; these specializations pin the kernel-critical
// ops to the named instructions (vfmaq = fmla, vfmsq = fmls,
// vsqrtq = fsqrt) so the mapping documented in the paper is explicit in
// the source and immune to -ffp-contract settings.
//
// Layout matches the generic template: float32x4_t / float64x2_t are
// themselves 16-byte vector types, so kreg aggregates and the bench
// harness's "+w" register barrier work unchanged.
#pragma once

#include "iatf/simd/vec_generic.hpp"

#if IATF_SIMD_NATIVE && defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>

#define IATF_VEC_NEON_SPEC(REAL, W, NATIVE, SUF)                               \
  template <> struct vec<REAL, W> {                                            \
    static constexpr int lanes = W;                                            \
    using real_type = REAL;                                                    \
    using native_type = NATIVE;                                                \
                                                                               \
    native_type v;                                                             \
                                                                               \
    vec() = default;                                                           \
    explicit vec(native_type n) : v(n) {}                                      \
                                                                               \
    static vec load(const REAL* p) { return vec(vld1q_##SUF(p)); }             \
    void store(REAL* p) const { vst1q_##SUF(p, v); }                           \
    /* no streaming store here: the plain st1 */                               \
    void stream(REAL* p) const { store(p); }                                   \
    static vec broadcast(REAL x) { return vec(vdupq_n_##SUF(x)); }             \
    static vec zero() { return broadcast(REAL(0)); }                           \
    REAL get(int i) const {                                                    \
      REAL tmp[W];                                                             \
      store(tmp);                                                              \
      return tmp[i];                                                           \
    }                                                                          \
                                                                               \
    friend vec operator+(vec a, vec b) { return vec(vaddq_##SUF(a.v, b.v)); }  \
    friend vec operator-(vec a, vec b) { return vec(vsubq_##SUF(a.v, b.v)); }  \
    friend vec operator*(vec a, vec b) { return vec(vmulq_##SUF(a.v, b.v)); }  \
    friend vec operator/(vec a, vec b) { return vec(vdivq_##SUF(a.v, b.v)); }  \
                                                                               \
    /* fmla: acc + a*b */                                                      \
    static vec fma(vec acc, vec a, vec b) {                                    \
      return vec(vfmaq_##SUF(acc.v, a.v, b.v));                                \
    }                                                                          \
    /* fmls: acc - a*b */                                                      \
    static vec fms(vec acc, vec a, vec b) {                                    \
      return vec(vfmsq_##SUF(acc.v, a.v, b.v));                                \
    }                                                                          \
    /* fsqrt */                                                                \
    static vec sqrt(vec x) { return vec(vsqrtq_##SUF(x.v)); }                  \
  };

namespace iatf::simd {

IATF_VEC_NEON_SPEC(float, 4, float32x4_t, f32)
IATF_VEC_NEON_SPEC(double, 2, float64x2_t, f64)

} // namespace iatf::simd

#undef IATF_VEC_NEON_SPEC
#endif // AArch64 NEON backend
