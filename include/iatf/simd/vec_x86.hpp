// x86-64 backends: 128-bit (SSE + FMA), AVX2 (256-bit) and AVX-512
// (512-bit).
//
// Full specializations of vec<Real, W> for the lane counts that map onto
// one xmm (float x4 / double x2), one ymm (float x8 / double x4) or one
// zmm (float x16 / double x8) register. The layout is identical to the
// generic template -- the member is still the GCC vector type, so kreg
// aggregates, the bench harness's "+x" register barriers, and
// memcpy-based load/store all keep working -- but fmla/fmls/fsqrt are
// pinned to the exact hardware instruction (vfmadd231 / vfnmadd231 /
// vsqrt) instead of relying on -ffp-contract to fuse the generic
// `acc + a*b` form. GCC's default contraction picks which product of an
// expression to fuse per instantiation, so an unpinned op gives a value
// whose bits depend on which kernel instance computed it (a tiling
// change could move them); pinned ops keep the per-width numerics
// deterministic across tilings and optimization levels, which the
// cross-ISA differential fuzzer depends on.
//
// stream() is the non-temporal store (movntps / movntpd): it writes a
// register's bytes without reading their cache line first, and the
// line does not stay in the caches. The address must be aligned to the
// register's size. Stores issued this way are weakly ordered; a caller
// that streams fences with stream_fence() (vec.hpp) before another
// thread or a later read depends on the bytes.
//
// Each block is compile-gated: a translation unit built without -mfma /
// -mavx2 / -mavx512f simply keeps the generic template at those widths
// (correct, synthesized from narrower ops, stream() a plain store).
// Runtime gating -- never *executing* a wide backend the CPU lacks -- is
// the job of iatf::simd::detect_isa() in isa.hpp.
#pragma once

#include "iatf/simd/vec_generic.hpp"

#if IATF_SIMD_NATIVE && defined(__x86_64__) &&                                 \
    (defined(__FMA__) || defined(__AVX512F__))
#include <immintrin.h>

// Generates one full specialization. REAL/W pick the template, and the
// four instruction arguments pin fma (acc + a*b), fms (acc - a*b), sqrt
// and the non-temporal store; everything else (load/store/broadcast/
// arithmetic) stays on the vector-extension forms, which already lower
// to single instructions at these widths.
#define IATF_VEC_X86_SPEC(REAL, W, INTRIN, FMADD, FNMADD, SQRT, STREAM)        \
  template <> struct vec<REAL, W> {                                            \
    static constexpr int lanes = W;                                            \
    using real_type = REAL;                                                    \
    typedef REAL native_type __attribute__((vector_size(sizeof(REAL) * W)));   \
                                                                               \
    native_type v;                                                             \
                                                                               \
    vec() = default;                                                           \
    explicit vec(native_type n) : v(n) {}                                      \
                                                                               \
    static vec load(const REAL* p) {                                           \
      vec r;                                                                   \
      std::memcpy(&r.v, p, sizeof(r.v));                                       \
      return r;                                                                \
    }                                                                          \
    void store(REAL* p) const { std::memcpy(p, &v, sizeof(v)); }               \
    void stream(REAL* p) const { STREAM(p, INTRIN(v)); }                       \
    static vec broadcast(REAL x) {                                             \
      vec r;                                                                   \
      r.v = x - native_type{};                                                 \
      return r;                                                                \
    }                                                                          \
    static vec zero() { return broadcast(REAL(0)); }                           \
    REAL get(int i) const {                                                    \
      REAL tmp[W];                                                             \
      store(tmp);                                                              \
      return tmp[i];                                                           \
    }                                                                          \
                                                                               \
    friend vec operator+(vec a, vec b) { return vec(a.v + b.v); }              \
    friend vec operator-(vec a, vec b) { return vec(a.v - b.v); }              \
    friend vec operator*(vec a, vec b) { return vec(a.v * b.v); }              \
    friend vec operator/(vec a, vec b) { return vec(a.v / b.v); }              \
                                                                               \
    static vec fma(vec acc, vec a, vec b) {                                    \
      return vec(native_type(                                                  \
          FMADD(INTRIN(a.v), INTRIN(b.v), INTRIN(acc.v))));                    \
    }                                                                          \
    static vec fms(vec acc, vec a, vec b) {                                    \
      return vec(native_type(                                                  \
          FNMADD(INTRIN(a.v), INTRIN(b.v), INTRIN(acc.v))));                   \
    }                                                                          \
    static vec sqrt(vec x) { return vec(native_type(SQRT(INTRIN(x.v)))); }     \
  };

namespace iatf::simd {

#if defined(__FMA__)
IATF_VEC_X86_SPEC(float, 4, __m128, _mm_fmadd_ps, _mm_fnmadd_ps, _mm_sqrt_ps,
                  _mm_stream_ps)
IATF_VEC_X86_SPEC(double, 2, __m128d, _mm_fmadd_pd, _mm_fnmadd_pd,
                  _mm_sqrt_pd, _mm_stream_pd)
#endif

#if defined(__AVX2__) && defined(__FMA__)
IATF_VEC_X86_SPEC(float, 8, __m256, _mm256_fmadd_ps, _mm256_fnmadd_ps,
                  _mm256_sqrt_ps, _mm256_stream_ps)
IATF_VEC_X86_SPEC(double, 4, __m256d, _mm256_fmadd_pd, _mm256_fnmadd_pd,
                  _mm256_sqrt_pd, _mm256_stream_pd)
#endif

#if defined(__AVX512F__)
// _mm512_sqrt_{ps,pd} pass _mm512_undefined_* as the masked-off source,
// which GCC 12 reports as -Wmaybe-uninitialized wherever it inlines; the
// all-lanes masked form is the same vsqrt without the undefined operand.
inline __m512 sqrt512_ps(__m512 x) {
  return _mm512_mask_sqrt_ps(x, 0xFFFF, x);
}
inline __m512d sqrt512_pd(__m512d x) {
  return _mm512_mask_sqrt_pd(x, 0xFF, x);
}
IATF_VEC_X86_SPEC(float, 16, __m512, _mm512_fmadd_ps, _mm512_fnmadd_ps,
                  sqrt512_ps, _mm512_stream_ps)
IATF_VEC_X86_SPEC(double, 8, __m512d, _mm512_fmadd_pd, _mm512_fnmadd_pd,
                  sqrt512_pd, _mm512_stream_pd)
#endif

} // namespace iatf::simd

#undef IATF_VEC_X86_SPEC
#endif // x86 backends
