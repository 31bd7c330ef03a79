// Umbrella header for the width-generic SIMD layer.
//
// vec<Real, W> is one value class with per-ISA backends:
//   vec_generic.hpp -- portable primary template, correct at any width
//                      (GCC/Clang vector extensions, array fallback)
//   vec_x86.hpp     -- SSE+FMA / AVX2 / AVX-512 intrinsic specializations
//   vec_neon.hpp    -- NEON intrinsic specializations (paper baseline)
//
// Always include THIS header: the backend specializations must be visible
// before the first instantiation of vec at a specialized width, and the
// include order here guarantees that.
//
// Width notes:
//   * vec<float,4> / vec<double,2>   == one NEON q-register / SSE xmm
//     (the paper's platform; the Bytes=16 kernel class).
//   * vec<float,8> / vec<double,4>   == one AVX2 ymm (Bytes=32).
//   * vec<float,16> / vec<double,8>  == one AVX-512 zmm (Bytes=64).
// Runtime selection between these classes is isa.hpp's job; everything
// below compiles at every width on every compiler.
#pragma once

#include "iatf/simd/vec_generic.hpp"
#include "iatf/simd/vec_neon.hpp"
#include "iatf/simd/vec_x86.hpp"

#if IATF_SIMD_NATIVE && defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace iatf::simd {

/// Order every earlier vec::stream() store before the stores that follow
/// (x86 sfence): non-temporal stores are weakly ordered, so a thread that
/// streamed its output fences before another thread may read it. A no-op
/// where stream() is the plain store.
inline void stream_fence() noexcept {
#if IATF_SIMD_NATIVE && defined(__x86_64__)
  _mm_sfence();
#endif
}

/// 128-bit lane count for the real type underlying T: the paper's "P"
/// (number of matrices interleaved per SIMD register).
template <class T>
inline constexpr int pack_width_v = 16 / static_cast<int>(sizeof(real_t<T>));

/// Lane count for an arbitrary register width in bytes.
template <class T, int Bytes>
inline constexpr int pack_width_bytes_v =
    Bytes / static_cast<int>(sizeof(real_t<T>));

/// The vector type IATF kernels use for scalar type T at a given register
/// width (defaults to the paper's 128 bits).
template <class T, int Bytes = 16>
using compact_vec_t = vec<real_t<T>, pack_width_bytes_v<T, Bytes>>;

} // namespace iatf::simd
