// Core enums, scalar-type traits and problem descriptors shared by every
// IATF module.
//
// The paper's run-time stage keys its execution plans on the "input matrix
// properties (Matrix Size, Transposed/Non-Transposed, Left/Right,
// Lower/Upper, Unit/NonUnit)" -- these are the types that carry those
// properties through the framework.
#pragma once

#include <complex>
#include <cstdint>
#include <string>
#include <type_traits>

namespace iatf {

using index_t = std::int64_t;

/// Transposition mode of an input operand (BLAS `trans` parameter).
enum class Op : std::uint8_t {
  NoTrans = 0,   ///< use A as stored
  Trans = 1,     ///< use A^T
  ConjTrans = 2, ///< use conj(A)^T (equals Trans for real types)
};

/// Which side the triangular matrix appears on in TRSM: AX=B or XA=B.
enum class Side : std::uint8_t { Left = 0, Right = 1 };

/// Which triangle of A is referenced.
enum class Uplo : std::uint8_t { Lower = 0, Upper = 1 };

/// Whether the diagonal of A is assumed to be all ones.
enum class Diag : std::uint8_t { NonUnit = 0, Unit = 1 };

/// What a triangular call does with op(tri(A)) and B: solve (TRSM) or
/// multiply (TRMM).
enum class TriOp : std::uint8_t { Solve = 0, Multiply = 1 };

const char* to_string(Op op) noexcept;
const char* to_string(Side side) noexcept;
const char* to_string(Uplo uplo) noexcept;
const char* to_string(Diag diag) noexcept;

namespace detail {
template <class T> struct scalar_traits;

template <> struct scalar_traits<float> {
  using real_type = float;
  static constexpr bool is_complex = false;
  static constexpr const char* blas_prefix = "s";
};
template <> struct scalar_traits<double> {
  using real_type = double;
  static constexpr bool is_complex = false;
  static constexpr const char* blas_prefix = "d";
};
template <> struct scalar_traits<std::complex<float>> {
  using real_type = float;
  static constexpr bool is_complex = true;
  static constexpr const char* blas_prefix = "c";
};
template <> struct scalar_traits<std::complex<double>> {
  using real_type = double;
  static constexpr bool is_complex = true;
  static constexpr const char* blas_prefix = "z";
};
} // namespace detail

/// Underlying real type of a (possibly complex) BLAS scalar type.
template <class T> using real_t = typename detail::scalar_traits<T>::real_type;

/// True for std::complex<float> / std::complex<double>.
template <class T>
inline constexpr bool is_complex_v = detail::scalar_traits<T>::is_complex;

/// Conventional single-letter BLAS prefix: s, d, c or z.
template <class T>
inline constexpr const char* blas_prefix_v =
    detail::scalar_traits<T>::blas_prefix;

/// conj() that is the identity for real types (std::conj would promote
/// a real argument to complex).
template <class T> constexpr T conj_if_complex(T v) noexcept {
  if constexpr (is_complex_v<T>) {
    return std::conj(v);
  } else {
    return v;
  }
}

/// Number of scalar FLOPs attributed to one multiply-add on type T.
/// A complex multiply-add costs 4 multiplies + 4 adds of real scalars.
template <class T> constexpr double flops_per_madd() noexcept {
  return is_complex_v<T> ? 8.0 : 2.0;
}

/// Descriptor of one compact-batched GEMM problem:
///   C = alpha * op(A) * op(B) + beta * C     for `batch` matrices.
struct GemmShape {
  index_t m = 0;
  index_t n = 0;
  index_t k = 0;
  Op op_a = Op::NoTrans;
  Op op_b = Op::NoTrans;
  index_t batch = 0;

  friend bool operator==(const GemmShape&, const GemmShape&) = default;
};

/// Descriptor of one compact-batched triangular problem. Solve (TRSM):
///   op(A) * X = alpha * B   (Left)   or   X * op(A) = alpha * B   (Right)
/// where A is triangular and B (m x n) is overwritten by X. Multiply
/// (TRMM): B = alpha * op(A) * B (Left) or alpha * B * op(A) (Right).
struct TrsmShape {
  index_t m = 0;
  index_t n = 0;
  Side side = Side::Left;
  Uplo uplo = Uplo::Lower;
  Op op_a = Op::NoTrans;
  Diag diag = Diag::NonUnit;
  index_t batch = 0;
  TriOp op = TriOp::Solve;

  /// Dimension of the triangular matrix A (m for Left, n for Right).
  index_t a_dim() const noexcept { return side == Side::Left ? m : n; }

  friend bool operator==(const TrsmShape&, const TrsmShape&) = default;
};

std::string to_string(const GemmShape& s);
std::string to_string(const TrsmShape& s);

/// Total scalar FLOPs of a batched GEMM (standard BLAS accounting).
template <class T> double gemm_flops(const GemmShape& s) noexcept {
  return flops_per_madd<T>() * static_cast<double>(s.m) *
         static_cast<double>(s.n) * static_cast<double>(s.k) *
         static_cast<double>(s.batch);
}

/// Total scalar FLOPs of a batched TRSM (standard BLAS accounting:
/// n*m^2 madds for Left, m*n^2 for Right).
template <class T> double trsm_flops(const TrsmShape& s) noexcept {
  const double a = static_cast<double>(s.a_dim());
  const double other =
      static_cast<double>(s.side == Side::Left ? s.n : s.m);
  return flops_per_madd<T>() / 2.0 * a * a * other *
         static_cast<double>(s.batch);
}

} // namespace iatf
