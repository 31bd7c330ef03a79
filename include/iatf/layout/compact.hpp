// SIMD-friendly compact data layout (paper section 4.1, Figure 3).
//
// A batch of NM equally-sized small matrices is stored as ceil(NM/P)
// *groups*. Within a group, the P matrices are interleaved element-wise:
// the value at position (i,j) of each of the P matrices occupies P
// consecutive scalars, so one 128-bit vector load brings the same element
// of P matrices into a SIMD register ("P = the number of data that fills
// the length of the SIMD register": 4 for float, 2 for double on the
// paper's 128-bit NEON).
//
// Complex matrices are stored as two planes per element -- P real parts
// followed by P imaginary parts -- which is what lets the complex kernels
// run on plain real-vector FMA/FMS (the paper's 4-multiply complex update,
// section 4.2.1).
//
// Groups that extend past NM are zero-padded; pad_identity() additionally
// writes a unit diagonal into padded lanes so triangular solves on the pad
// cannot divide by zero.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "iatf/common/aligned_buffer.hpp"
#include "iatf/common/error.hpp"
#include "iatf/common/types.hpp"
#include "iatf/simd/vec.hpp"

namespace iatf {

/// Owning container for a batch of fixed-size small matrices in compact
/// layout. Scalar type T may be real or complex; storage is always the
/// underlying real type.
template <class T> class CompactBuffer {
public:
  using real_type = real_t<T>;
  static constexpr int planes = is_complex_v<T> ? 2 : 1;

  CompactBuffer() = default;

  /// Create a zero-initialised batch of `batch` matrices of size
  /// rows x cols, interleaved `pack_width` matrices per group (defaults to
  /// the 128-bit lane count for T).
  CompactBuffer(index_t rows, index_t cols, index_t batch,
                index_t pack_width = simd::pack_width_v<T>)
      : CompactBuffer(rows, cols, batch, pack_width, ForOverwrite{}) {
    std::fill_n(data_.data(), data_.size(), real_type(0));
  }

  /// Constructor tag: the storage is left unwritten, for a producer that
  /// writes every scalar, padding lanes included (to_compact).
  struct ForOverwrite {};
  CompactBuffer(index_t rows, index_t cols, index_t batch,
                index_t pack_width, ForOverwrite)
      : rows_(rows), cols_(cols), batch_(batch), pw_(pack_width) {
    IATF_CHECK(rows >= 0 && cols >= 0 && batch >= 0,
               "CompactBuffer: negative dimension");
    IATF_CHECK(pack_width >= 1, "CompactBuffer: pack width must be >= 1");
    data_.resize_for_overwrite(
        static_cast<std::size_t>(groups() * group_stride()));
  }

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  index_t batch() const noexcept { return batch_; }
  index_t pack_width() const noexcept { return pw_; }

  /// Number of interleave groups (batch rounded up to pack_width).
  index_t groups() const noexcept {
    return pw_ == 0 ? 0 : (batch_ + pw_ - 1) / pw_;
  }

  /// Scalars (of real_type) occupied by one group.
  index_t group_stride() const noexcept {
    return rows_ * cols_ * pw_ * planes;
  }

  /// Scalars (of real_type) occupied by one element block of a group.
  index_t element_stride() const noexcept { return pw_ * planes; }

  real_type* data() noexcept { return data_.data(); }
  const real_type* data() const noexcept { return data_.data(); }
  std::size_t size() const noexcept { return data_.size(); }

  real_type* group_data(index_t g) noexcept {
    return data_.data() + g * group_stride();
  }
  const real_type* group_data(index_t g) const noexcept {
    return data_.data() + g * group_stride();
  }

  /// Offset (in real scalars, within a group) of element (i,j)'s block.
  index_t element_offset(index_t i, index_t j) const noexcept {
    return (j * rows_ + i) * element_stride();
  }

  /// Element (i,j) of matrix `b` in the batch.
  T get(index_t b, index_t i, index_t j) const {
    check_index(b, i, j);
    const real_type* p =
        group_data(b / pw_) + element_offset(i, j) + (b % pw_);
    if constexpr (is_complex_v<T>) {
      return T(p[0], p[pw_]);
    } else {
      return *p;
    }
  }

  void set(index_t b, index_t i, index_t j, T value) {
    check_index(b, i, j);
    real_type* p = group_data(b / pw_) + element_offset(i, j) + (b % pw_);
    if constexpr (is_complex_v<T>) {
      p[0] = value.real();
      p[pw_] = value.imag();
    } else {
      *p = value;
    }
  }

  /// Write 1 onto the diagonal of padded lanes (lanes >= batch in the last
  /// group). Keeps triangular solves on the padding finite.
  void pad_identity() {
    const index_t first_pad = batch_ % pw_;
    if (first_pad == 0 || groups() == 0) {
      return;
    }
    real_type* g = group_data(groups() - 1);
    const index_t d = rows_ < cols_ ? rows_ : cols_;
    for (index_t i = 0; i < d; ++i) {
      real_type* p = g + element_offset(i, i);
      for (index_t lane = first_pad; lane < pw_; ++lane) {
        p[lane] = real_type(1);
        if constexpr (is_complex_v<T>) {
          p[pw_ + lane] = real_type(0);
        }
      }
    }
  }

  /// Import matrix `b` from a column-major buffer with leading dimension
  /// `ld` (>= rows).
  void import_colmajor(index_t b, const T* src, index_t ld) {
    IATF_CHECK(ld >= rows_, "import_colmajor: ld < rows");
    for (index_t j = 0; j < cols_; ++j) {
      for (index_t i = 0; i < rows_; ++i) {
        set(b, i, j, src[j * ld + i]);
      }
    }
  }

  /// Export matrix `b` to a column-major buffer with leading dimension
  /// `ld` (>= rows).
  void export_colmajor(index_t b, T* dst, index_t ld) const {
    IATF_CHECK(ld >= rows_, "export_colmajor: ld < rows");
    for (index_t j = 0; j < cols_; ++j) {
      for (index_t i = 0; i < rows_; ++i) {
        dst[j * ld + i] = get(b, i, j);
      }
    }
  }

private:
  void check_index(index_t b, index_t i, index_t j) const {
    IATF_CHECK(b >= 0 && b < batch_, "CompactBuffer: batch index");
    IATF_CHECK(i >= 0 && i < rows_, "CompactBuffer: row index");
    IATF_CHECK(j >= 0 && j < cols_, "CompactBuffer: col index");
  }

  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t batch_ = 0;
  index_t pw_ = 1;
  AlignedBuffer<real_type> data_;
};

/// Convert a whole batch held as one strided column-major array
/// (matrix b starts at src + b*matrix_stride) into compact layout.
/// Bulk path: walks group by group so the interleave gather runs without
/// per-element checks (the conversion cost is itself measured by
/// bench_ablation_convert), and writes each output scalar once: the
/// last group's padding lanes are zeroed as the gather passes them.
template <class T>
CompactBuffer<T>
to_compact(const T* src, index_t rows, index_t cols, index_t ld,
           index_t matrix_stride, index_t batch,
           index_t pack_width = simd::pack_width_v<T>) {
  using R = real_t<T>;
  IATF_CHECK(ld >= rows, "to_compact: ld < rows");
  CompactBuffer<T> out(rows, cols, batch, pack_width,
                       typename CompactBuffer<T>::ForOverwrite{});
  const index_t pw = pack_width;
  for (index_t g = 0; g < out.groups(); ++g) {
    R* gdata = out.group_data(g);
    const index_t lanes =
        g * pw + pw <= batch ? pw : batch - g * pw;
    const T* gsrc = src + g * pw * matrix_stride;
    for (index_t j = 0; j < cols; ++j) {
      for (index_t i = 0; i < rows; ++i) {
        R* blk = gdata + (j * rows + i) * out.element_stride();
        for (index_t lane = 0; lane < lanes; ++lane) {
          const T v = gsrc[lane * matrix_stride + j * ld + i];
          if constexpr (is_complex_v<T>) {
            blk[lane] = v.real();
            blk[pw + lane] = v.imag();
          } else {
            blk[lane] = v;
          }
        }
        for (index_t lane = lanes; lane < pw; ++lane) {
          blk[lane] = R(0);
          if constexpr (is_complex_v<T>) {
            blk[pw + lane] = R(0);
          }
        }
      }
    }
  }
  return out;
}

/// Convert a compact batch back to one strided column-major array.
template <class T>
void from_compact(const CompactBuffer<T>& src, T* dst, index_t ld,
                  index_t matrix_stride) {
  using R = real_t<T>;
  IATF_CHECK(ld >= src.rows(), "from_compact: ld < rows");
  const index_t pw = src.pack_width();
  const index_t rows = src.rows();
  const index_t cols = src.cols();
  for (index_t g = 0; g < src.groups(); ++g) {
    const R* gdata = src.group_data(g);
    const index_t lanes =
        g * pw + pw <= src.batch() ? pw : src.batch() - g * pw;
    T* gdst = dst + g * pw * matrix_stride;
    for (index_t j = 0; j < cols; ++j) {
      for (index_t i = 0; i < rows; ++i) {
        const R* blk = gdata + (j * rows + i) * src.element_stride();
        for (index_t lane = 0; lane < lanes; ++lane) {
          if constexpr (is_complex_v<T>) {
            gdst[lane * matrix_stride + j * ld + i] =
                T(blk[lane], blk[pw + lane]);
          } else {
            gdst[lane * matrix_stride + j * ld + i] = blk[lane];
          }
        }
      }
    }
  }
}

} // namespace iatf
