// Blocked batched compact factorisations (iatf::factor).
//
// Each routine is the textbook blocked right-looking algorithm lifted
// onto the interleaved compact layout: every scalar operation becomes one
// vector operation across the P interleaved matrices (kreg hides the
// real/complex register difference), so the whole batch factors in
// lockstep with full SIMD utilisation and the data never leaves the
// packed layout between the panel-factor, compact-TRSM and compact-GEMM
// steps. Divisions by pivots/diagonals are one reciprocal followed by
// multiplies (the paper's reciprocal-diagonal trick, section 4.4).
//
// The panel width balances the unblocked panel's O(m * nb^2) flops
// against the GEMM-update step that amortises them: below ~12 the whole
// matrix is one panel (the update steps would be empty), above it an
// 8-wide panel keeps the working set of the panel columns in registers /
// L1 while the rank-8 trailing update runs at GEMM intensity.
//
// The stream's queue steps are the outer column iterations of every
// phase (factor_steps counts them); each calls next.step() once, so a
// streaming plan spreads the next group's prefetches over the sweep.
#include "iatf/factor/factor_plan.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <limits>

#include "iatf/common/error.hpp"
#include "iatf/kernels/kreg.hpp"

namespace iatf::factor {
namespace {

/// Element block (i, j) of an m x m compact matrix group.
template <class T, int Bytes>
inline real_t<T>* blk(real_t<T>* base, index_t m, index_t i, index_t j) {
  return base + (j * m + i) * kernels::kreg<T, Bytes>::stride;
}

/// Scan one diagonal element block for bad pivots across the live lanes
/// and substitute 1 for each so the remaining lanes factor unperturbed.
/// `positive` selects the Cholesky predicate (the value must be a normal
/// positive real); otherwise any normal nonzero magnitude passes. Pad
/// lanes (>= lanes) are never flagged -- pad_identity() keeps them
/// finite and their contents are dead.
template <class T>
void scan_pivot_block(real_t<T>* p, index_t pw, index_t lanes,
                      index_t lane_base, bool positive,
                      HealthRecorder& rec) {
  using R = real_t<T>;
  constexpr R kTiny = std::numeric_limits<R>::min();
  for (index_t l = 0; l < lanes; ++l) {
    bool bad;
    if constexpr (is_complex_v<T>) {
      const R re = p[l];
      const R im = p[pw + l];
      if (positive) {
        // Cholesky diagonals are mathematically real and must be
        // positive; the imaginary plane only needs to be finite.
        bad = !(re >= kTiny) || !std::isfinite(re) || !std::isfinite(im);
      } else {
        bad = !(std::abs(re) + std::abs(im) >= kTiny) ||
              !std::isfinite(re) || !std::isfinite(im);
      }
    } else {
      const R v = p[l];
      bad = positive ? (!(v >= kTiny) || !std::isfinite(v))
                     : (!(std::abs(v) >= kTiny) || !std::isfinite(v));
    }
    if (bad) {
      rec.note_singular(lane_base + l);
      p[l] = R(1);
      if constexpr (is_complex_v<T>) {
        p[pw + l] = R(0);
      }
    }
  }
}

/// Blocked right-looking Cholesky (lower) of one interleave group.
template <class T, int Bytes, class Cursor>
void potrf_group(real_t<T>* data, index_t m, index_t nb, index_t pw,
                 index_t lanes, index_t lane_base, HealthRecorder* rec,
                 Cursor& next) {
  using K = kernels::kreg<T, Bytes>;
  const auto at = [&](index_t i, index_t j) {
    return blk<T, Bytes>(data, m, i, j);
  };
  for (index_t k0 = 0; k0 < m; k0 += nb) {
    const index_t kend = std::min<index_t>(m, k0 + nb);
    // 1. Panel factor: unblocked Cholesky of the diagonal block (the
    // trailing updates of earlier panels have already been applied, so
    // only columns inside the panel are referenced).
    for (index_t j = k0; j < kend; ++j) {
      next.step();
      auto d = K::load(at(j, j));
      for (index_t k = k0; k < j; ++k) {
        const auto ljk = K::load(at(j, k));
        d = K::fms_conj(d, ljk, ljk);
      }
      d.store(at(j, j));
      if (rec != nullptr) {
        scan_pivot_block<T>(at(j, j), pw, lanes, lane_base,
                            /*positive=*/true, *rec);
      }
      d = K::sqrt(K::load(at(j, j)));
      d.store(at(j, j));
      const auto rinv = K::recip(d);
      for (index_t i = j + 1; i < kend; ++i) {
        auto v = K::load(at(i, j));
        for (index_t k = k0; k < j; ++k) {
          v = K::fms_conj(v, K::load(at(i, k)), K::load(at(j, k)));
        }
        K::mul(v, rinv).store(at(i, j));
      }
    }
    // 2. Compact TRSM step: L21 = A21 * L11^{-H}, forward substitution
    // column by column with the panel's reciprocal diagonals.
    for (index_t j = k0; j < kend; ++j) {
      next.step();
      const auto rinv = K::recip(K::load(at(j, j)));
      for (index_t i = kend; i < m; ++i) {
        auto v = K::load(at(i, j));
        for (index_t k = k0; k < j; ++k) {
          v = K::fms_conj(v, K::load(at(i, k)), K::load(at(j, k)));
        }
        K::mul(v, rinv).store(at(i, j));
      }
    }
    // 3. Compact GEMM update: trailing lower triangle A22 -= L21 * L21^H.
    for (index_t j = kend; j < m; ++j) {
      next.step();
      for (index_t i = j; i < m; ++i) {
        auto acc = K::load(at(i, j));
        for (index_t k = k0; k < kend; ++k) {
          acc = K::fms_conj(acc, K::load(at(i, k)), K::load(at(j, k)));
        }
        acc.store(at(i, j));
      }
    }
  }
}

/// Blocked right-looking unpivoted LU of one interleave group.
template <class T, int Bytes, class Cursor>
void getrf_np_group(real_t<T>* data, index_t m, index_t nb, index_t pw,
                    index_t lanes, index_t lane_base, HealthRecorder* rec,
                    Cursor& next) {
  using K = kernels::kreg<T, Bytes>;
  const auto at = [&](index_t i, index_t j) {
    return blk<T, Bytes>(data, m, i, j);
  };
  for (index_t k0 = 0; k0 < m; k0 += nb) {
    const index_t kend = std::min<index_t>(m, k0 + nb);
    // 1. Panel factor on columns [k0, kend), all rows below: scale the
    // pivot column, rank-1 update restricted to the panel.
    for (index_t k = k0; k < kend; ++k) {
      next.step();
      if (rec != nullptr) {
        scan_pivot_block<T>(at(k, k), pw, lanes, lane_base,
                            /*positive=*/false, *rec);
      }
      const auto rinv = K::recip(K::load(at(k, k)));
      for (index_t i = k + 1; i < m; ++i) {
        K::mul(K::load(at(i, k)), rinv).store(at(i, k));
      }
      for (index_t j = k + 1; j < kend; ++j) {
        const auto akj = K::load(at(k, j));
        for (index_t i = k + 1; i < m; ++i) {
          K::fms(K::load(at(i, j)), K::load(at(i, k)), akj)
              .store(at(i, j));
        }
      }
    }
    // 2. Compact TRSM step: A12 <- unit-L11^{-1} * A12, forward
    // substitution down the panel rows.
    for (index_t j = kend; j < m; ++j) {
      next.step();
      for (index_t k = k0 + 1; k < kend; ++k) {
        auto acc = K::load(at(k, j));
        for (index_t i = k0; i < k; ++i) {
          acc = K::fms(acc, K::load(at(k, i)), K::load(at(i, j)));
        }
        acc.store(at(k, j));
      }
    }
    // 3. Compact GEMM update: A22 -= L21 * U12.
    for (index_t j = kend; j < m; ++j) {
      next.step();
      for (index_t i = kend; i < m; ++i) {
        auto acc = K::load(at(i, j));
        for (index_t k = k0; k < kend; ++k) {
          acc = K::fms(acc, K::load(at(i, k)), K::load(at(k, j)));
        }
        acc.store(at(i, j));
      }
    }
  }
}

/// In-place triangular inverse of one interleave group (LAPACK trti2
/// lifted across lanes). Lower runs right-to-left so the trailing
/// submatrix already holds inv(L22) when column j's triangular
/// matrix-vector product runs; upper mirrors it left-to-right.
template <class T, int Bytes, class Cursor>
void trtri_group(real_t<T>* data, index_t m, Uplo uplo, Diag diag,
                 index_t pw, index_t lanes, index_t lane_base,
                 HealthRecorder* rec, Cursor& next) {
  using K = kernels::kreg<T, Bytes>;
  const auto at = [&](index_t i, index_t j) {
    return blk<T, Bytes>(data, m, i, j);
  };
  const bool nonunit = diag == Diag::NonUnit;
  if (uplo == Uplo::Lower) {
    for (index_t j = m - 1; j >= 0; --j) {
      next.step();
      if (nonunit) {
        if (rec != nullptr) {
          scan_pivot_block<T>(at(j, j), pw, lanes, lane_base,
                              /*positive=*/false, *rec);
        }
        K::recip(K::load(at(j, j))).store(at(j, j));
      }
      for (index_t i = m - 1; i > j; --i) {
        auto acc = nonunit ? K::mul(K::load(at(i, i)), K::load(at(i, j)))
                           : K::load(at(i, j));
        for (index_t k = j + 1; k < i; ++k) {
          acc = K::fma(acc, K::load(at(i, k)), K::load(at(k, j)));
        }
        acc.store(at(i, j));
      }
      if (nonunit) {
        const auto ajj = K::scale(T(-1), K::load(at(j, j)));
        for (index_t i = j + 1; i < m; ++i) {
          K::mul(K::load(at(i, j)), ajj).store(at(i, j));
        }
      } else {
        for (index_t i = j + 1; i < m; ++i) {
          K::scale(T(-1), K::load(at(i, j))).store(at(i, j));
        }
      }
    }
  } else {
    for (index_t j = 0; j < m; ++j) {
      next.step();
      if (nonunit) {
        if (rec != nullptr) {
          scan_pivot_block<T>(at(j, j), pw, lanes, lane_base,
                              /*positive=*/false, *rec);
        }
        K::recip(K::load(at(j, j))).store(at(j, j));
      }
      for (index_t i = 0; i < j; ++i) {
        auto acc = nonunit ? K::mul(K::load(at(i, i)), K::load(at(i, j)))
                           : K::load(at(i, j));
        for (index_t k = i + 1; k < j; ++k) {
          acc = K::fma(acc, K::load(at(i, k)), K::load(at(k, j)));
        }
        acc.store(at(i, j));
      }
      if (nonunit) {
        const auto ajj = K::scale(T(-1), K::load(at(j, j)));
        for (index_t i = 0; i < j; ++i) {
          K::mul(K::load(at(i, j)), ajj).store(at(i, j));
        }
      } else {
        for (index_t i = 0; i < j; ++i) {
          K::scale(T(-1), K::load(at(i, j))).store(at(i, j));
        }
      }
    }
  }
}

/// Queue steps of one group: the next.step() calls the group routine
/// makes (one per outer column iteration of each phase).
index_t factor_steps(FactorOp op, index_t m, index_t nb) {
  if (op == FactorOp::Trtri) {
    return m;
  }
  index_t steps = 0;
  for (index_t k0 = 0; k0 < m; k0 += nb) {
    const index_t panel = std::min<index_t>(m, k0 + nb) - k0;
    const index_t trailing = m - k0 - panel;
    steps += op == FactorOp::Potrf ? 2 * panel + trailing
                                   : panel + 2 * trailing;
  }
  return steps;
}

} // namespace

template <class T, int Bytes>
FactorPlan<T, Bytes>::FactorPlan(const FactorShape& shape,
                                 const CacheInfo& cache)
    : Base("factor", plan::PlanTuning{}, shape.batch), shape_(shape) {
  IATF_CHECK(shape.m >= 0 && shape.batch >= 0,
             "FactorPlan: negative dimension");
  this->idle_ = shape.m == 0 || shape.batch == 0;
  if (shape.op == FactorOp::Trtri) {
    nb_ = 0; // single register sweep, no panels
  } else {
    nb_ = shape.m <= 12 ? std::max<index_t>(shape.m, 1) : 8;
  }
  // Next-group stream over the column steps: the region the routine
  // rewrites in place (the lower triangle for Cholesky, the stored
  // triangle for Trtri, everything for LU), with write intent.
  using K = kernels::kreg<T, Bytes>;
  const auto elem_bytes = static_cast<std::size_t>(K::stride) *
                          sizeof(real_t<T>);
  const auto m = static_cast<std::size_t>(shape.m);
  const std::size_t a_bytes = m * m * elem_bytes;
  const auto groups =
      static_cast<std::size_t>((shape.batch + K::pack - 1) / K::pack);
  if (plan::stream_next_group(a_bytes, groups * a_bytes, cache)) {
    std::vector<plan::GroupStream::Segment> segments;
    if (shape.op == FactorOp::GetrfNp) {
      segments.push_back({0, 0, a_bytes, true});
    } else {
      segments = plan::triangle_segments(
          0, m, elem_bytes,
          shape.op == FactorOp::Potrf || shape.uplo == Uplo::Lower, true);
    }
    this->stream_ = plan::GroupStream(
        segments,
        static_cast<std::size_t>(factor_steps(shape.op, shape.m, nb_)));
  }
}

template <class T, int Bytes>
void FactorPlan<T, Bytes>::check_operands(const FactorShape& s,
                                          const CompactBuffer<T>& a) {
  IATF_CHECK(a.rows() == s.m && a.cols() == s.m,
             "factor: matrices must be square and match the call");
  IATF_CHECK(a.batch() == s.batch, "factor: batch does not match");
  IATF_CHECK(a.pack_width() == Base::pack_width(),
             "factor: operand pack width does not match the plan");
}

template <class T, int Bytes>
void FactorPlan<T, Bytes>::execute_range(CompactBuffer<T>& a,
                                         index_t g_begin, index_t g_end,
                                         HealthRecorder* rec,
                                         const Deadline* deadline) const {
  check_operands(shape_, a);
  const index_t pw = Base::pack_width();
  this->walk(
      this->stream_, a.groups(), g_begin, g_end, deadline,
      [&](index_t g) { return std::array<const void*, 1>{a.group_data(g)}; },
      [](const auto&) {},
      [&](const auto&, index_t g, auto& next) {
        real_t<T>* data = a.group_data(g);
        const index_t lanes = this->live_lanes(g);
        switch (shape_.op) {
        case FactorOp::Potrf:
          potrf_group<T, Bytes>(data, shape_.m, nb_, pw, lanes, g * pw, rec,
                                next);
          break;
        case FactorOp::GetrfNp:
          getrf_np_group<T, Bytes>(data, shape_.m, nb_, pw, lanes, g * pw,
                                   rec, next);
          break;
        case FactorOp::Trtri:
          trtri_group<T, Bytes>(data, shape_.m, shape_.uplo, shape_.diag, pw,
                                lanes, g * pw, rec, next);
          break;
        }
      });
}

template <class T, int Bytes>
double FactorPlan<T, Bytes>::flops() const noexcept {
  const double m = static_cast<double>(shape_.m);
  double per = m * m * m / 3.0;
  if (shape_.op == FactorOp::GetrfNp) {
    per = 2.0 * m * m * m / 3.0;
  }
  if constexpr (is_complex_v<T>) {
    per *= 4.0;
  }
  return per * static_cast<double>(shape_.batch);
}

#define IATF_INSTANTIATE_FACTOR_PLAN(T, Bytes)                               \
  template class FactorPlan<T, Bytes>;

IATF_INSTANTIATE_FACTOR_PLAN(float, 16)
IATF_INSTANTIATE_FACTOR_PLAN(double, 16)
IATF_INSTANTIATE_FACTOR_PLAN(std::complex<float>, 16)
IATF_INSTANTIATE_FACTOR_PLAN(std::complex<double>, 16)
IATF_INSTANTIATE_FACTOR_PLAN(float, 32)
IATF_INSTANTIATE_FACTOR_PLAN(double, 32)
IATF_INSTANTIATE_FACTOR_PLAN(std::complex<float>, 32)
IATF_INSTANTIATE_FACTOR_PLAN(std::complex<double>, 32)
IATF_INSTANTIATE_FACTOR_PLAN(float, 64)
IATF_INSTANTIATE_FACTOR_PLAN(double, 64)
IATF_INSTANTIATE_FACTOR_PLAN(std::complex<float>, 64)
IATF_INSTANTIATE_FACTOR_PLAN(std::complex<double>, 64)

#undef IATF_INSTANTIATE_FACTOR_PLAN

} // namespace iatf::factor
