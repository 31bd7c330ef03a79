// Compact batched solve with unpivoted LU factors: forward substitution
// with the unit-lower L, then back substitution with U, as two compact
// TRSMs. The factors come from the engine's getrf_nopiv_batch, the one
// factorisation implementation.
#include <complex>

#include "iatf/common/error.hpp"
#include "iatf/core/compact_blas.hpp"
#include "iatf/ext/compact_ext.hpp"

namespace iatf::ext {

template <class T>
void compact_getrs_np(const CompactBuffer<T>& lu, CompactBuffer<T>& b) {
  IATF_CHECK(lu.rows() == lu.cols(), "getrs_np: LU must be square");
  IATF_CHECK(lu.rows() == b.rows(), "getrs_np: dimension mismatch");
  // L y = b with the implied unit lower diagonal, then U x = y.
  compact_trsm<T>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::Unit, T(1),
                  lu, b);
  compact_trsm<T>(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit,
                  T(1), lu, b);
}

#define IATF_INSTANTIATE_GETRS(T)                                            \
  template void compact_getrs_np<T>(const CompactBuffer<T>&,                \
                                    CompactBuffer<T>&);

IATF_INSTANTIATE_GETRS(float)
IATF_INSTANTIATE_GETRS(double)
IATF_INSTANTIATE_GETRS(std::complex<float>)
IATF_INSTANTIATE_GETRS(std::complex<double>)

#undef IATF_INSTANTIATE_GETRS

} // namespace iatf::ext
