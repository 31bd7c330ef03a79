// Compact-layout extensions beyond the paper's GEMM/TRSM -- the future
// work its conclusion names: "the kernel design and optimization of other
// BLAS functions under the SIMD-friendly data layout". TRMM mirrors
// Intel's mkl_?trmm_compact:
//
//  * compact_trmm     -- triangular matrix multiply, all 16 mode
//                        combinations via the same canonicalisation as
//                        TRSM, register-resident triangular kernels plus
//                        GEMM rectangular updates.
//  * compact_getrs_np -- convenience solve using unpivoted LU factors
//                        (two compact TRSMs).
//
// The factorisations themselves (Cholesky, unpivoted LU, triangular
// inverse) have one implementation: the engine's fused, hazard-checked
// potrf_batch / getrf_nopiv_batch / trtri_batch (iatf/factor/factor.hpp).
//
// All routines are width-dispatching: the kernel class (128/256/512-bit
// backend) follows the buffers' pack width, as with the engine entry
// points. Unsupported widths are refused with Status::Unsupported.
#pragma once

#include "iatf/layout/compact.hpp"

namespace iatf::ext {

/// B = alpha * op(tri(A)) * B (Left) or alpha * B * op(tri(A)) (Right),
/// in place on B, for every matrix in the batch.
template <class T>
void compact_trmm(Side side, Uplo uplo, Op op_a, Diag diag, T alpha,
                  const CompactBuffer<T>& a, CompactBuffer<T>& b);

/// Solve A X = B for every matrix using an unpivoted LU factorisation of
/// A (Engine::getrf_nopiv_batch): forward substitution with the
/// unit-lower L then back substitution with U. B is overwritten by X.
template <class T>
void compact_getrs_np(const CompactBuffer<T>& lu, CompactBuffer<T>& b);

} // namespace iatf::ext
