// Convenience front end: compact batched BLAS free functions over the
// process-wide default Engine. This is the API the examples and benchmark
// harness call; applications wanting their own tuning parameters or plan
// cache construct an iatf::Engine instead.
//
// These entry points are width-dispatching: the kernel class (128/256/
// 512-bit backend) is chosen from the output buffer's pack width, so a
// buffer created at the active ISA's width (e.g. through the C API)
// automatically runs on the matching backend. Buffers of a width with no
// instantiated kernel class are refused with Status::Unsupported.
#pragma once

#include "iatf/core/engine.hpp"
#include "iatf/core/width_dispatch.hpp"
#include "iatf/layout/compact.hpp"

namespace iatf {

/// C = alpha * op_a(A) * op_b(B) + beta * C for every matrix in the batch.
/// The health report is empty under the default ExecPolicy::Fast and safe
/// to ignore.
template <class T>
BatchHealth compact_gemm(Op op_a, Op op_b, T alpha,
                         const CompactBuffer<T>& a, const CompactBuffer<T>& b,
                         T beta, CompactBuffer<T>& c) {
  return dispatch_width<T>(c.pack_width(), [&](auto bytes) {
    return Engine::default_engine().gemm<T, decltype(bytes)::value>(
        op_a, op_b, alpha, a, b, beta, c);
  });
}

/// op_a(A) X = alpha B (Left) or X op_a(A) = alpha B (Right); B is
/// overwritten by X for every matrix in the batch.
template <class T>
BatchHealth compact_trsm(Side side, Uplo uplo, Op op_a, Diag diag, T alpha,
                         const CompactBuffer<T>& a, CompactBuffer<T>& b) {
  return dispatch_width<T>(b.pack_width(), [&](auto bytes) {
    return Engine::default_engine().trsm<T, decltype(bytes)::value>(
        side, uplo, op_a, diag, alpha, a, b);
  });
}

/// B = alpha * op_a(A) * B (Left) or alpha * B * op_a(A) (Right), A
/// triangular, in place on B for every matrix in the batch.
template <class T>
BatchHealth compact_trmm(Side side, Uplo uplo, Op op_a, Diag diag, T alpha,
                         const CompactBuffer<T>& a, CompactBuffer<T>& b) {
  return dispatch_width<T>(b.pack_width(), [&](auto bytes) {
    return Engine::default_engine().trmm<T, decltype(bytes)::value>(
        side, uplo, op_a, diag, alpha, a, b);
  });
}

/// Solve A X = B for every matrix with the unpivoted LU factors of A
/// (Engine::getrf_nopiv_batch): forward substitution with the unit-lower
/// L, then back substitution with U. B is overwritten by X. Returns the
/// two solves' reports merged, with `batch` counting each lane once: a
/// zero or non-finite U pivot shows as a singular lane.
template <class T>
BatchHealth compact_getrs_np(const CompactBuffer<T>& lu,
                             CompactBuffer<T>& b) {
  BatchHealth health = compact_trsm<T>(Side::Left, Uplo::Lower, Op::NoTrans,
                                       Diag::Unit, T(1), lu, b);
  const index_t lanes = health.batch;
  health.merge(compact_trsm<T>(Side::Left, Uplo::Upper, Op::NoTrans,
                               Diag::NonUnit, T(1), lu, b));
  health.batch = lanes; // both solves cover the same lanes
  return health;
}

/// Grouped GEMM over variable-size segments (one descriptor each); the
/// size-class scheduler shares one execution plan per distinct
/// descriptor. Returns one BatchHealth per segment, in call order.
/// All segments of one call must share a pack width: sched::width_of
/// picks the kernel class, and the engine refuses any other width.
template <class T>
std::vector<BatchHealth>
compact_gemm_grouped(std::span<const sched::GemmSegment<T>> segments) {
  return dispatch_bytes<T>(sched::width_of(segments), [&](auto bytes) {
    return Engine::default_engine().gemm_grouped<T, decltype(bytes)::value>(
        segments);
  });
}

/// Grouped TRSM over variable-size segments; see compact_gemm_grouped.
template <class T>
std::vector<BatchHealth>
compact_trsm_grouped(std::span<const sched::TrsmSegment<T>> segments) {
  return dispatch_bytes<T>(sched::width_of(segments), [&](auto bytes) {
    return Engine::default_engine().trsm_grouped<T, decltype(bytes)::value>(
        segments);
  });
}

} // namespace iatf
