// Persistent packed layouts and fused batched factorisations: the engine
// entry points behind PackedHandle and potrf/getrf_nopiv/trtri_batch
// (DESIGN.md section 13).
//
// Layout propagation lives here: the packed-handle overloads feed the
// handles' storage to the shared call pipeline, so a chain of handle
// calls touches interleaved storage end-to-end with exactly one pack at
// the front and one unpack at the back. A plan is built from the
// descriptor alone, so handle and raw-buffer calls of one descriptor
// share its plan-cache entry and breaker slot. The engine counts both
// sides (packed_reuse_hits / packed_repacks) so the payoff is observable.
//
// Factorisations run the same pipeline as GEMM/TRSM (engine.cpp) through
// detail::FactorOp (engine_ops.hpp): non-SPD / hard-singular lanes are
// flagged and (under Fallback) ref-repaired or restored to their
// original input instead of poisoning the rest of the batch.
#include <complex>
#include <vector>

#include "engine_ops.hpp"

namespace iatf {

// --- Persistent packed layouts -------------------------------------------

template <class T>
factor::PackedHandle<T> Engine::pack(const T* src, index_t rows,
                                     index_t cols, index_t ld,
                                     index_t matrix_stride, index_t batch,
                                     index_t pack_width) {
  IATF_CHECK(src != nullptr || batch == 0, "pack: null source");
  IATF_CHECK(matrix_stride >= 0, "pack: negative matrix stride");
  CompactBuffer<T> buf =
      to_compact(src, rows, cols, ld, matrix_stride, batch, pack_width);
  packed_repacks_.fetch_add(1, std::memory_order_relaxed);
  return factor::PackedHandle<T>(std::move(buf));
}

template <class T>
factor::PackedHandle<T> Engine::adopt_packed(CompactBuffer<T> buf) {
  return factor::PackedHandle<T>(std::move(buf));
}

template <class T>
void Engine::repack(factor::PackedHandle<T>& handle, const T* src,
                    index_t ld, index_t matrix_stride) {
  IATF_CHECK(handle.valid(), "repack: invalid packed handle");
  IATF_CHECK(src != nullptr || handle.batch() == 0, "repack: null source");
  IATF_CHECK(matrix_stride >= 0, "repack: negative matrix stride");
  CompactBuffer<T>& buf = handle.buffer();
  for (index_t b = 0; b < buf.batch(); ++b) {
    buf.import_colmajor(b, src + b * matrix_stride, ld);
  }
  packed_repacks_.fetch_add(1, std::memory_order_relaxed);
  handle.bump_epoch();
}

template <class T>
void Engine::unpack(const factor::PackedHandle<T>& handle, T* dst,
                    index_t ld, index_t matrix_stride) {
  IATF_CHECK(handle.valid(), "unpack: invalid packed handle");
  IATF_CHECK(dst != nullptr || handle.batch() == 0,
             "unpack: null destination");
  IATF_CHECK(matrix_stride >= 0, "unpack: negative matrix stride");
  from_compact(handle.buffer(), dst, ld, matrix_stride);
}

template <class T, int Bytes>
BatchHealth Engine::gemm(Op op_a, Op op_b, T alpha,
                         const factor::PackedHandle<T>& a,
                         const factor::PackedHandle<T>& b, T beta,
                         factor::PackedHandle<T>& c) {
  IATF_CHECK(a.valid() && b.valid() && c.valid(),
             "gemm: invalid packed handle");
  packed_reuse_hits_.fetch_add(3, std::memory_order_relaxed);
  BatchHealth health = run_one<detail::GemmOp<T, Bytes>>(
      {op_a, op_b, alpha, beta, &a.buffer(), &b.buffer(), &c.buffer()});
  c.bump_epoch();
  return health;
}

template <class T, int Bytes>
BatchHealth Engine::trsm(Side side, Uplo uplo, Op op_a, Diag diag, T alpha,
                         const factor::PackedHandle<T>& a,
                         factor::PackedHandle<T>& b) {
  IATF_CHECK(a.valid() && b.valid(), "trsm: invalid packed handle");
  packed_reuse_hits_.fetch_add(2, std::memory_order_relaxed);
  BatchHealth health = run_one<detail::TrsmOp<T, Bytes>>(
      {side, uplo, op_a, diag, alpha, &a.buffer(), &b.buffer()});
  b.bump_epoch();
  return health;
}

// --- Fused batched factorisations ----------------------------------------

template <class T, int Bytes>
BatchHealth Engine::potrf_batch(CompactBuffer<T>& a) {
  return run_one<detail::FactorOp<T, Bytes>>(
      {factor::FactorOp::Potrf, Uplo::Lower, Diag::NonUnit, &a});
}

template <class T, int Bytes>
BatchHealth Engine::getrf_nopiv_batch(CompactBuffer<T>& a) {
  return run_one<detail::FactorOp<T, Bytes>>(
      {factor::FactorOp::GetrfNp, Uplo::Lower, Diag::NonUnit, &a});
}

template <class T, int Bytes>
BatchHealth Engine::trtri_batch(Uplo uplo, Diag diag, CompactBuffer<T>& a) {
  return run_one<detail::FactorOp<T, Bytes>>(
      {factor::FactorOp::Trtri, uplo, diag, &a});
}

template <class T, int Bytes>
BatchHealth Engine::potrf_batch(factor::PackedHandle<T>& a) {
  IATF_CHECK(a.valid(), "potrf_batch: invalid packed handle");
  packed_reuse_hits_.fetch_add(1, std::memory_order_relaxed);
  BatchHealth health = run_one<detail::FactorOp<T, Bytes>>(
      {factor::FactorOp::Potrf, Uplo::Lower, Diag::NonUnit, &a.buffer()});
  a.bump_epoch();
  return health;
}

template <class T, int Bytes>
BatchHealth Engine::getrf_nopiv_batch(factor::PackedHandle<T>& a) {
  IATF_CHECK(a.valid(), "getrf_nopiv_batch: invalid packed handle");
  packed_reuse_hits_.fetch_add(1, std::memory_order_relaxed);
  BatchHealth health = run_one<detail::FactorOp<T, Bytes>>(
      {factor::FactorOp::GetrfNp, Uplo::Lower, Diag::NonUnit, &a.buffer()});
  a.bump_epoch();
  return health;
}

template <class T, int Bytes>
BatchHealth Engine::trtri_batch(Uplo uplo, Diag diag,
                                factor::PackedHandle<T>& a) {
  IATF_CHECK(a.valid(), "trtri_batch: invalid packed handle");
  packed_reuse_hits_.fetch_add(1, std::memory_order_relaxed);
  BatchHealth health = run_one<detail::FactorOp<T, Bytes>>(
      {factor::FactorOp::Trtri, uplo, diag, &a.buffer()});
  a.bump_epoch();
  return health;
}

template <class T, int Bytes>
std::vector<BatchHealth>
Engine::factor_grouped(std::span<const sched::FactorSegment<T>> segments) {
  return grouped<detail::FactorOp<T, Bytes>>(segments);
}

// --- Explicit instantiations ---------------------------------------------

#define IATF_INSTANTIATE_ENGINE_PACK(T)                                       \
  template factor::PackedHandle<T> Engine::pack<T>(                           \
      const T*, index_t, index_t, index_t, index_t, index_t, index_t);        \
  template factor::PackedHandle<T> Engine::adopt_packed<T>(CompactBuffer<T>); \
  template void Engine::repack<T>(factor::PackedHandle<T>&, const T*,         \
                                  index_t, index_t);                          \
  template void Engine::unpack<T>(const factor::PackedHandle<T>&, T*,         \
                                  index_t, index_t);

#define IATF_INSTANTIATE_ENGINE_FACTOR(T, Bytes)                              \
  template BatchHealth Engine::gemm<T, Bytes>(                                \
      Op, Op, T, const factor::PackedHandle<T>&,                              \
      const factor::PackedHandle<T>&, T, factor::PackedHandle<T>&);           \
  template BatchHealth Engine::trsm<T, Bytes>(                                \
      Side, Uplo, Op, Diag, T, const factor::PackedHandle<T>&,                \
      factor::PackedHandle<T>&);                                              \
  template BatchHealth Engine::potrf_batch<T, Bytes>(CompactBuffer<T>&);      \
  template BatchHealth Engine::potrf_batch<T, Bytes>(                         \
      factor::PackedHandle<T>&);                                              \
  template BatchHealth Engine::getrf_nopiv_batch<T, Bytes>(                   \
      CompactBuffer<T>&);                                                     \
  template BatchHealth Engine::getrf_nopiv_batch<T, Bytes>(                   \
      factor::PackedHandle<T>&);                                              \
  template BatchHealth Engine::trtri_batch<T, Bytes>(Uplo, Diag,              \
                                                     CompactBuffer<T>&);      \
  template BatchHealth Engine::trtri_batch<T, Bytes>(                         \
      Uplo, Diag, factor::PackedHandle<T>&);                                  \
  template std::vector<BatchHealth> Engine::factor_grouped<T, Bytes>(         \
      std::span<const sched::FactorSegment<T>>);

IATF_INSTANTIATE_ENGINE_PACK(float)
IATF_INSTANTIATE_ENGINE_PACK(double)
IATF_INSTANTIATE_ENGINE_PACK(std::complex<float>)
IATF_INSTANTIATE_ENGINE_PACK(std::complex<double>)

IATF_INSTANTIATE_ENGINE_FACTOR(float, 16)
IATF_INSTANTIATE_ENGINE_FACTOR(double, 16)
IATF_INSTANTIATE_ENGINE_FACTOR(std::complex<float>, 16)
IATF_INSTANTIATE_ENGINE_FACTOR(std::complex<double>, 16)
IATF_INSTANTIATE_ENGINE_FACTOR(float, 32)
IATF_INSTANTIATE_ENGINE_FACTOR(double, 32)
IATF_INSTANTIATE_ENGINE_FACTOR(std::complex<float>, 32)
IATF_INSTANTIATE_ENGINE_FACTOR(std::complex<double>, 32)
IATF_INSTANTIATE_ENGINE_FACTOR(float, 64)
IATF_INSTANTIATE_ENGINE_FACTOR(double, 64)
IATF_INSTANTIATE_ENGINE_FACTOR(std::complex<float>, 64)
IATF_INSTANTIATE_ENGINE_FACTOR(std::complex<double>, 64)

#undef IATF_INSTANTIATE_ENGINE_PACK
#undef IATF_INSTANTIATE_ENGINE_FACTOR

} // namespace iatf
