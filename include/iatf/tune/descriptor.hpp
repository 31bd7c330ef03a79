// Canonical input descriptors and the hardware signature for the
// empirical autotuner (iatf::tune).
//
// The paper's run-time stage keys its execution plans on the input matrix
// properties; the tuner keys its persistent records the same way, minus
// the batch length: the batch counter already normalises the batch into
// L1-sized slices of whole interleave groups, so a tuned parameter set is
// a property of the per-matrix problem, not of how many matrices arrive.
// Records additionally carry a hardware signature so a tuning table
// copied to a different machine degrades to the analytical model instead
// of applying stale measurements.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "iatf/common/cache_info.hpp"
#include "iatf/common/types.hpp"
#include "iatf/sched/group_scheduler.hpp"

namespace iatf::tune {

/// Canonical descriptor of one tunable problem class (GEMM or TRSM).
struct TuneKey {
  char op = 'g';    ///< 'g' = GEMM, 't' = TRSM
  char dtype = 's'; ///< s, d, c or z
  int bytes = 16;   ///< SIMD register width of the kernel set
  index_t m = 0, n = 0, k = 0;
  std::uint8_t op_a = 0, op_b = 0, side = 0, uplo = 0, diag = 0;

  friend bool operator==(const TuneKey&, const TuneKey&) = default;
};

struct TuneKeyHash {
  std::size_t operator()(const TuneKey& key) const noexcept;
};

/// A size class (sched::class_key) as a tuning key: batch dropped,
/// dtype tag and register width added. The one place a TuneKey is
/// assembled from descriptor fields.
TuneKey tune_key(const sched::ClassKey& cls, char dtype, int bytes);

/// Keys for the two descriptor kinds (batch deliberately dropped).
template <class T, int Bytes = 16> TuneKey gemm_key(const GemmShape& shape) {
  return tune_key(sched::class_key(shape), blas_prefix_v<T>[0], Bytes);
}

template <class T, int Bytes = 16> TuneKey trsm_key(const TrsmShape& shape) {
  return tune_key(sched::class_key(shape), blas_prefix_v<T>[0], Bytes);
}

/// One-line human-readable rendering (also the table file's key fields).
std::string to_string(const TuneKey& key);

/// Serialise/parse the key as the leading fields of one table record
/// line. parse_key returns false on malformed input without throwing.
void write_key(std::ostream& out, const TuneKey& key);
bool parse_key(std::istream& in, TuneKey& key);

/// Single-token signature of the tuning-relevant hardware: architecture,
/// CPU model, cache sizes. Tables recorded under a different signature
/// are ignored at load time (the analytical model is the fallback).
std::string hardware_signature(const CacheInfo& cache);

} // namespace iatf::tune
