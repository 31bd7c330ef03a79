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

/// A descriptor class (sched::class_key) as a tuning key: the same
/// ClassKey with batch 0. Tables key on it and hash it with
/// sched::ClassKeyHash; op is 'g' (GEMM), 't' (TRSM) or 'm' (TRMM).
inline sched::ClassKey tune_key(sched::ClassKey key) {
  key.batch = 0;
  return key;
}

/// Keys for the two descriptor kinds (batch deliberately dropped).
template <class T, int Bytes = 16>
sched::ClassKey gemm_key(const GemmShape& shape) {
  return tune_key(sched::class_key<T>(shape, Bytes));
}

template <class T, int Bytes = 16>
sched::ClassKey trsm_key(const TrsmShape& shape) {
  return tune_key(sched::class_key<T>(shape, Bytes));
}

/// One-line human-readable rendering (also the table file's key fields).
std::string to_string(const sched::ClassKey& key);

/// Serialise/parse a tuning key as the leading fields of one table
/// record line (every field but the batch). parse_key returns false on
/// malformed input without throwing, and yields a key with batch 0.
void write_key(std::ostream& out, const sched::ClassKey& key);
bool parse_key(std::istream& in, sched::ClassKey& key);

/// Single-token signature of the tuning-relevant hardware: architecture,
/// CPU model, cache sizes. Tables recorded under a different signature
/// are ignored at load time (the analytical model is the fallback).
std::string hardware_signature(const CacheInfo& cache);

} // namespace iatf::tune
