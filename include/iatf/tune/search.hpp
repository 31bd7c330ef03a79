// Empirical search over the residual parameter space the analytical
// model leaves open: pack/no-pack per operand, batch-slice size around
// the Batch Counter's L1 prediction, kernel-variant (tile, block and
// panel cap) choice from the registry, and thread-pool chunk
// granularity.
//
// The search is a one-step neighbourhood of the analytical plan: the
// anchor is the CMAR-derived default (kernels/cmar.hpp) the untuned
// engine would build, and every other candidate changes exactly one of
// its fields. No model ranks them; every candidate is timed. Each is
// first correctness-checked against the scalar reference, then timed
// round-robin -- repetition r of every candidate before repetition r+1,
// the written operand restored before each run -- and scored by its
// median. The anchor is timed with the others, so the winner is never
// slower than the untuned plan within one measurement session.
#pragma once

#include <vector>

#include "iatf/common/cache_info.hpp"
#include "iatf/common/types.hpp"
#include "iatf/parallel/thread_pool.hpp"
#include "iatf/plan/batch_counter.hpp"
#include "iatf/tune/tuning_table.hpp"

namespace iatf::tune {

/// Search budget and measurement settings.
struct TuneOptions {
  index_t batch = 256;  ///< measurement batch (rounded up to whole groups)
  int reps = 5;         ///< timed repetitions per candidate (median)
  ThreadPool* pool = nullptr;     ///< when set, chunk granularity joins
                                  ///< the space and timing uses the pool
  std::uint64_t seed = 0x1a7fu;   ///< measurement-data RNG seed
};

/// One point of the search space.
struct Candidate {
  plan::PlanTuning tuning;
  double gflops = 0.0;       ///< measured; 0 until timed
  bool analytical = false;   ///< the anchor: the untuned default plan
};

/// Enumerate the candidates of a descriptor: the analytical anchor first,
/// then every move that changes one of its fields -- pack_a, pack_b,
/// tile or block cap, panel cap, slice, or chunk (the last only with a
/// pool). A move that builds the anchor's plan under another value is
/// left out. Every tuning field is explicit (no "auto" values) so
/// records round-trip bit-identically.
template <class T, int Bytes = 16>
std::vector<Candidate> gemm_candidates(const GemmShape& shape,
                                       const CacheInfo& cache,
                                       const TuneOptions& opts = {});
template <class T, int Bytes = 16>
std::vector<Candidate> trsm_candidates(const TrsmShape& shape,
                                       const CacheInfo& cache,
                                       const TuneOptions& opts = {});

/// Tune one descriptor: enumerate, time every candidate, and return the
/// winning record (winner >= analytical baseline by construction -- the
/// baseline is always timed too).
template <class T, int Bytes = 16>
TuneRecord tune_gemm(const GemmShape& shape, const CacheInfo& cache,
                     const TuneOptions& opts = {});
template <class T, int Bytes = 16>
TuneRecord tune_trsm(const TrsmShape& shape, const CacheInfo& cache,
                     const TuneOptions& opts = {});

/// A tuned record with the key it was timed under.
struct TunedRecord {
  sched::ClassKey key; ///< tune_key: batch 0
  TuneRecord record;
};

/// Runtime-dtype dispatch for the C API and the offline tuner CLI: tune
/// at the active backend's register width (simd::active_pack_width, the
/// width C buffers are created at) and return the record with its key,
/// so the record reaches the calls it was timed for. Throws
/// Status::InvalidArg for an unknown dtype tag.
TunedRecord tune_gemm_dyn(char dtype, const GemmShape& shape,
                          const CacheInfo& cache, const TuneOptions& opts);
TunedRecord tune_trsm_dyn(char dtype, const TrsmShape& shape,
                          const CacheInfo& cache, const TuneOptions& opts);

} // namespace iatf::tune
