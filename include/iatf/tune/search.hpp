// Empirical search over the residual parameter space the analytical
// model leaves open: pack/no-pack per operand, batch-slice size around
// the Batch Counter's L1 prediction, kernel-variant (tile-cap) choice
// from the registry, and thread-pool chunk granularity.
//
// The search is model-guided in the paper's spirit: the install-time
// pipeline simulator scores every candidate's kernel stream first
// (cycles per madd, plus a packing-traffic proxy), and only the top-k
// ranked candidates are actually timed -- warmup plus median-of-reps on
// the wall clock, each candidate correctness-checked against the scalar
// reference before its time can count. The analytical default is always
// part of the timed set, so the winner is never slower than the untuned
// plan within one measurement session.
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
  int top_k = 8;        ///< candidates timed after simulator ranking;
                        ///< <= 0 times the whole space
  ThreadPool* pool = nullptr;     ///< when set, chunk granularity joins
                                  ///< the space and timing uses the pool
  std::uint64_t seed = 0x1a7fu;   ///< measurement-data RNG seed
};

/// One point of the search space with its simulator ranking.
struct Candidate {
  plan::PlanTuning tuning;
  double sim_score = 0.0;    ///< predicted cycles per madd (lower wins)
  double gflops = 0.0;       ///< measured; 0 until timed
  bool analytical = false;   ///< echo of the untuned default plan
};

/// The candidates a search times: the `opts.top_k` best ranked (all when
/// top_k <= 0) plus the analytical echo, the never-slower anchor.
std::vector<Candidate> timed_set(std::vector<Candidate> candidates,
                                 const TuneOptions& opts);

/// Simulated cycles per madd of the registry GEMM kernel for an mc x nc
/// tile at depth k (the optimizer-scheduled stream on the Kunpeng 920
/// model). Used to rank kernel-variant candidates before timing; returns
/// a large sentinel when the spec is outside the register budget.
double simulated_gemm_score(int mc, int nc, index_t k, int elem_bytes);

/// Enumerate the candidate space for a descriptor. Every tuning field is
/// explicit (no "auto" values) so records round-trip bit-identically.
template <class T, int Bytes = 16>
std::vector<Candidate> gemm_candidates(const GemmShape& shape,
                                       const CacheInfo& cache,
                                       const TuneOptions& opts = {});
template <class T, int Bytes = 16>
std::vector<Candidate> trsm_candidates(const TrsmShape& shape,
                                       const CacheInfo& cache,
                                       const TuneOptions& opts = {});

/// Tune one descriptor: enumerate, prune via the simulator, time the
/// survivors, and return the winning record (winner >= analytical
/// baseline by construction -- the baseline is always timed too).
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
