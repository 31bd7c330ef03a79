// Batch Counter (paper section 5.1).
//
// The run-time stage processes the batch in *slices* of whole interleave
// groups, sized so each slice's packed working set (packed A + packed B +
// the C/B it touches) stays resident in L1d: the matrices are small enough
// to live entirely in L1, so the only tiling decision left is how many of
// them to co-resident-pack per round.
#pragma once

#include "iatf/common/cache_info.hpp"
#include "iatf/common/types.hpp"

namespace iatf::plan {

/// Overrides for ablation studies and the empirical autotuner
/// (iatf/tune): force a pack decision, a batch-slice size, a kernel
/// variant or a parallel chunk granularity instead of the input-aware
/// defaults. Negative / zero values keep the framework's own choice, so
/// a default-constructed PlanTuning reproduces the analytical model
/// exactly. The tuner's persistent records are these fields plus the
/// measured throughput (tune::TuneRecord).
struct PlanTuning {
  int force_pack_a = -1;      ///< 0 = no-pack, 1 = pack, -1 = auto
  int force_pack_b = -1;      ///< GEMM: pack B; TRSM: pack canonical B
  index_t slice_override = 0; ///< >0 forces groups-per-slice
  /// Kernel-variant choice: >0 caps the main-kernel tile rows/cols below
  /// the register-budget limits, selecting a different registry kernel
  /// set (e.g. 2x4 instead of 4x4 tiles). Values above the limits clamp.
  int mc_cap = 0;
  int nc_cap = 0;
  /// >0 sets the interleave groups of each thread-pool work item; 0
  /// leaves the split to the engine's scheduler (about 2 items per
  /// worker, never finer than one L1 batch slice).
  index_t chunk_groups = 0;

  friend bool operator==(const PlanTuning&, const PlanTuning&) = default;
};

class BatchCounter {
public:
  explicit BatchCounter(CacheInfo cache) : cache_(cache) {}

  /// Groups per slice when one group's working set is `group_bytes`.
  /// Always at least 1 (a single group may legitimately exceed L1; the
  /// kernels still work, just without the cache guarantee -- and when such
  /// groups also outgrow a page and the batch outgrows L2, the plans'
  /// next-group stream (group_stream.hpp) hides the DRAM latency instead).
  index_t groups_per_slice(index_t group_bytes) const {
    if (group_bytes <= 0) {
      return 1;
    }
    const index_t fit =
        static_cast<index_t>(cache_.l1d) / group_bytes;
    return fit < 1 ? 1 : fit;
  }

  const CacheInfo& cache() const noexcept { return cache_; }

private:
  CacheInfo cache_;
};

} // namespace iatf::plan
