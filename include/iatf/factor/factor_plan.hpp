// Execution plans for fused batched compact factorisations.
//
// Three routines over batches of small (<= 33 x 33) matrices held in the
// interleaved compact layout, each vectorised across the P interleaved
// lanes exactly like the GEMM/TRSM kernels:
//
//  * Potrf   -- blocked right-looking Cholesky of the lower triangle,
//  * GetrfNp -- blocked right-looking unpivoted LU (diagonally-dominant
//               batches; partial pivoting would break lane lockstep),
//  * Trtri   -- in-place triangular inverse (either triangle, either
//               diagonal mode).
//
// The blocked factorisations are composed as panel-factor + compact-TRSM
// + compact-GEMM-update steps that never leave the packed layout between
// steps (DESIGN.md section 13 documents the blocking scheme); Trtri is a
// single register sweep -- at these sizes every element is already
// resident, so panels would add bookkeeping without reuse. When the
// input's groups are too large for the hardware prefetchers, each group's
// column steps also prefetch the next group (plan/group_stream.hpp).
//
// Hazard contract: when a HealthRecorder is supplied, every pivot /
// diagonal is scanned before its reciprocal or square root. A bad pivot
// (non-positive for Cholesky; zero, subnormal or non-finite otherwise)
// flags the lane as singular and is substituted with 1 so the remaining
// lanes of the group factor unperturbed -- the flagged lane's contents
// are unspecified and the engine's Fallback policy restores them (see
// Engine::potrf_batch). Without a recorder (ExecPolicy::Fast) no scan
// runs and a bad pivot yields Inf/NaN confined to its own lane.
#pragma once

#include <cstdint>
#include <vector>

#include "iatf/common/cache_info.hpp"
#include "iatf/common/status.hpp"
#include "iatf/common/types.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/plan/group_stream.hpp"
#include "iatf/resilience/resilience.hpp"

namespace iatf::factor {

enum class FactorOp : std::uint8_t { Potrf, GetrfNp, Trtri };

/// The full descriptor of one batched factorisation: everything the
/// engine's plan cache keys on except dtype/width (fixed per template
/// instantiation).
struct FactorShape {
  FactorOp op = FactorOp::Potrf;
  index_t m = 0;              ///< matrix order
  Uplo uplo = Uplo::Lower;    ///< Trtri only (Potrf is lower by definition)
  Diag diag = Diag::NonUnit;  ///< Trtri only
  index_t batch = 0;

  friend bool operator==(const FactorShape&, const FactorShape&) = default;
};

/// Immutable execution plan for one FactorShape. Construction derives
/// the panel width and, from `cache`, whether the group walk streams the
/// next group; execute() runs the whole batch group by group. The
/// plan dispatches no registry kernels (the steps are straight-line
/// vector code over kreg), so it participates in the engine's plan cache
/// but not in kernel verify-and-quarantine.
template <class T, int Bytes = 16> class FactorPlan {
public:
  FactorPlan(const FactorShape& shape, const CacheInfo& cache);

  const FactorShape& shape() const noexcept { return shape_; }

  /// Panel width of the blocked factorisations (m for the unblocked
  /// small-m regime, 0 for Trtri which does not panel).
  index_t panel_width() const noexcept { return nb_; }

  /// Factor every matrix of `a` in place. `rec` (nullable) enables the
  /// pivot hazard scan; `deadline` (nullable) is checked at interleave-
  /// group boundaries and expiry throws TimeoutError with the completed
  /// group count. Requires a to be shape.m x shape.m with the kernel
  /// pack width.
  void execute(CompactBuffer<T>& a, HealthRecorder* rec,
               const Deadline* deadline) const;

  /// Range variant: factor only interleave groups [g_begin, g_end);
  /// expiry of `deadline` reports groups completed within the range.
  void execute_range(CompactBuffer<T>& a, index_t g_begin, index_t g_end,
                     HealthRecorder* rec, const Deadline* deadline) const;

  /// Whether the group walk prefetches the next group (group_stream.hpp).
  bool streams_next_group() const noexcept { return stream_.active(); }

  /// Work-item bounds for the engine's thread-pool split: the group walk
  /// needs no packing workspace, so one group is a whole slice, and
  /// factor plans take no tuned chunk.
  index_t slice_groups() const noexcept { return 1; }
  index_t chunk_groups() const noexcept { return 0; }

  /// Floating-point operations for the whole batch (throughput
  /// reporting; the usual n^3/3-family counts).
  double flops() const noexcept;

  /// Registry kernels dispatched by this plan: none (the factor steps
  /// are inlined vector loops, not generated kernels). Present so the
  /// plan satisfies the engine cache's verification interface.
  const std::vector<resilience::KernelUse>& kernels_used() const noexcept {
    return kernels_;
  }

private:
  void validate(const CompactBuffer<T>& a) const;
  void run_groups(CompactBuffer<T>& a, index_t g_begin, index_t g_end,
                  HealthRecorder* rec, const Deadline* deadline) const;
  /// run_groups with the next-group stream's cursor type (StreamCursor
  /// or NoStream).
  template <class Cursor>
  void walk_groups(CompactBuffer<T>& a, index_t g_begin, index_t g_end,
                   HealthRecorder* rec, const Deadline* deadline) const;

  FactorShape shape_;
  index_t nb_ = 0;
  std::vector<resilience::KernelUse> kernels_;
  plan::GroupStream stream_; ///< next-group prefetch schedule
};

} // namespace iatf::factor
