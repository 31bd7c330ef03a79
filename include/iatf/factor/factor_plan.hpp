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
// resident, so panels would add bookkeeping without reuse. The plans run
// on the same slice walk as GEMM and TRSM (plan/plan_base.hpp), one
// group per slice. When the input's groups are too large for the
// hardware prefetchers, each group's column steps also prefetch the next
// group (plan/group_stream.hpp).
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

#include "iatf/common/cache_info.hpp"
#include "iatf/common/status.hpp"
#include "iatf/common/types.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/plan/plan_base.hpp"

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
/// the panel width and, from `cache`, whether the walk streams the next
/// group; execute() runs the whole batch on the shared slice walk
/// (plan/plan_base.hpp) with a slice of one group -- the sweep needs no
/// packing workspace -- so the deadline is checked per group. The plan
/// dispatches no registry kernels (the steps are straight-line vector
/// code over kreg) and takes no tuning, so it participates in the
/// engine's plan cache but not in kernel verify-and-quarantine.
template <class T, int Bytes = 16>
class FactorPlan : public plan::PlanBase<T, Bytes> {
  using Base = plan::PlanBase<T, Bytes>;

public:
  FactorPlan(const FactorShape& shape, const CacheInfo& cache);

  const FactorShape& shape() const noexcept { return shape_; }

  /// Panel width of the blocked factorisations (m for the unblocked
  /// small-m regime, 0 for Trtri which does not panel).
  index_t panel_width() const noexcept { return nb_; }

  /// Factor every matrix of `a` in place; execute_range(0, groups).
  /// `rec` (nullable) enables the pivot hazard scan; `deadline`
  /// (nullable) is checked at interleave-group boundaries and expiry
  /// throws TimeoutError with the completed group count. Requires a to
  /// be shape.m x shape.m with the kernel pack width.
  void execute(CompactBuffer<T>& a, HealthRecorder* rec,
               const Deadline* deadline) const {
    execute_range(a, 0, a.groups(), rec, deadline);
  }

  /// Range variant: factor only interleave groups [g_begin, g_end);
  /// expiry of `deadline` reports groups completed within the range.
  void execute_range(CompactBuffer<T>& a, index_t g_begin, index_t g_end,
                     HealthRecorder* rec, const Deadline* deadline) const;

  /// The whole operand contract of a factorisation, which the engine
  /// checks once before it picks a route: `a` square of order s.m with
  /// batch s.batch, interleaved at the plan's width.
  static void check_operands(const FactorShape& s,
                             const CompactBuffer<T>& a);

  /// Floating-point operations for the whole batch (throughput
  /// reporting; the usual n^3/3-family counts).
  double flops() const noexcept;

private:
  FactorShape shape_;
  index_t nb_ = 0;
};

} // namespace iatf::factor
