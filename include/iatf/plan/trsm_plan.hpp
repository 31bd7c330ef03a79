// Execution plan for compact batched triangular ops (paper sections 4.2.2
// and 5): TRSM, and TRMM on the same canonical form.
//
// Every mode (Side x Uplo x Trans x Diag) is canonicalised to
// Left/Lower/NoTrans at pack time (see pack/trsm_pack.hpp). The solve then
// follows paper equation (1): the triangle is tiled into diagonal blocks;
// for each column panel of B, earlier solved rows update later blocks
// through the FMLS rectangular kernels and each diagonal block is solved
// by the register-resident triangular kernel. When the whole triangle fits
// in registers (M <= 5 real / 4 complex) the plan degenerates to the
// paper's small-matrix case: a single triangular kernel swept across B's
// column panels. The plan runs on the shared slice walk (plan_base.hpp):
// the slice's prologue packs the triangles (a solve scanning their
// diagonals), each group packs B when the mode gathers it, runs the steps
// and unpacks. When the input's groups are too large for the hardware
// prefetchers, the steps of one group also prefetch the next group
// (group_stream.hpp).
//
// A multiply (TriOp::Multiply) reuses the tiling, the packs and the group
// walk. Its queue runs the block rows bottom-up, so every step reads
// pre-update values:
//     B_i <- alpha * ( L_ii B_i + sum_{j<i} L_ij B_j )
// The triangular-multiply kernel goes first, then the GEMM kernels add
// the lower block rows with beta = 1 -- unlike TRSM there is no multiply
// to save, so no dedicated rectangular kernel is needed (contrast paper
// equation 4). The triangle is packed with its plain diagonal and alpha
// goes into the kernels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "iatf/common/cache_info.hpp"
#include "iatf/common/status.hpp"
#include "iatf/common/tiling.hpp"
#include "iatf/common/types.hpp"
#include "iatf/kernels/registry.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/pack/trsm_pack.hpp"
#include "iatf/plan/plan_base.hpp"

namespace iatf::plan {

template <class T, int Bytes = 16> class TrsmPlan : public PlanBase<T, Bytes> {
  using Base = PlanBase<T, Bytes>;

public:
  using R = real_t<T>;

  /// One step of the command queue. Rect steps update block row `row_off`
  /// from solved rows at `x_row_off`; Tri steps solve the block at
  /// `row_off` in place. MulTri and MulRect are their multiply
  /// counterparts: MulTri multiplies the block at `row_off` in place,
  /// MulRect adds the (pre-update) rows at `x_row_off` into it through a
  /// GEMM kernel. Offsets are element-block indices within the canonical
  /// B (column `col_off`, row `row_off`).
  struct Step {
    enum class Kind : std::uint8_t { Rect, Tri, MulTri, MulRect };
    Kind kind = Kind::Tri;
    union { ///< the registry kernel of `kind`
      kernels::TrsmRectKernelFn<T> rect_fn = nullptr;
      kernels::TrsmTriKernelFn<T> tri_fn;
      kernels::TrmmTriKernelFn<T> mul_tri_fn;
      kernels::GemmKernelFn<T> gemm_fn;
    };
    index_t pa_off = 0;    ///< scalars into the packed triangle
    index_t col_off = 0;   ///< first column of the panel
    index_t row_off = 0;   ///< first row of block bi
    index_t x_row_off = 0; ///< first row of block bj (Rect/MulRect)
    index_t k = 0;         ///< depth of block bj (Rect/MulRect)
    index_t a_kstride = 0; ///< scalars per k-block of A (MulRect only)
  };

  TrsmPlan(const TrsmShape& shape, const CacheInfo& cache,
           const PlanTuning& tuning = {});

  /// Solve op(A) X = alpha B, or multiply B = alpha op(A) B (or the
  /// Right-side variants), overwriting b; the whole batch,
  /// execute_range(0, groups). When `health` is non-null the plan
  /// additionally flags numerical hazards while the data is hot: a solve
  /// detects zero/tiny/NaN diagonals inside the A-pack (before the
  /// reciprocal destroys the evidence), and each group's output is
  /// scanned for NaN/Inf right after its steps, while it is still
  /// L1-resident. A non-null `deadline` is checked between L1 slices.
  void execute(const CompactBuffer<T>& a, CompactBuffer<T>& b, T alpha,
               HealthRecorder* health = nullptr,
               const Deadline* deadline = nullptr) const {
    execute_range(a, b, alpha, 0, b.groups(), health, deadline);
  }

  /// Range variant, the multicore entry point: run only interleave
  /// groups [g_begin, g_end) of the batch on the shared slice walk
  /// (plan_base.hpp). Concurrent calls on the same buffers (thread-pool
  /// work items) must cover disjoint ranges; they flag disjoint lanes of
  /// `health`.
  void execute_range(const CompactBuffer<T>& a, CompactBuffer<T>& b,
                     T alpha, index_t g_begin, index_t g_end,
                     HealthRecorder* health = nullptr,
                     const Deadline* deadline = nullptr) const;

  /// The whole operand contract of a triangular call, checked by the
  /// engine once before it picks a route: A (a_dim x a_dim) and B against
  /// `s` in dimensions and batch, both interleaved at the plan's width.
  static void check_operands(const TrsmShape& s, const CompactBuffer<T>& a,
                             const CompactBuffer<T>& b);

  const TrsmShape& shape() const noexcept { return shape_; }
  const pack::TrsmCanon& canon() const noexcept { return canon_; }
  bool packs_b() const noexcept { return pack_b_; }
  bool small_path() const noexcept { return blocks_.size() <= 1; }
  std::span<const Tile> blocks() const noexcept { return blocks_; }
  std::span<const Tile> panels() const noexcept { return panels_; }
  std::span<const Step> steps() const noexcept { return steps_; }

private:
  using Base::kernels_used_;
  using Base::pa_group_size_;
  using Base::pb_group_size_;
  using Base::stream_;

  template <class Cursor>
  void run_steps(const R* packed_a, R* bdata, T alpha, Cursor& next) const;

  TrsmShape shape_;
  pack::TrsmCanon canon_;
  std::vector<Tile> blocks_; ///< diagonal blocks over canon_.m
  std::vector<Tile> panels_; ///< column panels over canon_.n
  std::vector<Step> steps_;  ///< full command queue (all panels)
  bool pack_b_ = false;
};

} // namespace iatf::plan
