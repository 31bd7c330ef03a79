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
// column panels. When the input's groups are too large for the hardware
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

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "iatf/common/aligned_buffer.hpp"
#include "iatf/common/cache_info.hpp"
#include "iatf/common/status.hpp"
#include "iatf/common/tiling.hpp"
#include "iatf/common/types.hpp"
#include "iatf/kernels/registry.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/pack/trsm_pack.hpp"
#include "iatf/plan/batch_counter.hpp"
#include "iatf/plan/group_stream.hpp"
#include "iatf/resilience/kernel_state.hpp"

namespace iatf::plan {

template <class T, int Bytes = 16> class TrsmPlan {
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
  /// Right-side variants), overwriting b. When `health` is non-null the
  /// plan additionally flags numerical hazards while the data is hot: a
  /// solve detects zero/tiny/NaN diagonals inside the A-pack (before the
  /// reciprocal destroys the evidence), and each group's output is
  /// scanned for NaN/Inf right after its steps, while it is still
  /// L1-resident.
  void execute(const CompactBuffer<T>& a, CompactBuffer<T>& b, T alpha,
               HealthRecorder* health = nullptr,
               const Deadline* deadline = nullptr) const;

  /// Range variant, the multicore entry point: run only interleave
  /// groups [g_begin, g_end) of the batch. Concurrent calls on the same
  /// buffers (thread-pool work items) must cover disjoint ranges; they
  /// flag disjoint lanes of `health`.
  void execute_range(const CompactBuffer<T>& a, CompactBuffer<T>& b,
                     T alpha, index_t g_begin, index_t g_end,
                     HealthRecorder* health = nullptr,
                     const Deadline* deadline = nullptr) const;

  const TrsmShape& shape() const noexcept { return shape_; }
  const pack::TrsmCanon& canon() const noexcept { return canon_; }
  bool packs_b() const noexcept { return pack_b_; }
  bool small_path() const noexcept { return blocks_.size() <= 1; }
  index_t slice_groups() const noexcept { return slice_groups_; }
  index_t chunk_groups() const noexcept { return chunk_groups_; }
  /// Whether the group walk prefetches the next group (group_stream.hpp).
  bool streams_next_group() const noexcept { return stream_.active(); }
  std::span<const Tile> blocks() const noexcept { return blocks_; }
  std::span<const Tile> panels() const noexcept { return panels_; }
  std::span<const Step> steps() const noexcept { return steps_; }

  /// The tuning this plan was built with (canary micro-plans must mirror
  /// it so they exercise the same registry kernel set).
  const PlanTuning& tuning() const noexcept { return tuning_; }

  /// Distinct registry kernels the command queue calls (kinds 't'/'r' for
  /// a solve, 'm'/'g' for a multiply).
  std::span<const resilience::KernelUse> kernels_used() const noexcept {
    return kernels_used_;
  }

  /// Cached verification verdict, set by the engine's kernel guard.
  resilience::PlanVerify verify_state() const noexcept {
    return static_cast<resilience::PlanVerify>(
        verify_.load(std::memory_order_relaxed));
  }
  void set_verify_state(resilience::PlanVerify state) const noexcept {
    verify_.store(static_cast<std::uint8_t>(state),
                  std::memory_order_relaxed);
  }

  static constexpr index_t element_stride() {
    return kernels::kreg<T, Bytes>::stride;
  }
  static constexpr index_t pack_width() {
    return simd::pack_width_bytes_v<T, Bytes>;
  }

private:
  void validate_buffers(const CompactBuffer<T>& a,
                        const CompactBuffer<T>& b) const;
  template <class Cursor>
  void run_steps(const R* packed_a, R* bdata, T alpha, Cursor& next) const;
  void run_groups(const CompactBuffer<T>& a, CompactBuffer<T>& b,
                  T alpha, index_t g_begin, index_t g_end,
                  HealthRecorder* health, const Deadline* deadline) const;
  /// run_groups with the next-group stream's cursor type: StreamCursor
  /// when the plan streams, NoStream when it does not.
  template <class Cursor>
  void walk_groups(const CompactBuffer<T>& a, CompactBuffer<T>& b, T alpha,
                   index_t g_begin, index_t g_end, HealthRecorder* health,
                   const Deadline* deadline) const;

  TrsmShape shape_;
  PlanTuning tuning_;
  pack::TrsmCanon canon_;
  std::vector<Tile> blocks_; ///< diagonal blocks over canon_.m
  std::vector<Tile> panels_; ///< column panels over canon_.n
  std::vector<Step> steps_;  ///< full command queue (all panels)
  std::vector<resilience::KernelUse> kernels_used_;
  mutable std::atomic<std::uint8_t> verify_{0};
  bool pack_b_ = false;
  index_t pa_group_size_ = 0;
  index_t pb_group_size_ = 0;
  index_t slice_groups_ = 1;
  index_t chunk_groups_ = 0; ///< >0 = groups per parallel chunk
  GroupStream stream_;       ///< next-group prefetch schedule
};

} // namespace iatf::plan
