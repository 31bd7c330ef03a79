// Execution plan for compact batched GEMM (paper section 5).
//
// Built once per input descriptor by the Execution Plan Generator and then
// reusable for any number of executions: it fixes the tile decomposition
// (Figure 4(b)), selects the matching computing kernels from the
// install-time registry, decides pack-vs-no-pack per operand
// (Pack Selecter, section 5.2), and sizes the batch slice so packed panels
// stay in L1 (Batch Counter, section 5.1). execute() then runs the
// resulting command queue over every interleave group, prefetching the
// next group during the current one's calls when the input's groups are
// too large for the hardware prefetchers (group_stream.hpp).
#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "iatf/common/aligned_buffer.hpp"
#include "iatf/common/cache_info.hpp"
#include "iatf/common/status.hpp"
#include "iatf/common/tiling.hpp"
#include "iatf/common/types.hpp"
#include "iatf/kernels/registry.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/plan/batch_counter.hpp"
#include "iatf/plan/group_stream.hpp"
#include "iatf/resilience/kernel_state.hpp"

namespace iatf::plan {

template <class T, int Bytes = 16> class GemmPlan {
public:
  using R = real_t<T>;

  /// One computing-kernel invocation of the command queue; offsets are in
  /// real scalars relative to the (packed or user) group base.
  struct Call {
    kernels::GemmKernelFn<T> fn = nullptr;
    index_t a_off = 0;
    index_t b_off = 0;
    index_t c_off = 0;
    index_t k = 0;
    index_t a_kstride = 0;
    index_t b_kstride = 0;
    index_t b_jstride = 0;
    index_t mc = 0;
    index_t nc = 0;
  };

  GemmPlan(const GemmShape& shape, const CacheInfo& cache,
           const PlanTuning& tuning = {});

  /// Run the plan: C = alpha * op(A) * op(B) + beta * C per matrix.
  /// When `health` is non-null, each group's C block is scanned for
  /// NaN/Inf right after its kernels run, while it is still L1-resident,
  /// and affected lanes are flagged on the recorder. A non-null
  /// `deadline` is checked between L1 batch slices; expiry throws
  /// TimeoutError and leaves C partially updated.
  void execute(const CompactBuffer<T>& a, const CompactBuffer<T>& b,
               CompactBuffer<T>& c, T alpha, T beta,
               HealthRecorder* health = nullptr,
               const Deadline* deadline = nullptr) const;

  /// Range variant, the multicore entry point (the paper's future-work
  /// extension): run only interleave groups [g_begin, g_end) of the
  /// batch. Interleave groups are independent, so thread-pool work items
  /// (sched/group_scheduler) cover disjoint ranges of one buffer set,
  /// each with its own packing workspace, and flag disjoint lanes of
  /// `health`. A non-null `deadline` is checked between L1 batch slices.
  void execute_range(const CompactBuffer<T>& a, const CompactBuffer<T>& b,
                     CompactBuffer<T>& c, T alpha, T beta, index_t g_begin,
                     index_t g_end, HealthRecorder* health = nullptr,
                     const Deadline* deadline = nullptr) const;

  const GemmShape& shape() const noexcept { return shape_; }
  bool packs_a() const noexcept { return pack_a_; }
  bool packs_b() const noexcept { return pack_b_; }
  index_t slice_groups() const noexcept { return slice_groups_; }
  index_t chunk_groups() const noexcept { return chunk_groups_; }
  /// Whether the group walk prefetches the next group (group_stream.hpp).
  bool streams_next_group() const noexcept { return stream_.active(); }
  std::span<const Tile> m_tiles() const noexcept { return m_tiles_; }
  std::span<const Tile> n_tiles() const noexcept { return n_tiles_; }
  std::span<const Call> calls() const noexcept { return calls_; }

  /// The tuning this plan was built with (canary micro-plans must mirror
  /// it so they exercise the same registry kernel set).
  const PlanTuning& tuning() const noexcept { return tuning_; }

  /// Distinct registry kernels the command queue calls (kind 'g').
  std::span<const resilience::KernelUse> kernels_used() const noexcept {
    return kernels_used_;
  }

  /// Cached verification verdict, set by the engine's kernel guard. One
  /// relaxed atomic so the dispatch hot path gates with a single load.
  resilience::PlanVerify verify_state() const noexcept {
    return static_cast<resilience::PlanVerify>(
        verify_.load(std::memory_order_relaxed));
  }
  void set_verify_state(resilience::PlanVerify state) const noexcept {
    verify_.store(static_cast<std::uint8_t>(state),
                  std::memory_order_relaxed);
  }

  /// Compact element stride (scalars per element block) this plan assumes.
  static constexpr index_t element_stride() {
    return kernels::kreg<T, Bytes>::stride;
  }
  /// Interleave width this plan assumes of its buffers.
  static constexpr index_t pack_width() {
    return simd::pack_width_bytes_v<T, Bytes>;
  }

private:
  void validate_buffers(const CompactBuffer<T>& a,
                        const CompactBuffer<T>& b,
                        const CompactBuffer<T>& c) const;
  void run_groups(const CompactBuffer<T>& a, const CompactBuffer<T>& b,
                  CompactBuffer<T>& c, T alpha, T beta, index_t g_begin,
                  index_t g_end, HealthRecorder* health,
                  const Deadline* deadline) const;
  /// run_groups with the next-group stream's cursor type: StreamCursor
  /// when the plan streams, NoStream when it does not.
  template <class Cursor>
  void walk_groups(const CompactBuffer<T>& a, const CompactBuffer<T>& b,
                   CompactBuffer<T>& c, T alpha, T beta, index_t g_begin,
                   index_t g_end, HealthRecorder* health,
                   const Deadline* deadline) const;

  GemmShape shape_;
  PlanTuning tuning_;
  std::vector<Tile> m_tiles_;
  std::vector<Tile> n_tiles_;
  std::vector<Call> calls_;
  std::vector<resilience::KernelUse> kernels_used_;
  mutable std::atomic<std::uint8_t> verify_{0};
  bool pack_a_ = false;
  bool pack_b_ = false;
  index_t pa_group_size_ = 0; ///< packed A panel scalars per group
  index_t pb_group_size_ = 0;
  index_t slice_groups_ = 1;
  index_t chunk_groups_ = 0; ///< >0 = groups per parallel chunk
  GroupStream stream_;       ///< next-group prefetch schedule
};

} // namespace iatf::plan
