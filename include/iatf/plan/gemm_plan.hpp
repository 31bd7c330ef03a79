// Execution plan for compact batched GEMM (paper section 5).
//
// Built once per input descriptor by the Execution Plan Generator and then
// reusable for any number of executions: it fixes the tile decomposition
// (Figure 4(b)), selects the matching computing kernels from the
// install-time registry, decides pack-vs-no-pack per operand
// (Pack Selecter, section 5.2), and sizes the batch slice so packed panels
// stay in L1 (Batch Counter, section 5.1). execute() then runs the
// resulting command queue over every interleave group on the shared
// slice walk (plan_base.hpp): the slice's prologue packs the gathered
// operands, each group runs the queue and scans its C block, prefetching
// the next group during its calls when the input's groups are too large
// for the hardware prefetchers (group_stream.hpp).
#pragma once

#include <span>
#include <vector>

#include "iatf/common/cache_info.hpp"
#include "iatf/common/status.hpp"
#include "iatf/common/tiling.hpp"
#include "iatf/common/types.hpp"
#include "iatf/kernels/registry.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/plan/plan_base.hpp"

namespace iatf::plan {

template <class T, int Bytes = 16> class GemmPlan : public PlanBase<T, Bytes> {
  using Base = PlanBase<T, Bytes>;

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

  /// Run the plan: C = alpha * op(A) * op(B) + beta * C per matrix; the
  /// whole batch, execute_range(0, groups). When `health` is non-null,
  /// each group's C block is scanned for NaN/Inf right after its kernels
  /// run, while it is still L1-resident, and affected lanes are flagged
  /// on the recorder. A non-null `deadline` is checked between L1 batch
  /// slices; expiry throws TimeoutError and leaves C partially updated.
  void execute(const CompactBuffer<T>& a, const CompactBuffer<T>& b,
               CompactBuffer<T>& c, T alpha, T beta,
               HealthRecorder* health = nullptr,
               const Deadline* deadline = nullptr) const {
    execute_range(a, b, c, alpha, beta, 0, c.groups(), health, deadline);
  }

  /// Range variant, the multicore entry point (the paper's future-work
  /// extension): run only interleave groups [g_begin, g_end) of the
  /// batch on the shared slice walk (plan_base.hpp). Interleave groups
  /// are independent, so thread-pool work items (sched/group_scheduler)
  /// cover disjoint ranges of one buffer set, each with its own packing
  /// workspace, and flag disjoint lanes of `health`.
  void execute_range(const CompactBuffer<T>& a, const CompactBuffer<T>& b,
                     CompactBuffer<T>& c, T alpha, T beta, index_t g_begin,
                     index_t g_end, HealthRecorder* health = nullptr,
                     const Deadline* deadline = nullptr) const;

  /// The whole operand contract of a GEMM call, which the engine checks
  /// once before it picks a route: A, B and C against `s` in dimensions
  /// and batch, each interleaved at the plan's width.
  static void check_operands(const GemmShape& s, const CompactBuffer<T>& a,
                             const CompactBuffer<T>& b,
                             const CompactBuffer<T>& c);

  const GemmShape& shape() const noexcept { return shape_; }
  bool packs_a() const noexcept { return pack_a_; }
  bool packs_b() const noexcept { return pack_b_; }
  std::span<const Tile> m_tiles() const noexcept { return m_tiles_; }
  std::span<const Tile> n_tiles() const noexcept { return n_tiles_; }
  std::span<const Call> calls() const noexcept { return calls_; }

private:
  using Base::chunk_groups_;
  using Base::kernels_used_;
  using Base::pa_group_size_;
  using Base::pb_group_size_;
  using Base::stream_;

  GemmShape shape_;
  std::vector<Tile> m_tiles_;
  std::vector<Tile> n_tiles_;
  std::vector<Call> calls_;
  bool pack_a_ = false;
  bool pack_b_ = false;
};

} // namespace iatf::plan
