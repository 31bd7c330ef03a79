// The one batch-slice walk and the surface every compact plan shares
// (DESIGN.md section 5).
//
// The paper's run-time stage is one algorithm for every routine: walk the
// batch one L1 slice at a time (the Batch Counter's slice, section 5.1)
// and run the command queue on each interleave group of the slice
// (section 5.3). PlanBase::walk is that walk for GemmPlan, TrsmPlan and
// factor::FactorPlan. It owns:
//   * the range check: [g_begin, g_end) must lie within [0, groups),
//     else InvalidArg; a plan with no work (an empty dimension or batch)
//     returns after the check;
//   * the slice loop, with the deadline checked before every slice:
//     expiry throws TimeoutError(groups completed, groups in the range),
//     so a plan whose slice is one group (a factor plan) checks it per
//     group;
//   * the packing workspace of one slice, a slot per group for up to two
//     packed operands;
//   * the next-group stream (group_stream.hpp): a StreamCursor on the
//     next group's operand bases when the plan streams, NoStream when it
//     does not;
//   * the live (non-padding) lane count of a group.
// A plan keeps only its own parts: a per-slice prologue (packs every
// group of the slice needs before any of them computes) and a per-group
// body (its command queue and output scan).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "iatf/common/aligned_buffer.hpp"
#include "iatf/common/cache_info.hpp"
#include "iatf/common/error.hpp"
#include "iatf/common/status.hpp"
#include "iatf/common/types.hpp"
#include "iatf/kernels/kreg.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/plan/batch_counter.hpp"
#include "iatf/plan/group_stream.hpp"
#include "iatf/resilience/kernel_state.hpp"

namespace iatf::plan {

template <class T, int Bytes> class PlanBase {
public:
  using value_type = T;
  using R = real_t<T>;
  static constexpr int bytes = Bytes;

  /// Compact element stride (scalars per element block) the plan assumes.
  static constexpr index_t element_stride() {
    return kernels::kreg<T, Bytes>::stride;
  }
  /// Interleave width the plan assumes of its buffers.
  static constexpr index_t pack_width() {
    return simd::pack_width_bytes_v<T, Bytes>;
  }

  /// The tuning the plan was built with (canary micro-plans mirror it so
  /// they exercise the same registry kernel set).
  const PlanTuning& tuning() const noexcept { return tuning_; }
  /// Interleave groups per L1 slice, and per parallel chunk (>0 = tuned,
  /// 0 = left to the engine's scheduler).
  index_t slice_groups() const noexcept { return slice_groups_; }
  index_t chunk_groups() const noexcept { return chunk_groups_; }
  /// Whether the walk prefetches the next group (group_stream.hpp).
  bool streams_next_group() const noexcept { return stream_.active(); }

  /// Distinct registry kernels the command queue calls.
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

protected:
  /// `name` prefixes the walk's error messages.
  PlanBase(const char* name, const PlanTuning& tuning, index_t batch)
      : name_(name), tuning_(tuning), batch_(batch),
        chunk_groups_(tuning.chunk_groups > 0 ? tuning.chunk_groups : 0) {}
  ~PlanBase() = default;

  /// One slice [g0, g1) and its workspace: group g packs its first
  /// operand at a(g) and its second at b(g).
  struct Slice {
    index_t g0 = 0;
    index_t g1 = 0;
    R* wa = nullptr;
    index_t a_size = 0;
    R* wb = nullptr;
    index_t b_size = 0;

    R* a(index_t g) const noexcept { return wa + (g - g0) * a_size; }
    R* b(index_t g) const noexcept { return wb + (g - g0) * b_size; }
  };

  /// Size the slice by the Batch Counter for one group's L1 working set
  /// of `group_bytes`, unless the tuning forces it.
  void size_slice(const CacheInfo& cache, index_t group_bytes) {
    slice_groups_ = tuning_.slice_override > 0
                        ? tuning_.slice_override
                        : BatchCounter(cache).groups_per_slice(group_bytes);
  }

  /// Live (non-padding) lanes of group g.
  index_t live_lanes(index_t g) const noexcept {
    const index_t remaining = batch_ - g * pack_width();
    return remaining < pack_width() ? remaining : pack_width();
  }

  /// Walk groups [g_begin, g_end) of a `groups`-group batch (see the
  /// file comment), prefetching the next group by `stream`.
  /// `next_bases(g)` gives group g's operand bases as a std::array of
  /// pointers, in the stream's operand order; `prologue(slice)` runs
  /// once per slice and `body(slice, g, next)` once per group, calling
  /// next.step() before each queue step.
  template <class NextBases, class Prologue, class Body>
  void walk(const GroupStream& stream, index_t groups, index_t g_begin,
            index_t g_end, const Deadline* deadline,
            const NextBases& next_bases, const Prologue& prologue,
            const Body& body) const {
    IATF_CHECK(g_begin >= 0 && g_begin <= g_end && g_end <= groups,
               std::string(name_) + ": group range out of bounds");
    if (idle_ || g_begin == g_end) {
      return;
    }
    if (stream.active()) {
      walk_slices<StreamCursor>(stream, g_begin, g_end, deadline,
                                next_bases, prologue, body);
    } else {
      walk_slices<NoStream>(stream, g_begin, g_end, deadline, next_bases,
                            prologue, body);
    }
  }

  const char* name_;
  PlanTuning tuning_;
  std::vector<resilience::KernelUse> kernels_used_;
  index_t batch_ = 0;
  bool idle_ = false; ///< no work: an empty dimension or batch
  index_t slice_groups_ = 1;
  index_t chunk_groups_ = 0;
  index_t pa_group_size_ = 0; ///< workspace scalars per group, operand a
  index_t pb_group_size_ = 0; ///< workspace scalars per group, operand b
  GroupStream stream_;        ///< next-group prefetch schedule

private:
  template <class Cursor, class NextBases, class Prologue, class Body>
  void walk_slices(const GroupStream& stream, index_t g_begin, index_t g_end,
                   const Deadline* deadline, const NextBases& next_bases,
                   const Prologue& prologue, const Body& body) const {
    AlignedBuffer<R> wa(static_cast<std::size_t>(slice_groups_ *
                                                 pa_group_size_));
    AlignedBuffer<R> wb(static_cast<std::size_t>(slice_groups_ *
                                                 pb_group_size_));
    for (index_t g0 = g_begin; g0 < g_end; g0 += slice_groups_) {
      if (deadline != nullptr && deadline->expired()) {
        throw TimeoutError(g0 - g_begin, g_end - g_begin);
      }
      const index_t g1 =
          g0 + slice_groups_ < g_end ? g0 + slice_groups_ : g_end;
      const Slice slice{g0, g1, wa.data(), pa_group_size_, wb.data(),
                        pb_group_size_};
      prologue(slice);
      for (index_t g = g0; g < g1; ++g) {
        Cursor next = std::apply(
            [&](const auto*... base) {
              return Cursor(stream, g + 1 < g_end, {base...});
            },
            next_bases(g + 1));
        body(slice, g, next);
      }
    }
  }

  mutable std::atomic<std::uint8_t> verify_{0};
};

} // namespace iatf::plan
