// Next-group stream (DESIGN.md section 5.1).
//
// The Batch Counter (batch_counter.hpp) assumes one interleave group is
// small enough to live in L1. With 64-byte lanes a group is 4x the
// paper's 128-bit group, and from n = 16 up one operand's group spans
// more than a 4 KiB page -- where hardware stream prefetchers stop -- so
// a batch larger than L2 walks every group out of DRAM at latency-bound
// rates. While group g computes, a streaming plan therefore prefetches
// the bytes group g + 1 will read and write, spread evenly over g's
// command queue (kernel calls, TRSM steps or factor columns) so the
// prefetches interleave with the FMAs instead of arriving in one burst.
//
// The decision is the plan's, taken at build time from the input alone
// (stream_next_group); there is no knob. A prefetch is only a hint, so a
// streaming plan computes bit-identical results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "iatf/common/cache_info.hpp"

namespace iatf::plan {

/// Bytes of one virtual-memory page (sysconf(_SC_PAGESIZE); 4 KiB when
/// unavailable). Read once per process.
std::size_t page_bytes() noexcept;

/// The plan-build gate: stream only when one operand's group spans more
/// than a page (so the hardware prefetchers lose the walk) and the
/// call's whole operand footprint exceeds L2 (so the next group is not
/// already cache-resident). `largest_group_bytes` is the biggest single
/// operand's bytes in one interleave group; `call_bytes` is every
/// operand's bytes over the whole batch.
bool stream_next_group(std::size_t largest_group_bytes,
                       std::size_t call_bytes,
                       const CacheInfo& cache) noexcept;

/// Per-step prefetch schedule of the bytes one interleave group touches,
/// precomputed at plan build so a step costs no division.
class GroupStream {
public:
  static constexpr int kMaxOperands = 3;
  static constexpr std::size_t kLine = 64;

  /// A byte range of one operand's group that the walk touches, listed
  /// in the order the walk touches them.
  struct Segment {
    int operand = 0;        ///< index into the bases passed to next()
    std::size_t offset = 0; ///< bytes from the operand's group base
    std::size_t bytes = 0;
    bool write = false; ///< prefetch with write intent
  };

  /// A run of lines of one operand, prefetched by one step.
  struct Piece {
    std::uint32_t first = 0; ///< first line, from the line-aligned base
    std::uint32_t count = 0; ///< lines in the run
    std::uint8_t operand = 0;
    bool write = false;
  };

  /// Line-aligned bases of the next group's operands.
  struct Next {
    const char* base[kMaxOperands] = {};
  };

  /// Inactive stream: the plan takes the non-streaming walk.
  GroupStream() = default;

  /// Spread each operand's lines, in segment order, over `steps` queue
  /// steps: of an operand's L lines, step i gets lines [i * L / steps,
  /// (i + 1) * L / steps). A line shared by consecutive segments of one
  /// operand is prefetched once, with the earlier segment's intent.
  GroupStream(std::span<const Segment> segments, std::size_t steps);

  bool active() const noexcept { return steps_ != 0; }
  std::size_t steps() const noexcept { return steps_; }

  /// The pieces step `step` prefetches.
  std::span<const Piece> pieces(std::size_t step) const noexcept {
    return {pieces_.data() + begin_[step], begin_[step + 1] - begin_[step]};
  }

  /// The next group's bases, rounded down to a cache line (no piece
  /// reaches past its segment's last byte).
  static Next next(std::initializer_list<const void*> bases) noexcept;

  /// Prefetch step `step`'s share of the next group's lines. Out of
  /// line, so a plan's walk carries only the cursor's test and a call.
  void prefetch(const Next& next, std::size_t step) const noexcept;

private:
  std::vector<Piece> pieces_;
  std::vector<std::size_t> begin_; ///< steps_ + 1 offsets into pieces_
  std::size_t steps_ = 0;
};

/// Segments of the stored triangle of a dim x dim column-major group of
/// `elem_bytes` element blocks, one per column in column order.
std::vector<GroupStream::Segment> triangle_segments(int operand,
                                                    std::size_t dim,
                                                    std::size_t elem_bytes,
                                                    bool lower, bool write);

/// Runs one group's steps in order against the next group's operand
/// `bases`. Idle when the walk has no next group (`has_next` false, the
/// last group of a range); steps past the stream's count are ignored.
class StreamCursor {
public:
  StreamCursor(const GroupStream& stream, bool has_next,
               std::initializer_list<const void*> bases) noexcept {
    if (has_next) {
      stream_ = &stream;
      next_ = GroupStream::next(bases);
    }
  }

  void step() noexcept {
    if (stream_ != nullptr && step_ < stream_->steps()) {
      stream_->prefetch(next_, step_++);
    }
  }

private:
  const GroupStream* stream_ = nullptr;
  GroupStream::Next next_;
  std::size_t step_ = 0;
};

/// The cursor of a plan that does not stream: its steps compile away, so
/// the walk is the same code it was before streams existed.
struct NoStream {
  NoStream(const GroupStream&, bool,
           std::initializer_list<const void*>) noexcept {}
  void step() noexcept {}
};

} // namespace iatf::plan
