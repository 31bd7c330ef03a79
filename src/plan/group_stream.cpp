#include "iatf/plan/group_stream.hpp"

#include <unistd.h>

#include <algorithm>

#include "iatf/common/error.hpp"

namespace iatf::plan {
namespace {

/// One prefetch. GCC's dead-code elimination deletes loops whose only
/// statements are __builtin_prefetch calls; the empty asm that takes the
/// address keeps the loop (it emits no instruction).
template <bool Write> void prefetch_line(const char* p) noexcept {
  __builtin_prefetch(p, Write ? 1 : 0, 3);
  asm volatile("" : : "r"(p));
}

} // namespace

std::size_t page_bytes() noexcept {
  static const std::size_t bytes = [] {
    const long page = ::sysconf(_SC_PAGESIZE);
    return page > 0 ? static_cast<std::size_t>(page) : std::size_t{4096};
  }();
  return bytes;
}

bool stream_next_group(std::size_t largest_group_bytes,
                       std::size_t call_bytes,
                       const CacheInfo& cache) noexcept {
  return largest_group_bytes > page_bytes() && call_bytes > cache.l2;
}

GroupStream::GroupStream(std::span<const Segment> segments,
                         std::size_t steps) {
  // Each operand's lines in walk order, as runs of consecutive lines; a
  // line shared with the operand's previous segment is taken once.
  struct Walk {
    std::vector<Piece> runs;
    std::size_t lines = 0;  ///< lines in all runs
    std::size_t run = 0;    ///< run the next slice starts in
    std::size_t before = 0; ///< lines in runs before `run`
  };
  Walk walks[kMaxOperands];
  for (const Segment& seg : segments) {
    IATF_ASSERT(seg.operand >= 0 && seg.operand < kMaxOperands);
    if (seg.bytes == 0) {
      continue;
    }
    Walk& walk = walks[seg.operand];
    std::size_t first = seg.offset / kLine;
    const std::size_t last = (seg.offset + seg.bytes - 1) / kLine;
    if (!walk.runs.empty()) {
      Piece& back = walk.runs.back();
      const std::size_t end = back.first + std::size_t{back.count};
      if (first >= back.first && first < end) {
        first = end;
      }
      if (first > last) {
        continue;
      }
      if (first == end && back.write == seg.write) {
        back.count += static_cast<std::uint32_t>(last - first + 1);
        walk.lines += last - first + 1;
        continue;
      }
    }
    walk.runs.push_back(Piece{static_cast<std::uint32_t>(first),
                              static_cast<std::uint32_t>(last - first + 1),
                              static_cast<std::uint8_t>(seg.operand),
                              seg.write});
    walk.lines += last - first + 1;
  }
  if (steps == 0) {
    return;
  }
  // Step i takes the i-th of `steps` equal slices of every operand's
  // lines, clipped out of its runs.
  steps_ = steps;
  begin_.reserve(steps + 1);
  for (std::size_t i = 0; i < steps; ++i) {
    begin_.push_back(pieces_.size());
    for (Walk& walk : walks) {
      std::size_t lo = i * walk.lines / steps;
      const std::size_t hi = (i + 1) * walk.lines / steps;
      while (lo < hi) {
        const Piece& run = walk.runs[walk.run];
        const std::size_t skip = lo - walk.before;
        const std::size_t take = std::min(hi - lo, run.count - skip);
        pieces_.push_back(Piece{static_cast<std::uint32_t>(run.first + skip),
                                static_cast<std::uint32_t>(take),
                                run.operand, run.write});
        lo += take;
        if (skip + take == run.count) {
          walk.before += run.count;
          ++walk.run;
        }
      }
    }
  }
  begin_.push_back(pieces_.size());
  if (pieces_.empty()) {
    *this = GroupStream();
  }
}

std::vector<GroupStream::Segment> triangle_segments(int operand,
                                                    std::size_t dim,
                                                    std::size_t elem_bytes,
                                                    bool lower, bool write) {
  std::vector<GroupStream::Segment> out;
  out.reserve(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    const std::size_t first = lower ? j : 0;
    const std::size_t rows = lower ? dim - j : j + 1;
    out.push_back({operand, (j * dim + first) * elem_bytes, rows * elem_bytes,
                   write});
  }
  return out;
}

void GroupStream::prefetch(const Next& next,
                           std::size_t step) const noexcept {
  for (const Piece& piece : pieces(step)) {
    const char* p = next.base[piece.operand] + piece.first * kLine;
    const char* const end = p + piece.count * kLine;
    if (piece.write) {
      for (; p < end; p += kLine) {
        prefetch_line<true>(p);
      }
    } else {
      for (; p < end; p += kLine) {
        prefetch_line<false>(p);
      }
    }
  }
}

GroupStream::Next
GroupStream::next(std::initializer_list<const void*> bases) noexcept {
  Next out;
  int r = 0;
  for (const void* base : bases) {
    out.base[r++] = reinterpret_cast<const char*>(
        reinterpret_cast<std::uintptr_t>(base) & ~std::uintptr_t{kLine - 1});
  }
  return out;
}

} // namespace iatf::plan
