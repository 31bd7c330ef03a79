#include "iatf/sched/group_scheduler.hpp"

#include <algorithm>

#include "iatf/common/fault_inject.hpp"

namespace iatf::sched {

std::vector<WorkItem> interleave_slices(
    std::span<const SegmentExtent> extents) {
  IATF_FAULT_POINT("sched.interleave", Status::Internal);
  fault::stall_if_armed("sched.interleave");
  std::vector<WorkItem> items;
  index_t total_items = 0;
  for (const SegmentExtent& e : extents) {
    if (e.groups > 0) {
      const index_t per = e.item_groups > 0 ? e.item_groups : 1;
      total_items += (e.groups + per - 1) / per;
    }
  }
  items.reserve(static_cast<std::size_t>(total_items));

  // Round-robin over segments: emit each segment's next group range, in
  // rounds, until every segment is exhausted.
  std::vector<index_t> cursor(extents.size(), 0);
  bool emitted = true;
  while (emitted) {
    emitted = false;
    for (std::size_t s = 0; s < extents.size(); ++s) {
      const SegmentExtent& e = extents[s];
      if (cursor[s] >= e.groups) {
        continue;
      }
      const index_t per = e.item_groups > 0 ? e.item_groups : 1;
      const index_t g0 = cursor[s];
      const index_t g1 = std::min<index_t>(g0 + per, e.groups);
      items.push_back(WorkItem{s, g0, g1});
      cursor[s] = g1;
      emitted = true;
    }
  }
  return items;
}

index_t item_granularity(index_t seg_groups, index_t slice_groups,
                         index_t tuned_chunk, index_t workers) {
  const index_t hi = std::max<index_t>(seg_groups, 1);
  if (tuned_chunk > 0) {
    return std::clamp<index_t>(tuned_chunk, 1, hi);
  }
  const index_t w = std::max<index_t>(workers, 1);
  const index_t target = (seg_groups + 2 * w - 1) / (2 * w);
  const index_t floor = std::max<index_t>(slice_groups, 1);
  return std::clamp<index_t>(std::max(target, floor), 1, hi);
}

} // namespace iatf::sched
