// The size-class scheduler's pure pieces: descriptor binning,
// round-robin slice interleaving, and work-item granularity.
#include <gtest/gtest.h>

#include "iatf/sched/group_scheduler.hpp"

namespace iatf::sched {
namespace {

ClassKey gemm_key(index_t m, index_t n, index_t k, index_t batch,
                  Op op_a = Op::NoTrans, Op op_b = Op::NoTrans) {
  return class_key<double>(GemmShape{m, n, k, op_a, op_b, batch}, 16);
}

// The per-segment state bin_by_descriptor reads and writes.
struct Binned {
  ClassKey key;
  std::size_t leader = 99;
};

std::vector<Binned> binned(const std::vector<ClassKey>& keys) {
  std::vector<Binned> segs;
  for (const ClassKey& key : keys) {
    segs.push_back({key});
  }
  return segs;
}

TEST(GroupScheduler, BinsEqualDescriptorsTogether) {
  std::vector<Binned> segs = binned(
      {gemm_key(4, 4, 4, 64), gemm_key(8, 8, 8, 32), gemm_key(4, 4, 4, 64),
       gemm_key(8, 8, 8, 32), gemm_key(4, 4, 4, 64)});
  EXPECT_EQ(bin_by_descriptor(std::span<Binned>(segs)), 2u);
  // Every segment points at the first segment of its class, so classes
  // keep first-appearance order.
  const std::vector<std::size_t> leaders{0, 1, 0, 1, 0};
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(segs[i].leader, leaders[i]) << "segment " << i;
  }
}

TEST(GroupScheduler, EveryDescriptorFieldSplitsClasses) {
  ClassKey base = gemm_key(4, 4, 4, 64);
  std::vector<ClassKey> keys(9, base);
  keys[1].m = 5;
  keys[2].k = 5;
  keys[3].op_a = static_cast<std::uint8_t>(Op::Trans);
  keys[4].batch = 32;
  keys[5].op = 't';
  keys[6].diag = 1;
  keys[7].dtype = 's';
  keys[8].bytes = 32;
  std::vector<Binned> segs = binned(keys);
  EXPECT_EQ(bin_by_descriptor(std::span<Binned>(segs)), 9u);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(segs[i].leader, i);
  }
}

TEST(GroupScheduler, BinsEmptyInput) {
  EXPECT_EQ(bin_by_descriptor(std::span<Binned>()), 0u);
}

TEST(GroupScheduler, InterleavesItemsRoundRobin) {
  // Segment 0: 4 groups in items of 2; segment 1: 1 group; segment 2:
  // 5 groups in items of 2 (last item ragged).
  const std::vector<SegmentExtent> extents{{4, 2}, {1, 1}, {5, 2}};
  const auto items = interleave_slices(extents);
  ASSERT_EQ(items.size(), 6u);
  // Round 1: one item from each segment; later rounds skip exhausted
  // segments.
  EXPECT_EQ(items[0].segment, 0u);
  EXPECT_EQ(items[0].g_begin, 0);
  EXPECT_EQ(items[0].g_end, 2);
  EXPECT_EQ(items[1].segment, 1u);
  EXPECT_EQ(items[2].segment, 2u);
  EXPECT_EQ(items[3].segment, 0u);
  EXPECT_EQ(items[3].g_begin, 2);
  EXPECT_EQ(items[4].segment, 2u);
  EXPECT_EQ(items[5].segment, 2u);
  EXPECT_EQ(items[5].g_begin, 4);
  EXPECT_EQ(items[5].g_end, 5);
}

TEST(GroupScheduler, ItemsCoverEverySegmentExactlyOnce) {
  const std::vector<SegmentExtent> extents{{7, 3}, {0, 1}, {16, 4}, {2, 5}};
  const auto items = interleave_slices(extents);
  std::vector<index_t> covered(extents.size(), 0);
  for (const WorkItem& item : items) {
    EXPECT_LT(item.g_begin, item.g_end);
    EXPECT_LE(item.g_end, extents[item.segment].groups);
    covered[item.segment] += item.g_end - item.g_begin;
  }
  for (std::size_t s = 0; s < extents.size(); ++s) {
    EXPECT_EQ(covered[s], extents[s].groups) << "segment " << s;
  }
}

TEST(GroupScheduler, LargeSegmentCannotMonopoliseThePrefix) {
  // One huge segment plus three small ones: every small segment must
  // appear within the first round of items.
  const std::vector<SegmentExtent> extents{{1000, 10}, {4, 4}, {4, 4},
                                           {4, 4}};
  const auto items = interleave_slices(extents);
  std::vector<bool> seen(extents.size(), false);
  for (std::size_t i = 0; i < 4; ++i) {
    seen[items[i].segment] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(GroupScheduler, GranularityHonoursTunedChunk) {
  EXPECT_EQ(item_granularity(100, 4, 16, 8), 16);
  // Tuned chunk clamps to the segment extent.
  EXPECT_EQ(item_granularity(10, 4, 64, 8), 10);
}

TEST(GroupScheduler, GranularityNeverFinerThanOneSlice) {
  // 2 * workers items would want granularity 1, but the L1 slice is 8.
  EXPECT_EQ(item_granularity(16, 8, 0, 8), 8);
}

TEST(GroupScheduler, GranularityTargetsTwoItemsPerWorker) {
  // 128 groups over 4 workers -> ceil(128 / 8) = 16 groups per item.
  EXPECT_EQ(item_granularity(128, 1, 0, 4), 16);
}

TEST(GroupScheduler, GranularityDegenerateInputs) {
  EXPECT_EQ(item_granularity(0, 0, 0, 0), 1);
  EXPECT_EQ(item_granularity(1, 1, 0, 16), 1);
  EXPECT_EQ(item_granularity(5, 0, 0, 1), 3); // ceil(5/2), slice floor 1
}

} // namespace
} // namespace iatf::sched
