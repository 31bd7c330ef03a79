// Next-group stream (plan/group_stream.hpp): the build-time gate on both
// sides of each threshold, the per-step line schedule, and bit-identity
// of a streaming execute() against a per-group execute_range(g, g + 1)
// loop -- which never has a next group, so it never prefetches. The
// bit-identity cases run at the active backend's width with NaN/Inf and
// singular lanes seeded, so the hazard scans are compared too.
#include <complex>
#include <cstring>
#include <limits>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "../factor/factor_testutil.hpp"
#include "../testutil.hpp"
#include "iatf/core/width_dispatch.hpp"
#include "iatf/factor/factor_plan.hpp"
#include "iatf/factor/packed_handle.hpp"
#include "iatf/plan/gemm_plan.hpp"
#include "iatf/plan/group_stream.hpp"
#include "iatf/plan/trsm_plan.hpp"
#include "iatf/simd/isa.hpp"

namespace iatf {
namespace {

using factor::FactorOp;
using factor::FactorPlan;
using factor::FactorShape;
using plan::GemmPlan;
using plan::GroupStream;
using plan::TrsmPlan;

/// This host's L1 with the paper platform's L2 (512 KiB).
CacheInfo test_cache() {
  CacheInfo cache;
  cache.l1d = 48 * 1024;
  return cache;
}

/// A small L2 so a 17-group batch passes the footprint gate at every
/// width: the bit-identity cases stay small enough for the sanitizers.
CacheInfo small_l2() {
  CacheInfo cache = test_cache();
  cache.l2 = 64 * 1024;
  return cache;
}

constexpr index_t kGroups = 17;

/// kGroups interleave groups, the last one ragged when the width allows.
index_t ragged_batch(index_t pw) { return (kGroups - 1) * pw + (pw + 1) / 2; }

template <class T> T nan_value() {
  return T(std::numeric_limits<real_t<T>>::quiet_NaN());
}

template <class T>
void expect_same_bytes(const CompactBuffer<T>& got,
                       const CompactBuffer<T>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(real_t<T>)),
            0)
      << what << ": streamed output differs from the per-group walk";
}

void expect_same_health(const HealthRecorder& got, const HealthRecorder& want,
                        index_t batch, const std::string& what) {
  EXPECT_EQ(got.singular_lanes(), want.singular_lanes()) << what;
  EXPECT_EQ(got.nonfinite_lanes(), want.nonfinite_lanes()) << what;
  BatchHealth hg;
  BatchHealth hw;
  hg.batch = hw.batch = batch;
  got.fill(hg);
  want.fill(hw);
  EXPECT_EQ(hg.nonfinite, hw.nonfinite) << what;
  EXPECT_EQ(hg.first_nonfinite, hw.first_nonfinite) << what;
  EXPECT_EQ(hg.singular, hw.singular) << what;
  EXPECT_EQ(hg.first_singular, hw.first_singular) << what;
}

/// Run `f` with the active backend's width as integral_constant<int, B>.
template <class T, class F> void at_active_width(F&& f) {
  dispatch_width<T>(simd::active_pack_width<T>(), std::forward<F>(f));
}

// --- Gate -------------------------------------------------------------

TEST(GroupStreamGate, PageBytesIsTheSystemPageSize) {
  EXPECT_EQ(plan::page_bytes(),
            static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)));
}

TEST(GroupStreamGate, BothGatesMustHold) {
  const CacheInfo cache = test_cache();
  const std::size_t page = plan::page_bytes();
  EXPECT_TRUE(plan::stream_next_group(page + 1, cache.l2 + 1, cache));
  // A group of exactly one page stays on the non-streaming walk.
  EXPECT_FALSE(plan::stream_next_group(page, cache.l2 + 1, cache));
  EXPECT_FALSE(plan::stream_next_group(page + 1, cache.l2, cache));
  EXPECT_FALSE(plan::stream_next_group(page, cache.l2, cache));
}

template <int B> bool gemm_streams(index_t n, Op op_a, index_t batch) {
  return GemmPlan<double, B>(GemmShape{n, n, n, op_a, Op::NoTrans, batch},
                             test_cache())
      .streams_next_group();
}

// d GEMM at 64-byte lanes: one n x n group is n * n * 64 bytes, so n = 4
// (1 KiB) and n = 8 (exactly 4 KiB) stay put while n = 16 (16 KiB)
// streams; a 2-group batch fits in L2 while batch 16384 does not.
TEST(GroupStreamGate, GemmPageAndFootprintThresholds) {
  if (plan::page_bytes() != 4096) {
    GTEST_SKIP() << "thresholds below assume 4 KiB pages";
  }
  const index_t pw = GemmPlan<double, 64>::pack_width();
  EXPECT_FALSE(gemm_streams<64>(4, Op::NoTrans, 16384));
  EXPECT_FALSE(gemm_streams<64>(8, Op::NoTrans, 16384));
  EXPECT_TRUE(gemm_streams<64>(16, Op::NoTrans, 16384));
  EXPECT_FALSE(gemm_streams<64>(16, Op::NoTrans, 2 * pw));
  EXPECT_FALSE(gemm_streams<64>(4, Op::NoTrans, 2 * pw));
  // The packed (TN) path takes the same decision.
  EXPECT_TRUE(gemm_streams<64>(16, Op::Trans, 16384));
  // 128-bit lanes: d n = 16 is exactly one page, n = 17 crosses it.
  EXPECT_FALSE(gemm_streams<16>(16, Op::NoTrans, 16384));
  EXPECT_TRUE(gemm_streams<16>(17, Op::NoTrans, 16384));
}

TEST(GroupStreamGate, TrsmAndFactorThresholds) {
  if (plan::page_bytes() != 4096) {
    GTEST_SKIP() << "thresholds below assume 4 KiB pages";
  }
  const CacheInfo cache = test_cache();
  const auto trsm = [&](index_t n, index_t batch) {
    TrsmShape shape;
    shape.m = n;
    shape.n = n;
    shape.batch = batch;
    return TrsmPlan<double, 64>(shape, cache).streams_next_group();
  };
  const auto potrf = [&](index_t n, index_t batch) {
    return FactorPlan<double, 64>(
               FactorShape{FactorOp::Potrf, n, Uplo::Lower, Diag::NonUnit,
                           batch},
               cache)
        .streams_next_group();
  };
  const index_t pw = TrsmPlan<double, 64>::pack_width();
  EXPECT_FALSE(trsm(4, 16384));
  EXPECT_TRUE(trsm(16, 16384));
  EXPECT_FALSE(trsm(16, 2 * pw));
  EXPECT_FALSE(potrf(4, 16384));
  EXPECT_TRUE(potrf(16, 16384));
  EXPECT_FALSE(potrf(16, 2 * pw));
}

// At the active width (the isa-matrix legs force 128/256/512-bit lanes),
// d n = 16 streams exactly when its group crosses a page: at 128-bit
// lanes the group is exactly 4 KiB, the gate's boundary.
TEST(GroupStreamGate, ActiveWidthPageBoundary) {
  at_active_width<double>([&](auto bytes) {
    constexpr int B = decltype(bytes)::value;
    const GemmPlan<double, B> plan(
        GemmShape{16, 16, 16, Op::NoTrans, Op::NoTrans, 16384},
        test_cache());
    const std::size_t group_bytes = 16 * 16 * B;
    EXPECT_EQ(plan.streams_next_group(), group_bytes > plan::page_bytes())
        << "width " << B << " bytes";
  });
}

TEST(GroupStreamSchedule, StepsSliceEveryOperandInOrder) {
  // A: 10 lines over 4 steps -> 2, 3, 2, 3; C: a partial last line
  // rounds up (3 lines), so one step gets none of it.
  constexpr std::size_t kLine = GroupStream::kLine;
  const GroupStream::Segment segments[] = {{0, 0, 10 * kLine, false},
                                           {1, 0, 2 * kLine + 8, true}};
  const GroupStream stream(segments, 4);
  ASSERT_TRUE(stream.active());
  ASSERT_EQ(stream.steps(), 4u);
  const std::uint32_t a_counts[] = {2, 3, 2, 3};
  const std::uint32_t c_counts[] = {0, 1, 1, 1};
  std::uint32_t a_next = 0;
  std::uint32_t c_next = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (const GroupStream::Piece& piece : stream.pieces(i)) {
      if (piece.operand == 0) {
        EXPECT_FALSE(piece.write);
        EXPECT_EQ(piece.first, a_next);
        EXPECT_EQ(piece.count, a_counts[i]);
        a_next += piece.count;
      } else {
        EXPECT_TRUE(piece.write);
        EXPECT_EQ(piece.first, c_next);
        EXPECT_EQ(piece.count, c_counts[i]);
        c_next += piece.count;
      }
    }
  }
  EXPECT_EQ(a_next, 10u);
  EXPECT_EQ(c_next, 3u);
  EXPECT_FALSE(GroupStream().active());
  EXPECT_FALSE(GroupStream(segments, 0).active());
  // Stepping through every step (and one past the end, which a cursor
  // ignores) only prefetches lines of the operands.
  alignas(64) static char a[10 * kLine];
  alignas(64) static char c[3 * kLine];
  plan::StreamCursor cursor(stream, true, {a, c});
  for (int i = 0; i < 5; ++i) {
    cursor.step();
  }
}

TEST(GroupStreamSchedule, TriangleSegmentsPrefetchEachLineOnce) {
  // Lower triangle of a 4 x 4 group of one-line elements: columns hold
  // 4, 3, 2, 1 lines (10 in all); the upper triangle 1, 2, 3, 4.
  constexpr std::size_t kLine = GroupStream::kLine;
  // Any number of steps prefetches the same lines, in order.
  for (const bool lower : {true, false}) {
    const auto segments = plan::triangle_segments(0, 4, kLine, lower, true);
    ASSERT_EQ(segments.size(), 4u);
    const std::vector<std::uint32_t> want =
        lower ? std::vector<std::uint32_t>{0, 1, 2, 3, 5, 6, 7, 10, 11, 15}
              : std::vector<std::uint32_t>{0, 4, 5, 8, 9, 10, 12, 13, 14, 15};
    for (const std::size_t steps : {1u, 3u, 7u, 12u}) {
      const GroupStream stream(segments, steps);
      std::vector<std::uint32_t> lines;
      for (std::size_t i = 0; i < steps; ++i) {
        for (const GroupStream::Piece& piece : stream.pieces(i)) {
          EXPECT_TRUE(piece.write);
          for (std::uint32_t l = 0; l < piece.count; ++l) {
            lines.push_back(piece.first + l);
          }
        }
      }
      EXPECT_EQ(lines, want) << (lower ? "lower" : "upper") << " over "
                             << steps << " steps";
    }
  }
  // 8-byte elements: the 128-byte group is 2 lines and consecutive
  // columns share them; each line is prefetched once.
  const auto small = plan::triangle_segments(0, 4, 8, true, false);
  const GroupStream stream(small, 1);
  ASSERT_EQ(stream.pieces(0).size(), 1u);
  EXPECT_EQ(stream.pieces(0)[0].first, 0u);
  EXPECT_EQ(stream.pieces(0)[0].count, 2u);
}

// --- Bit identity: streaming execute vs a per-group walk -----------------

template <class T> class GroupStreamTyped : public ::testing::Test {};
using ScalarTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(GroupStreamTyped, ScalarTypes);

template <class T, int B> void gemm_bit_identity(Op op_a, index_t n) {
  const index_t pw = GemmPlan<T, B>::pack_width();
  const index_t batch = ragged_batch(pw);
  Rng rng(0x57e4 + static_cast<std::uint64_t>(n));
  auto a = test::random_batch<T>(n, n, batch, rng);
  auto b = test::random_batch<T>(n, n, batch, rng);
  auto c = test::random_batch<T>(n, n, batch, rng);
  a.mat(1)[0] = nan_value<T>();
  b.mat(batch - 1)[n + 1] = T(std::numeric_limits<real_t<T>>::infinity());
  c.mat(batch / 2)[3] = nan_value<T>();

  const GemmPlan<T, B> plan(
      GemmShape{n, n, n, op_a, Op::NoTrans, batch}, small_l2());
  ASSERT_TRUE(plan.streams_next_group()) << "width " << B;
  const auto ca = a.to_compact(pw);
  const auto cb = b.to_compact(pw);
  auto streamed = c.to_compact(pw);
  auto walked = c.to_compact(pw);
  HealthRecorder hs(batch);
  HealthRecorder hw(batch);
  const T alpha = T(0.75);
  const T beta = T(-0.5);
  plan.execute(ca, cb, streamed, alpha, beta, &hs);
  for (index_t g = 0; g < walked.groups(); ++g) {
    plan.execute_range(ca, cb, walked, alpha, beta, g, g + 1, &hw);
  }
  const std::string what = "gemm width " + std::to_string(B);
  expect_same_bytes(streamed, walked, what);
  expect_same_health(hs, hw, batch, what);
  EXPECT_TRUE(hs.flagged(1) && hs.flagged(batch - 1) &&
              hs.flagged(batch / 2))
      << what;
}

TYPED_TEST(GroupStreamTyped, GemmNNStreamedMatchesPerGroupWalk) {
  using T = TypeParam;
  at_active_width<T>([&](auto bytes) {
    gemm_bit_identity<T, decltype(bytes)::value>(Op::NoTrans, 24);
  });
}

TEST(GroupStream, GemmTNPackedStreamedMatchesPerGroupWalk) {
  at_active_width<double>([&](auto bytes) {
    gemm_bit_identity<double, decltype(bytes)::value>(Op::Trans, 24);
  });
}

template <class T, int B>
void trsm_bit_identity(Uplo uplo, Op op_a, index_t n) {
  const index_t pw = TrsmPlan<T, B>::pack_width();
  const index_t batch = ragged_batch(pw);
  Rng rng(0x7e57 + static_cast<std::uint64_t>(n));
  auto a = test::random_triangular_batch<T>(n, batch, rng);
  auto b = test::random_batch<T>(n, n, batch, rng);
  a.mat(2)[(n / 2) * n + n / 2] = T(0); // singular lane
  b.mat(batch - 1)[n] = nan_value<T>();

  TrsmShape shape;
  shape.m = n;
  shape.n = n;
  shape.uplo = uplo;
  shape.op_a = op_a;
  shape.batch = batch;
  const TrsmPlan<T, B> plan(shape, small_l2());
  ASSERT_TRUE(plan.streams_next_group()) << "width " << B;
  auto ca = a.to_compact(pw);
  ca.pad_identity();
  auto streamed = b.to_compact(pw);
  auto walked = b.to_compact(pw);
  HealthRecorder hs(batch);
  HealthRecorder hw(batch);
  const T alpha = T(1.5);
  plan.execute(ca, streamed, alpha, &hs);
  for (index_t g = 0; g < walked.groups(); ++g) {
    plan.execute_range(ca, walked, alpha, g, g + 1, &hw);
  }
  const std::string what = "trsm width " + std::to_string(B);
  expect_same_bytes(streamed, walked, what);
  expect_same_health(hs, hw, batch, what);
  EXPECT_TRUE(hs.flagged(2) && hs.flagged(batch - 1)) << what;
}

TEST(GroupStream, TrsmLNLNStreamedMatchesPerGroupWalk) {
  at_active_width<double>([&](auto bytes) {
    trsm_bit_identity<double, decltype(bytes)::value>(Uplo::Lower,
                                                      Op::NoTrans, 24);
  });
}

TEST(GroupStream, TrsmLTUNStreamedMatchesPerGroupWalk) {
  at_active_width<double>([&](auto bytes) {
    trsm_bit_identity<double, decltype(bytes)::value>(Uplo::Upper,
                                                      Op::Trans, 24);
  });
}

template <class T, int B> void factor_bit_identity(FactorOp op, index_t n) {
  const index_t pw = simd::pack_width_bytes_v<T, B>;
  const index_t batch = ragged_batch(pw);
  Rng rng(0xfac7 + static_cast<std::uint64_t>(n));
  auto host = op == FactorOp::Potrf
                  ? test::random_spd_batch<T>(n, batch, rng)
                  : test::random_diag_dominant_batch<T>(n, batch, rng);
  host.mat(3)[0] = T(0);                           // bad first pivot
  host.mat(batch - 1)[2 * n + 5] = nan_value<T>(); // non-finite lane

  const FactorPlan<T, B> plan(
      FactorShape{op, n, Uplo::Lower, Diag::NonUnit, batch}, small_l2());
  ASSERT_TRUE(plan.streams_next_group()) << "width " << B;
  factor::PackedHandle<T> streamed(host.to_compact(pw));
  factor::PackedHandle<T> walked(host.to_compact(pw));
  streamed.buffer().pad_identity();
  walked.buffer().pad_identity();
  HealthRecorder hs(batch);
  HealthRecorder hw(batch);
  plan.execute(streamed.buffer(), &hs, nullptr);
  for (index_t g = 0; g < walked.buffer().groups(); ++g) {
    plan.execute_range(walked.buffer(), g, g + 1, &hw, nullptr);
  }
  const std::string what = "factor width " + std::to_string(B);
  expect_same_bytes(streamed.buffer(), walked.buffer(), what);
  expect_same_health(hs, hw, batch, what);
  EXPECT_TRUE(hs.flagged(3)) << what;
}

TEST(GroupStream, PotrfOnPackedHandleStreamedMatchesPerGroupWalk) {
  at_active_width<double>([&](auto bytes) {
    factor_bit_identity<double, decltype(bytes)::value>(FactorOp::Potrf, 24);
  });
}

TEST(GroupStream, GetrfNpOnPackedHandleStreamedMatchesPerGroupWalk) {
  at_active_width<double>([&](auto bytes) {
    factor_bit_identity<double, decltype(bytes)::value>(FactorOp::GetrfNp,
                                                        24);
  });
}

} // namespace
} // namespace iatf
