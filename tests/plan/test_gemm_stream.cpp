// Streamed C SAVE (gemm_plan.hpp, DESIGN.md section 5.1): a beta == 0
// call with no health scan, on a plan whose operands outgrow L2, writes C
// with non-temporal stores. Every batch here is sized from the detected
// L2, so each host takes the streamed path. The cached reference is the
// same call under a health scan (ExecPolicy::Check), which never streams;
// streamed and cached outputs must be memcmp-equal.
#include <algorithm>
#include <chrono>
#include <complex>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/core/width_dispatch.hpp"
#include "iatf/parallel/thread_pool.hpp"
#include "iatf/plan/gemm_plan.hpp"
#include "iatf/plan/plan_dump.hpp"
#include "iatf/simd/isa.hpp"

namespace iatf {
namespace {

using plan::GemmPlan;

struct StreamCase {
  index_t m, n, k;
  Op op_a;
  bool every_width; ///< streams at every width, not only at 64 bytes
};

// Streams at every width: m = 4 tiles as 4 or 2 + 2, so each kernel
// call's C column is whole 64-byte lines, and n = 7 gives edge tiles.
constexpr StreamCase kEveryWidth{4, 7, 5, Op::NoTrans, true};
// Edge m tiles and a packed (transposed) A: whole lines, so streamed, at
// 64-byte registers (where one element block is a line or two).
constexpr StreamCase kWideOnly{7, 6, 3, Op::Trans, false};
constexpr StreamCase kCases[] = {kEveryWidth, kWideOnly};

GemmShape shape_of(const StreamCase& s, index_t batch) {
  return GemmShape{s.m, s.n, s.k, s.op_a, Op::NoTrans, batch};
}

/// A batch whose operands outgrow this host's L2 by half again, with a
/// partial last group.
template <class T> index_t l2_batch(const StreamCase& s, index_t pw) {
  const auto per_matrix =
      static_cast<std::size_t>(s.m * s.k + s.k * s.n + s.m * s.n) *
      sizeof(T);
  const std::size_t bytes = CacheInfo::detect().l2 * 3 / 2;
  const auto groups = static_cast<index_t>(bytes / per_matrix) / pw + 2;
  return groups * pw - pw / 2;
}

/// Seeded operands of one case at one width.
template <class T> struct Operands {
  Operands(const StreamCase& s, index_t pw, index_t batch,
           std::uint64_t seed) {
    Rng rng(seed);
    const bool ta = s.op_a != Op::NoTrans;
    a = test::random_batch<T>(ta ? s.k : s.m, ta ? s.m : s.k, batch, rng)
            .to_compact(pw);
    b = test::random_batch<T>(s.k, s.n, batch, rng).to_compact(pw);
    c = test::random_batch<T>(s.m, s.n, batch, rng).to_compact(pw);
  }
  CompactBuffer<T> a, b, c;
};

template <class T> CompactBuffer<T> copy_of(const CompactBuffer<T>& src) {
  CompactBuffer<T> out(src.rows(), src.cols(), src.batch(),
                       src.pack_width());
  std::memcpy(out.data(), src.data(), src.size() * sizeof(real_t<T>));
  return out;
}

template <class T> T test_alpha() {
  T alpha(0.75);
  if constexpr (is_complex_v<T>) {
    alpha.imag(-0.5);
  }
  return alpha;
}

template <class T>
bool same_groups(const CompactBuffer<T>& x, const CompactBuffer<T>& y,
                 index_t g0, index_t g1) {
  const auto bytes =
      static_cast<std::size_t>((g1 - g0) * x.group_stride()) *
      sizeof(real_t<T>);
  return std::memcmp(x.group_data(g0), y.group_data(g0), bytes) == 0;
}

template <class T>
void expect_same_bytes(const CompactBuffer<T>& got,
                       const CompactBuffer<T>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_TRUE(same_groups(got, want, 0, got.groups()))
      << what << ": streamed output differs from the cached one";
}

/// f(std::integral_constant<int, Bytes>) at every width the host runs.
template <class T, class F> void at_every_width(F&& f) {
  for (simd::Isa isa : simd::supported_isas()) {
    dispatch_bytes<T>(simd::isa_bytes(isa), f);
  }
}

template <class T> class GemmStreamTyped : public ::testing::Test {};
using ScalarTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(GemmStreamTyped, ScalarTypes);

template <class T, int B> void plan_fast_matches_check() {
  const index_t pw = GemmPlan<T, B>::pack_width();
  for (const StreamCase& s : kCases) {
    const index_t batch = l2_batch<T>(s, pw);
    const std::string what = "width " + std::to_string(B) + ", m=" +
                             std::to_string(s.m) + " n=" +
                             std::to_string(s.n);
    const GemmPlan<T, B> plan(shape_of(s, batch), CacheInfo::detect());
    HealthRecorder rec(batch);
    if (s.every_width || B == 64) {
      ASSERT_TRUE(plan.streams_c(T{}, nullptr)) << what;
    }
    ASSERT_FALSE(plan.streams_c(T{}, &rec)) << what;
    const Operands<T> ops(s, pw, batch, 0x5a7e + s.m);
    // beta == 0 never reads C: the streamed call starts from NaN.
    auto fast = copy_of(ops.c);
    std::fill_n(fast.data(), fast.size(),
                std::numeric_limits<real_t<T>>::quiet_NaN());
    auto check = copy_of(ops.c);
    plan.execute(ops.a, ops.b, fast, test_alpha<T>(), T{});
    plan.execute(ops.a, ops.b, check, test_alpha<T>(), T{}, &rec);
    EXPECT_EQ(std::count(rec.nonfinite_lanes().begin(),
                         rec.nonfinite_lanes().end(), 1),
              0)
        << what;
    expect_same_bytes(fast, check, what);
  }
}

TYPED_TEST(GemmStreamTyped, FastStreamsAndMatchesCheck) {
  using T = TypeParam;
  at_every_width<T>([](auto bytes) {
    plan_fast_matches_check<T, decltype(bytes)::value>();
  });
}

/// The same calls through the engine, Fast against Check, on a
/// ThreadPool(3): a single call, then a grouped call of a large segment
/// beside a serve-sized one (which never streams).
template <class T, int B> void engine_fast_matches_check() {
  const index_t pw = GemmPlan<T, B>::pack_width();
  const StreamCase& s = kEveryWidth;
  const index_t batch = l2_batch<T>(s, pw);
  const Operands<T> big(s, pw, batch, 0xb16);
  const Operands<T> small({8, 8, 8, Op::NoTrans, false}, pw, 2 * pw + 1,
                         0x5e7);
  ThreadPool pool(3);
  Engine fast;
  Engine check;
  fast.set_thread_pool(&pool);
  check.set_thread_pool(&pool);
  check.set_policy(ExecPolicy::Check);
  const std::string what = "width " + std::to_string(B);
  const bool streams =
      fast.plan_gemm<T, B>(shape_of(s, batch))->streams_c(T{}, nullptr);
  ASSERT_TRUE(streams) << what;

  const T alpha = test_alpha<T>();
  auto c_fast = copy_of(big.c);
  auto c_check = copy_of(big.c);
  fast.gemm<T, B>(s.op_a, Op::NoTrans, alpha, big.a, big.b, T{}, c_fast);
  check.gemm<T, B>(s.op_a, Op::NoTrans, alpha, big.a, big.b, T{}, c_check);
  expect_same_bytes(c_fast, c_check, what + " pool");

  auto g_fast = copy_of(big.c);
  auto g_check = copy_of(big.c);
  auto s_fast = copy_of(small.c);
  auto s_check = copy_of(small.c);
  const auto segments = [&](CompactBuffer<T>& c_big, CompactBuffer<T>& c_sm) {
    std::vector<sched::GemmSegment<T>> segs(2);
    segs[0].op_a = s.op_a;
    segs[0].alpha = alpha;
    segs[0].a = &big.a;
    segs[0].b = &big.b;
    segs[0].c = &c_big;
    segs[1].alpha = alpha;
    segs[1].a = &small.a;
    segs[1].b = &small.b;
    segs[1].c = &c_sm;
    return segs;
  };
  const auto fast_segs = segments(g_fast, s_fast);
  const auto check_segs = segments(g_check, s_check);
  fast.gemm_grouped<T, B>(std::span(fast_segs));
  check.gemm_grouped<T, B>(std::span(check_segs));
  expect_same_bytes(g_fast, g_check, what + " grouped");
  expect_same_bytes(s_fast, s_check, what + " grouped, serve-sized");
  expect_same_bytes(g_fast, c_fast, what + " grouped against single");
}

TYPED_TEST(GemmStreamTyped, PoolAndGroupedFastMatchCheck) {
  using T = TypeParam;
  at_every_width<T>([](auto bytes) {
    engine_fast_matches_check<T, decltype(bytes)::value>();
  });
}

// A deadline that stops a streamed walk leaves the groups it completed
// equal to a full run's (the fence runs on the throw) and the rest
// untouched.
TEST(GemmStream, ExpiredDeadlineKeepsCompletedGroups) {
  using T = double;
  dispatch_bytes<T>(simd::active_bytes(), [](auto bytes) {
    constexpr int B = decltype(bytes)::value;
    const index_t pw = GemmPlan<T, B>::pack_width();
    const StreamCase& s = kEveryWidth;
    const index_t batch = l2_batch<T>(s, pw);
    plan::PlanTuning one_group_slices;
    one_group_slices.slice_override = 1;
    const GemmPlan<T, B> plan(shape_of(s, batch), CacheInfo::detect(),
                              one_group_slices);
    ASSERT_TRUE(plan.streams_c(T{}, nullptr));
    const Operands<T> ops(s, pw, batch, 0xdead);
    auto whole = copy_of(ops.c);
    plan.execute(ops.a, ops.b, whole, 1.5, 0.0);
    const index_t groups = whole.groups();
    for (const long budget_us : {0L, 20L, 100L, 400L}) {
      auto out = copy_of(ops.c);
      const Deadline deadline =
          Deadline::in(std::chrono::microseconds(budget_us));
      try {
        plan.execute(ops.a, ops.b, out, 1.5, 0.0, nullptr, &deadline);
        EXPECT_TRUE(same_groups(out, whole, 0, groups));
      } catch (const TimeoutError& e) {
        const index_t done = e.completed();
        ASSERT_LT(done, groups);
        EXPECT_TRUE(same_groups(out, whole, 0, done))
            << "budget " << budget_us << " us: groups before the stop";
        EXPECT_TRUE(same_groups(out, ops.c, done, groups))
            << "budget " << budget_us << " us: groups after the stop";
      }
    }
  });
}

// The decision, from the input alone: beta != 0, a health scan, a
// serve-sized batch and a SAVE of partial lines all keep the cached
// store; plan::dump prints it.
TEST(GemmStream, OnlyUnreadLargeWholeLineOutputStreams) {
  const CacheInfo cache = CacheInfo::detect();
  const index_t batch = l2_batch<float>(kEveryWidth, 4);
  const GemmPlan<float, 16> large(shape_of(kEveryWidth, batch), cache);
  HealthRecorder rec(batch);
  EXPECT_TRUE(large.streams_c(0.0f, nullptr));
  EXPECT_FALSE(large.streams_c(0.5f, nullptr));
  EXPECT_FALSE(large.streams_c(0.0f, &rec));
  EXPECT_NE(plan::dump(large).find("C save: streamed"), std::string::npos);

  const GemmPlan<float, 16> serve(
      GemmShape{8, 8, 8, Op::NoTrans, Op::NoTrans, 64}, cache);
  EXPECT_FALSE(serve.streams_c(0.0f, nullptr));
  EXPECT_NE(plan::dump(serve).find("C save: cached"), std::string::npos);

  // 16-byte floats, m = 6 tiled 4 + 2: the 2-row tile's SAVE writes half
  // lines, which the next m tile's call completes later.
  const GemmPlan<float, 16> partial(
      GemmShape{6, 8, 8, Op::NoTrans, Op::NoTrans,
                l2_batch<float>({6, 8, 8, Op::NoTrans, false}, 4)},
      cache);
  EXPECT_FALSE(partial.streams_c(0.0f, nullptr));
}

} // namespace
} // namespace iatf
