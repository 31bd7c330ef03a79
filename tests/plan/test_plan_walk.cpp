// The slice-walk contract every compact plan keeps (DESIGN.md section
// 5.1), checked one way on GEMM, TRSM, TRMM and the potrf, getrf_np and
// trtri factor plans, at the active backend's width:
//   * an execute_range not within [0, groups) throws InvalidArg;
//   * an expired deadline throws TimeoutError(0, groups in the range)
//     before the first slice and leaves the output untouched; a deadline
//     that expires mid-walk stops at a slice boundary (a group boundary
//     for factor plans, whose slice is one group), with every group
//     before it complete and every group after it untouched;
//   * execute() is byte-identical to execute_range over an uneven split
//     that is not aligned to slice_groups(), hazard flags included, on
//     streaming and non-streaming plans;
//   * batch-0 and m = 0 shapes run.
#include <chrono>
#include <complex>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../factor/factor_testutil.hpp"
#include "../testutil.hpp"
#include "iatf/common/error.hpp"
#include "iatf/core/width_dispatch.hpp"
#include "iatf/factor/factor_plan.hpp"
#include "iatf/plan/gemm_plan.hpp"
#include "iatf/plan/trsm_plan.hpp"
#include "iatf/simd/isa.hpp"

namespace iatf {
namespace {

using factor::FactorOp;
using factor::FactorPlan;
using factor::FactorShape;
using plan::GemmPlan;
using plan::PlanTuning;
using plan::TrsmPlan;

/// L1 of this host class; a small L2 so the streaming cases pass the
/// footprint gate at every width while staying small for the sanitizers.
CacheInfo test_cache(bool small_l2) {
  CacheInfo cache;
  cache.l1d = 48 * 1024;
  if (small_l2) {
    cache.l2 = 64 * 1024;
  }
  return cache;
}

constexpr index_t kGroups = 17;

/// kGroups interleave groups, the last one ragged when the width allows.
index_t ragged_batch(index_t pw) { return (kGroups - 1) * pw + (pw + 1) / 2; }

template <class T> T nan_value() {
  return T(std::numeric_limits<real_t<T>>::quiet_NaN());
}

/// Several slices in a 17-group batch, none of them aligned to the
/// split below.
PlanTuning three_group_slices() {
  PlanTuning tuning;
  tuning.slice_override = 3;
  return tuning;
}

template <class T, int B> struct GemmCase {
  using Plan = GemmPlan<T, B>;
  static constexpr int bytes = B;

  GemmCase(index_t m, index_t n, index_t k, Op op_a, index_t batch,
           const CacheInfo& cache, const PlanTuning& tuning = {})
      : plan(GemmShape{m, n, k, op_a, Op::NoTrans, batch}, cache, tuning) {
    Rng rng(0x9e11 + static_cast<std::uint64_t>(m * 64 + k));
    const bool ta = op_a != Op::NoTrans;
    auto ha = test::random_batch<T>(ta ? k : m, ta ? m : k, batch, rng);
    auto hb = test::random_batch<T>(k, n, batch, rng);
    c = test::random_batch<T>(m, n, batch, rng);
    if (batch > 2 && m * n > 0) {
      c.mat(batch / 2)[0] = nan_value<T>();
    }
    a = ha.to_compact(Plan::pack_width());
    b = hb.to_compact(Plan::pack_width());
  }

  CompactBuffer<T> input() const { return c.to_compact(Plan::pack_width()); }
  void run(CompactBuffer<T>& out, index_t g0, index_t g1,
           HealthRecorder* rec, const Deadline* deadline) const {
    plan.execute_range(a, b, out, T(0.75), T(-0.5), g0, g1, rec, deadline);
  }
  void run_all(CompactBuffer<T>& out, HealthRecorder* rec) const {
    plan.execute(a, b, out, T(0.75), T(-0.5), rec);
  }

  Plan plan;
  CompactBuffer<T> a, b;
  test::HostBatch<T> c;
};

template <class T, int B> struct TriCase {
  using Plan = TrsmPlan<T, B>;
  static constexpr int bytes = B;

  TriCase(TriOp op, Side side, Uplo uplo, Op op_a, index_t m, index_t n,
          index_t batch, const CacheInfo& cache,
          const PlanTuning& tuning = {})
      : plan(shape_of(op, side, uplo, op_a, m, n, batch), cache, tuning) {
    const index_t dim = plan.shape().a_dim();
    Rng rng(0x7121 + static_cast<std::uint64_t>(dim * 64 + n));
    auto ha = test::random_triangular_batch<T>(dim, batch, rng);
    if (batch > 2 && dim > 1) {
      ha.mat(2)[(dim / 2) * dim + dim / 2] = T(0); // singular lane
    }
    a = ha.to_compact(Plan::pack_width());
    a.pad_identity();
    b = test::random_batch<T>(m, n, batch, rng);
  }

  static TrsmShape shape_of(TriOp op, Side side, Uplo uplo, Op op_a,
                            index_t m, index_t n, index_t batch) {
    TrsmShape s;
    s.m = m;
    s.n = n;
    s.side = side;
    s.uplo = uplo;
    s.op_a = op_a;
    s.batch = batch;
    s.op = op;
    return s;
  }

  CompactBuffer<T> input() const { return b.to_compact(Plan::pack_width()); }
  void run(CompactBuffer<T>& out, index_t g0, index_t g1,
           HealthRecorder* rec, const Deadline* deadline) const {
    plan.execute_range(a, out, T(1.5), g0, g1, rec, deadline);
  }
  void run_all(CompactBuffer<T>& out, HealthRecorder* rec) const {
    plan.execute(a, out, T(1.5), rec);
  }

  Plan plan;
  CompactBuffer<T> a;
  test::HostBatch<T> b;
};

template <class T, int B> struct FactorCase {
  using Plan = FactorPlan<T, B>;
  static constexpr int bytes = B;

  FactorCase(FactorOp op, index_t m, index_t batch, const CacheInfo& cache)
      : plan(FactorShape{op, m, Uplo::Lower, Diag::NonUnit, batch}, cache) {
    Rng rng(0xfac7 + static_cast<std::uint64_t>(m));
    switch (op) {
    case FactorOp::Potrf:
      host = test::random_spd_batch<T>(m, batch, rng);
      break;
    case FactorOp::GetrfNp:
      host = test::random_diag_dominant_batch<T>(m, batch, rng);
      break;
    case FactorOp::Trtri:
      host = test::random_triangular_batch<T>(m, batch, rng);
      break;
    }
    if (batch > 3 && m > 0) {
      host.mat(3)[0] = T(0); // bad first pivot
    }
  }

  CompactBuffer<T> input() const {
    CompactBuffer<T> buf = host.to_compact(pack_width());
    buf.pad_identity();
    return buf;
  }
  void run(CompactBuffer<T>& out, index_t g0, index_t g1,
           HealthRecorder* rec, const Deadline* deadline) const {
    plan.execute_range(out, g0, g1, rec, deadline);
  }
  void run_all(CompactBuffer<T>& out, HealthRecorder* rec) const {
    plan.execute(out, rec, nullptr);
  }
  static index_t pack_width() { return simd::pack_width_bytes_v<T, B>; }

  Plan plan;
  test::HostBatch<T> host;
};

template <class T>
bool same_bytes(const CompactBuffer<T>& x, const CompactBuffer<T>& y,
                index_t g_begin, index_t g_end) {
  const index_t stride = x.group_stride();
  if (g_end <= g_begin || stride == 0) {
    return true; // memcmp may not take the null data of an empty buffer
  }
  return std::memcmp(x.data() + g_begin * stride,
                     y.data() + g_begin * stride,
                     static_cast<std::size_t>((g_end - g_begin) * stride) *
                         sizeof(real_t<T>)) == 0;
}

template <class Case> void expect_range_checked(const Case& k) {
  auto out = k.input();
  const index_t groups = out.groups();
  const std::pair<index_t, index_t> bad[] = {
      {-1, 1}, {2, 1}, {0, groups + 1}, {groups + 1, groups + 2}};
  for (const auto& [g0, g1] : bad) {
    try {
      k.run(out, g0, g1, nullptr, nullptr);
      ADD_FAILURE() << "range [" << g0 << ", " << g1 << ") of " << groups
                    << " groups ran";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::InvalidArg)
          << "[" << g0 << ", " << g1 << "): " << e.what();
    }
  }
  EXPECT_TRUE(same_bytes(out, k.input(), 0, groups))
      << "a refused range wrote the output";
}

template <class Case> void expect_expired_deadline_stops_first(const Case& k) {
  auto out = k.input();
  const index_t groups = out.groups();
  ASSERT_GT(groups, 1);
  const Deadline expired{std::chrono::steady_clock::now() -
                         std::chrono::seconds(1)};
  try {
    k.run(out, 1, groups, nullptr, &expired);
    ADD_FAILURE() << "an expired deadline did not stop the walk";
  } catch (const TimeoutError& e) {
    EXPECT_EQ(e.completed(), 0);
    EXPECT_EQ(e.total(), groups - 1);
  }
  EXPECT_TRUE(same_bytes(out, k.input(), 0, groups));
}

/// Deadlines that may expire anywhere in the walk: whenever one stops
/// it, the stop is on a slice boundary with the groups before it
/// complete and the groups after it untouched.
template <class Case> void expect_stop_on_slice_boundary(const Case& k) {
  auto whole = k.input();
  k.run_all(whole, nullptr);
  const index_t groups = whole.groups();
  const index_t slice = k.plan.slice_groups();
  for (const long budget_us : {0L, 5L, 20L, 100L}) {
    auto out = k.input();
    const Deadline deadline =
        Deadline::in(std::chrono::microseconds(budget_us));
    try {
      k.run(out, 0, groups, nullptr, &deadline);
      EXPECT_TRUE(same_bytes(out, whole, 0, groups));
    } catch (const TimeoutError& e) {
      const index_t done = e.completed();
      EXPECT_EQ(e.total(), groups);
      ASSERT_LT(done, groups);
      EXPECT_EQ(done % slice, 0) << "stopped inside a slice of " << slice;
      EXPECT_TRUE(same_bytes(out, whole, 0, done))
          << "groups before the stop are incomplete";
      EXPECT_TRUE(same_bytes(out, k.input(), done, groups))
          << "groups after the stop were written";
    }
  }
}

template <class Case> void expect_split_matches_whole(const Case& k) {
  auto whole = k.input();
  const index_t batch = whole.batch();
  HealthRecorder rw(batch);
  k.run_all(whole, &rw);
  const index_t groups = whole.groups();
  const index_t slice = k.plan.slice_groups();
  // [0, c1) [c1, c1) [c1, c2) [c2, groups): the first cut falls inside
  // the first slice when slices hold several groups, the second one past
  // a slice boundary.
  const index_t c1 = std::min<index_t>(groups, slice > 1 ? slice - 1 : 2);
  const index_t c2 = std::min<index_t>(groups, c1 + slice + 2);
  auto split = k.input();
  HealthRecorder rs(batch);
  k.run(split, 0, c1, &rs, nullptr);
  k.run(split, c1, c1, &rs, nullptr);
  k.run(split, c1, c2, &rs, nullptr);
  k.run(split, c2, groups, &rs, nullptr);
  EXPECT_TRUE(same_bytes(split, whole, 0, groups))
      << "split at " << c1 << ", " << c2 << " of " << groups
      << " groups, slices of " << slice;
  EXPECT_EQ(rs.singular_lanes(), rw.singular_lanes());
  EXPECT_EQ(rs.nonfinite_lanes(), rw.nonfinite_lanes());
}

template <class Case> void expect_contract(const Case& k) {
  SCOPED_TRACE(std::string("width ") + std::to_string(Case::bytes) +
               (k.plan.streams_next_group() ? ", streaming" : ""));
  expect_range_checked(k);
  expect_expired_deadline_stops_first(k);
  expect_stop_on_slice_boundary(k);
  expect_split_matches_whole(k);
}

/// Empty shapes build and run; their range is still checked.
template <class Case> void expect_empty_runs(const Case& k) {
  auto out = k.input();
  k.run_all(out, nullptr);
  k.run(out, 0, out.groups(), nullptr, nullptr);
  EXPECT_THROW(k.run(out, 0, out.groups() + 1, nullptr, nullptr), Error);
}

template <class T, class F> void at_active_width(F&& f) {
  dispatch_width<T>(simd::active_pack_width<T>(), std::forward<F>(f));
}

template <class T> class PlanWalkTyped : public ::testing::Test {};
using ScalarTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(PlanWalkTyped, ScalarTypes);

TYPED_TEST(PlanWalkTyped, Gemm) {
  using T = TypeParam;
  at_active_width<T>([&](auto bytes) {
    constexpr int B = decltype(bytes)::value;
    const index_t batch = ragged_batch(simd::pack_width_bytes_v<T, B>);
    expect_contract(GemmCase<T, B>(5, 4, 3, Op::NoTrans, batch,
                                   test_cache(false),
                                   three_group_slices()));
    expect_contract(GemmCase<T, B>(5, 4, 3, Op::Trans, batch,
                                   test_cache(false),
                                   three_group_slices()));
    expect_contract(GemmCase<T, B>(7, 6, 5, Op::ConjTrans, batch,
                                   test_cache(false)));
  });
}

TEST(PlanWalk, GemmStreaming) {
  at_active_width<double>([&](auto bytes) {
    constexpr int B = decltype(bytes)::value;
    const GemmCase<double, B> k(24, 24, 24, Op::Trans,
                                ragged_batch(GemmPlan<double, B>::pack_width()),
                                test_cache(true));
    ASSERT_TRUE(k.plan.streams_next_group());
    expect_contract(k);
  });
}

TYPED_TEST(PlanWalkTyped, TriangularSolveAndMultiply) {
  using T = TypeParam;
  at_active_width<T>([&](auto bytes) {
    constexpr int B = decltype(bytes)::value;
    const index_t batch = ragged_batch(simd::pack_width_bytes_v<T, B>);
    for (const TriOp op : {TriOp::Solve, TriOp::Multiply}) {
      // In place (LNLN), and gathered through the packed B (RUTN).
      expect_contract(TriCase<T, B>(op, Side::Left, Uplo::Lower,
                                    Op::NoTrans, 6, 4, batch,
                                    test_cache(false),
                                    three_group_slices()));
      expect_contract(TriCase<T, B>(op, Side::Right, Uplo::Upper, Op::Trans,
                                    4, 7, batch, test_cache(false),
                                    three_group_slices()));
      expect_contract(TriCase<T, B>(op, Side::Left, Uplo::Upper, Op::Trans,
                                    9, 5, batch, test_cache(false)));
    }
  });
}

TEST(PlanWalk, TriangularStreaming) {
  at_active_width<double>([&](auto bytes) {
    constexpr int B = decltype(bytes)::value;
    const index_t batch = ragged_batch(TrsmPlan<double, B>::pack_width());
    for (const TriOp op : {TriOp::Solve, TriOp::Multiply}) {
      const TriCase<double, B> k(op, Side::Left, Uplo::Upper, Op::Trans, 24,
                                 24, batch, test_cache(true));
      ASSERT_TRUE(k.plan.streams_next_group());
      expect_contract(k);
    }
  });
}

TYPED_TEST(PlanWalkTyped, Factorisations) {
  using T = TypeParam;
  at_active_width<T>([&](auto bytes) {
    constexpr int B = decltype(bytes)::value;
    const index_t batch = ragged_batch(simd::pack_width_bytes_v<T, B>);
    for (const FactorOp op :
         {FactorOp::Potrf, FactorOp::GetrfNp, FactorOp::Trtri}) {
      expect_contract(FactorCase<T, B>(op, 6, batch, test_cache(false)));
      expect_contract(FactorCase<T, B>(op, 13, batch, test_cache(false)));
    }
  });
}

TEST(PlanWalk, FactorisationsStreaming) {
  at_active_width<double>([&](auto bytes) {
    constexpr int B = decltype(bytes)::value;
    const index_t batch = ragged_batch(simd::pack_width_bytes_v<double, B>);
    for (const FactorOp op : {FactorOp::Potrf, FactorOp::GetrfNp}) {
      const FactorCase<double, B> k(op, 24, batch, test_cache(true));
      ASSERT_TRUE(k.plan.streams_next_group());
      expect_contract(k);
    }
  });
}

TEST(PlanWalk, EmptyShapesRun) {
  at_active_width<double>([&](auto bytes) {
    constexpr int B = decltype(bytes)::value;
    const CacheInfo cache = test_cache(false);
    const index_t pw = simd::pack_width_bytes_v<double, B>;
    for (const index_t batch : {index_t{0}, pw + 1}) {
      expect_empty_runs(
          GemmCase<double, B>(0, 4, 3, Op::NoTrans, batch, cache));
      expect_empty_runs(
          GemmCase<double, B>(4, 0, 3, Op::Trans, batch, cache));
      for (const TriOp op : {TriOp::Solve, TriOp::Multiply}) {
        expect_empty_runs(TriCase<double, B>(op, Side::Left, Uplo::Lower,
                                             Op::NoTrans, 0, 3, batch,
                                             cache));
        expect_empty_runs(TriCase<double, B>(op, Side::Right, Uplo::Upper,
                                             Op::Trans, 3, 0, batch,
                                             cache));
      }
      for (const FactorOp op :
           {FactorOp::Potrf, FactorOp::GetrfNp, FactorOp::Trtri}) {
        expect_empty_runs(FactorCase<double, B>(op, 0, batch, cache));
      }
    }
    expect_empty_runs(
        GemmCase<double, B>(4, 4, 4, Op::NoTrans, 0, cache));
    expect_empty_runs(FactorCase<double, B>(FactorOp::Potrf, 4, 0, cache));
  });
}

} // namespace
} // namespace iatf
