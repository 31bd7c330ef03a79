// Grouped variable-size entry points: Engine::gemm_grouped and
// Engine::trsm_grouped must match the per-segment reference for ragged
// descriptor mixes, share plans within size classes, produce identical
// results on the sequential and interleaved thread-pool paths, and carry
// the guarded-execution contract (Check/Fallback/deadline) per segment.
// A single call is a one-segment grouped call: the differential test at
// the end holds both to the same outputs, healths and stats.
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../factor/factor_testutil.hpp"
#include "../testutil.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/parallel/thread_pool.hpp"
#include "iatf/ref/ref_blas.hpp"

namespace iatf {
namespace {

struct GemmCase {
  Op op_a = Op::NoTrans;
  Op op_b = Op::NoTrans;
  double alpha = 1.0;
  double beta = 0.0;
  index_t m = 0, n = 0, k = 0, batch = 0;
};

// Builds host batches for a list of GEMM segments, the per-lane reference
// results, and the compact buffers + segment descriptors the grouped call
// consumes. All compact buffers are created in finalize() so their
// addresses are stable when the segments take pointers to them.
struct GroupedGemmFixture {
  std::vector<GemmCase> cases;
  std::vector<test::HostBatch<double>> a, b, c, expected;
  std::vector<CompactBuffer<double>> ca, cb, cc;
  std::vector<sched::GemmSegment<double>> segs;
  Rng rng{4242};

  void add(const GemmCase& cs) {
    cases.push_back(cs);
    const index_t ar = cs.op_a == Op::NoTrans ? cs.m : cs.k;
    const index_t ac = cs.op_a == Op::NoTrans ? cs.k : cs.m;
    const index_t br = cs.op_b == Op::NoTrans ? cs.k : cs.n;
    const index_t bc = cs.op_b == Op::NoTrans ? cs.n : cs.k;
    a.push_back(test::random_batch<double>(ar, ac, cs.batch, rng));
    b.push_back(test::random_batch<double>(br, bc, cs.batch, rng));
    c.push_back(test::random_batch<double>(cs.m, cs.n, cs.batch, rng));
  }

  void finalize() {
    expected.clear();
    ca.clear();
    cb.clear();
    cc.clear();
    segs.clear();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const GemmCase& cs = cases[i];
      expected.push_back(c[i]);
      for (index_t l = 0; l < cs.batch; ++l) {
        ref::gemm(cs.op_a, cs.op_b, cs.m, cs.n, cs.k, cs.alpha,
                  a[i].mat(l), a[i].ld(), b[i].mat(l), b[i].ld(), cs.beta,
                  expected[i].mat(l), expected[i].ld());
      }
      ca.push_back(a[i].to_compact());
      cb.push_back(b[i].to_compact());
      cc.push_back(c[i].to_compact());
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
      segs.push_back({cases[i].op_a, cases[i].op_b, cases[i].alpha,
                      cases[i].beta, &ca[i], &cb[i], &cc[i]});
    }
  }

  void verify(const std::string& ctx) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      test::HostBatch<double> out = c[i];
      out.from_compact(cc[i]);
      test::expect_batch_near(expected[i], out,
                              test::ulp_tolerance<double>(cases[i].k),
                              ctx + " segment " + std::to_string(i));
    }
  }
};

// A ragged mix covering transposes, scalars, tiny and multi-group
// batches. Shared by the sequential/pool equivalence test, so keep the
// data deterministic (the fixture's Rng is fixed-seed).
GroupedGemmFixture mixed_fixture() {
  const index_t pw = simd::pack_width_v<double>;
  GroupedGemmFixture fx;
  fx.add({Op::NoTrans, Op::NoTrans, 1.0, 0.0, 5, 4, 6, 2 * pw + 3});
  fx.add({Op::Trans, Op::NoTrans, 2.0, -1.0, 9, 7, 3, pw});
  fx.add({Op::NoTrans, Op::Trans, 0.37, 1.0, 12, 12, 12, 3 * pw + 1});
  fx.add({Op::Trans, Op::Trans, -1.0, 0.37, 1, 33, 2, 1});
  fx.finalize();
  return fx;
}

TEST(EngineGrouped, MatchesReferenceAcrossMixedSizes) {
  Engine engine(CacheInfo::kunpeng920());
  GroupedGemmFixture fx = mixed_fixture();

  const auto healths = engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(fx.segs));

  ASSERT_EQ(healths.size(), fx.segs.size());
  for (std::size_t i = 0; i < healths.size(); ++i) {
    EXPECT_EQ(healths[i].batch, fx.cases[i].batch);
    EXPECT_TRUE(healths[i].clean()); // Fast: no scanning, no repair
  }
  fx.verify("grouped gemm");

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.grouped_calls, 1u);
  // Four distinct descriptors land in the 3-4 histogram bucket.
  EXPECT_EQ(stats.distinct_plans_per_call[2], 1u);
  EXPECT_EQ(stats.distinct_plans_per_call[0], 0u);
}

TEST(EngineGrouped, SharesPlansWithinSizeClasses) {
  Engine engine(CacheInfo::kunpeng920());
  const index_t pw = simd::pack_width_v<double>;
  GroupedGemmFixture fx;
  const GemmCase small{Op::NoTrans, Op::NoTrans, 1.0, 0.0, 4, 4, 4, pw};
  const GemmCase big{Op::Trans, Op::NoTrans, 1.0, 0.5, 8, 6, 5, 2 * pw};
  fx.add(small);
  fx.add(big);
  fx.add(small);
  fx.add(big);
  fx.add(small);
  fx.finalize();

  engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(fx.segs));

  // Five segments, two size classes: exactly two plans were built.
  EXPECT_EQ(engine.plan_cache_builds(), 2u);
  EXPECT_EQ(engine.stats().distinct_plans_per_call[1], 1u);
  fx.verify("plan-shared grouped gemm");

  // A repeat call hits the cache for both classes.
  fx.finalize();
  engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(fx.segs));
  EXPECT_EQ(engine.plan_cache_builds(), 2u);
  EXPECT_EQ(engine.stats().grouped_calls, 2u);
}

// The pool path interleaves work items across segments, but each
// interleave group is computed by exactly one worker with the same
// kernels as the sequential path, so the results must be bit-identical.
TEST(EngineGrouped, PoolPathMatchesSequentialBitExact) {
  GroupedGemmFixture seq_fx = mixed_fixture();
  GroupedGemmFixture pool_fx = mixed_fixture();

  Engine seq(CacheInfo::kunpeng920());
  seq.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(seq_fx.segs));

  Engine par(CacheInfo::kunpeng920());
  ThreadPool pool(4);
  par.set_thread_pool(&pool);
  par.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(pool_fx.segs));

  for (std::size_t i = 0; i < seq_fx.cc.size(); ++i) {
    ASSERT_EQ(seq_fx.cc[i].size(), pool_fx.cc[i].size());
    EXPECT_EQ(std::memcmp(seq_fx.cc[i].data(), pool_fx.cc[i].data(),
                          seq_fx.cc[i].size() * sizeof(double)),
              0)
        << "segment " << i;
  }
  pool_fx.verify("pool grouped gemm");
}

TEST(EngineGrouped, TrsmGroupedMatchesReference) {
  using T = double;
  Engine engine(CacheInfo::kunpeng920());
  const index_t pw = simd::pack_width_v<T>;
  Rng rng(777);

  struct TrsmCase {
    Side side;
    Uplo uplo;
    Op op_a;
    Diag diag;
    T alpha;
    index_t m, n, batch;
  };
  const std::vector<TrsmCase> cases{
      {Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, T(1), 6, 5,
       pw + 1},
      {Side::Right, Uplo::Upper, Op::NoTrans, Diag::NonUnit, T(2), 4, 7,
       2 * pw},
      {Side::Left, Uplo::Upper, Op::Trans, Diag::Unit, T(0.37), 9, 3, 2},
      {Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, T(1), 6, 5,
       pw + 1}, // same class as [0]
  };

  std::vector<test::HostBatch<T>> a, b, expected;
  for (const TrsmCase& cs : cases) {
    const index_t ta = cs.side == Side::Left ? cs.m : cs.n;
    a.push_back(test::random_triangular_batch<T>(ta, cs.batch, rng));
    b.push_back(test::random_batch<T>(cs.m, cs.n, cs.batch, rng));
    expected.push_back(b.back());
    for (index_t l = 0; l < cs.batch; ++l) {
      ref::trsm(cs.side, cs.uplo, cs.op_a, cs.diag, cs.m, cs.n, cs.alpha,
                a.back().mat(l), ta, expected.back().mat(l), cs.m);
    }
  }
  std::vector<CompactBuffer<T>> ca, cb;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ca.push_back(a[i].to_compact());
    ca.back().pad_identity();
    cb.push_back(b[i].to_compact());
  }
  std::vector<sched::TrsmSegment<T>> segs;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    segs.push_back({cases[i].side, cases[i].uplo, cases[i].op_a,
                    cases[i].diag, cases[i].alpha, &ca[i], &cb[i]});
  }

  const auto healths = engine.trsm_grouped<T>(
      std::span<const sched::TrsmSegment<T>>(segs));

  ASSERT_EQ(healths.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const index_t depth = cases[i].side == Side::Left ? cases[i].m
                                                      : cases[i].n;
    test::HostBatch<T> out = b[i];
    out.from_compact(cb[i]);
    test::expect_batch_near(expected[i], out,
                            test::ulp_tolerance<T>(depth, 256),
                            "grouped trsm segment " + std::to_string(i));
  }
  // Segments 0 and 3 share a class: three distinct plans -> bucket 2.
  EXPECT_EQ(engine.stats().distinct_plans_per_call[2], 1u);
  EXPECT_EQ(engine.plan_cache_builds(), 3u);
}

TEST(EngineGrouped, NullBufferThrowsInvalidArg) {
  Engine engine(CacheInfo::kunpeng920());
  GroupedGemmFixture fx;
  fx.add({Op::NoTrans, Op::NoTrans, 1.0, 0.0, 3, 3, 3, 2});
  fx.finalize();
  fx.segs[0].c = nullptr;
  try {
    engine.gemm_grouped<double>(
        std::span<const sched::GemmSegment<double>>(fx.segs));
    FAIL() << "null buffer must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::InvalidArg);
  }
}

TEST(EngineGrouped, EmptyCallReturnsNoHealths) {
  Engine engine(CacheInfo::kunpeng920());
  const auto healths = engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>{});
  EXPECT_TRUE(healths.empty());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.grouped_calls, 1u);
  // An empty call resolves no plans and must not touch the histogram.
  for (std::size_t b = 0; b < EngineStats::kGroupedPlanBuckets; ++b) {
    EXPECT_EQ(stats.distinct_plans_per_call[b], 0u);
  }
}

TEST(EngineGrouped, CheckReportsHazardsPerSegment) {
  Engine engine(CacheInfo::kunpeng920());
  engine.set_policy(ExecPolicy::Check);
  GroupedGemmFixture fx;
  fx.add({Op::NoTrans, Op::NoTrans, 1.0, 0.0, 4, 4, 4, 6});
  fx.add({Op::Trans, Op::NoTrans, 2.0, -1.0, 5, 5, 5, 6});
  fx.a[1].mat(3)[0] = std::numeric_limits<double>::quiet_NaN();
  fx.finalize();

  const auto healths = engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(fx.segs));

  // The hazard is confined to segment 1; segment 0's report stays clean
  // and its output still matches the reference.
  EXPECT_TRUE(healths[0].clean());
  EXPECT_EQ(healths[1].nonfinite, 1);
  EXPECT_EQ(healths[1].first_nonfinite, 3);
  EXPECT_EQ(healths[1].fallback, 0); // Check observes, never repairs
  EXPECT_TRUE(has_event(healths[1].events, DegradeEvent::NumericalHazard));
  test::HostBatch<double> out = fx.c[0];
  out.from_compact(fx.cc[0]);
  test::expect_batch_near(fx.expected[0], out,
                          test::ulp_tolerance<double>(4),
                          "clean segment under Check");
}

TEST(EngineGrouped, FallbackRepairsOnlyFlaggedLanes) {
  Engine engine(CacheInfo::kunpeng920());
  engine.set_policy(ExecPolicy::Fallback);
  GroupedGemmFixture fx;
  fx.add({Op::NoTrans, Op::NoTrans, 1.0, 0.0, 4, 4, 4, 6});
  fx.add({Op::Trans, Op::NoTrans, 2.0, -1.0, 5, 5, 5, 6});
  fx.a[1].mat(2)[1] = std::numeric_limits<double>::quiet_NaN();
  fx.finalize(); // expected[1] lane 2 is the reference-of-NaN result

  const auto healths = engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(fx.segs));

  EXPECT_EQ(healths[0].fallback, 0);
  EXPECT_EQ(healths[1].nonfinite, 1);
  EXPECT_EQ(healths[1].fallback, 1);
  EXPECT_EQ(healths[1].first_fallback, 2);
  EXPECT_TRUE(healths[1].degraded());

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.degraded_calls, 1u);
  EXPECT_EQ(stats.fallback_lanes, 1u);

  // Segment 0 is untouched by the repair; segment 1's clean lanes match
  // the reference and the repaired lane still carries the NaN the
  // reference propagates.
  test::HostBatch<double> out0 = fx.c[0];
  out0.from_compact(fx.cc[0]);
  test::expect_batch_near(fx.expected[0], out0,
                          test::ulp_tolerance<double>(4),
                          "clean segment under Fallback");
  test::HostBatch<double> out1 = fx.c[1];
  out1.from_compact(fx.cc[1]);
  bool lane2_nan = false;
  for (index_t j = 0; j < 5; ++j) {
    for (index_t i = 0; i < 5; ++i) {
      lane2_nan = lane2_nan || std::isnan(out1.mat(2)[j * 5 + i]);
    }
  }
  EXPECT_TRUE(lane2_nan);
  for (index_t l = 0; l < 6; ++l) {
    if (l == 2) {
      continue;
    }
    for (index_t j = 0; j < 5; ++j) {
      for (index_t i = 0; i < 5; ++i) {
        const double e = fx.expected[1].mat(l)[j * 5 + i];
        const double got = out1.mat(l)[j * 5 + i];
        EXPECT_LE(std::abs(e - got),
                  test::ulp_tolerance<double>(5) *
                      std::max(1.0, std::abs(e)))
            << "lane " << l;
      }
    }
  }
}

TEST(EngineGrouped, DeadlineExpiryThrowsTimeout) {
  Engine engine(CacheInfo::kunpeng920());
  GroupedGemmFixture fx = mixed_fixture();
  engine.set_call_deadline(std::chrono::nanoseconds(1));
  try {
    engine.gemm_grouped<double>(
        std::span<const sched::GemmSegment<double>>(fx.segs));
    FAIL() << "1ns deadline must expire";
  } catch (const TimeoutError& e) {
    EXPECT_EQ(e.status(), Status::Timeout);
  }
  EXPECT_EQ(engine.stats().timeout_calls, 1u);

  // Disabling the deadline restores normal service on the same engine.
  engine.set_call_deadline(std::chrono::nanoseconds(0));
  fx.finalize();
  engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(fx.segs));
  fx.verify("post-timeout grouped gemm");
}

TEST(EngineGrouped, TunedChunkOverridesItemGranularity) {
  // chunk_groups = 1 forces one-interleave-group work items, the finest
  // legal interleaving; results must be unaffected.
  GroupedGemmFixture fx = mixed_fixture();
  Engine engine(CacheInfo::kunpeng920());
  plan::PlanTuning tuning;
  tuning.chunk_groups = 1;
  engine.set_plan_tuning(tuning);
  ThreadPool pool(3);
  engine.set_thread_pool(&pool);
  engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(fx.segs));
  fx.verify("grain-1 grouped gemm");
}

// --- One single call vs a one-segment grouped call -----------------------
//
// Each op case owns its inputs; reset() rebuilds the written operand from
// them (outside any armed fault window -- the conversion allocates), and
// run() makes the call either as the op's single entry point or as a
// one-segment grouped call. Inputs may carry a NaN lane and a
// zero-diagonal lane.

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct GemmDiff {
  static constexpr const char* plan_site = "plan.gemm";
  test::HostBatch<double> a, b, c;
  CompactBuffer<double> ca, cb, cc;

  explicit GemmDiff(bool hazards) {
    Rng rng(9101);
    const index_t m = 5, n = 4, k = 3;
    const index_t batch = 2 * simd::pack_width_v<double> + 1;
    // Transposed operands keep the packing stage, whose workspace is an
    // "alloc" fault site, on the fast path.
    a = test::random_batch<double>(k, m, batch, rng);
    b = test::random_batch<double>(n, k, batch, rng);
    c = test::random_batch<double>(m, n, batch, rng);
    if (hazards) {
      a.mat(1)[0] = kNaN;
      for (index_t i = 0; i < k; ++i) {
        a.mat(2)[i * k + i] = 0.0;
      }
    }
    ca = a.to_compact();
    cb = b.to_compact();
  }
  void reset() { cc = c.to_compact(); }
  const CompactBuffer<double>& out() const { return cc; }
  BatchHealth run(Engine& e, bool grouped) {
    if (!grouped) {
      return e.gemm<double>(Op::Trans, Op::Trans, 1.5, ca, cb, 0.25, cc);
    }
    const sched::GemmSegment<double> seg{
        Op::Trans, Op::Trans, 1.5, 0.25, &ca, &cb, &cc};
    return e.gemm_grouped<double>(
        std::span<const sched::GemmSegment<double>>(&seg, 1))[0];
  }
};

struct TrsmDiff {
  static constexpr const char* plan_site = "plan.trsm";
  test::HostBatch<double> a, b;
  CompactBuffer<double> ca, cb;

  explicit TrsmDiff(bool hazards) {
    Rng rng(9102);
    const index_t m = 6, n = 3;
    const index_t batch = 2 * simd::pack_width_v<double> + 1;
    a = test::random_triangular_batch<double>(m, batch, rng);
    b = test::random_batch<double>(m, n, batch, rng);
    if (hazards) {
      b.mat(1)[0] = kNaN;
      a.mat(2)[2 * m + 2] = 0.0;
    }
    ca = a.to_compact();
    ca.pad_identity();
  }
  void reset() { cb = b.to_compact(); }
  const CompactBuffer<double>& out() const { return cb; }
  BatchHealth run(Engine& e, bool grouped) {
    if (!grouped) {
      return e.trsm<double>(Side::Left, Uplo::Lower, Op::NoTrans,
                            Diag::NonUnit, 0.5, ca, cb);
    }
    const sched::TrsmSegment<double> seg{
        Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, 0.5, &ca, &cb};
    return e.trsm_grouped<double>(
        std::span<const sched::TrsmSegment<double>>(&seg, 1))[0];
  }
};

struct PotrfDiff {
  static constexpr const char* plan_site = "plan.factor";
  test::HostBatch<double> a;
  CompactBuffer<double> ca;

  explicit PotrfDiff(bool hazards) {
    Rng rng(9103);
    const index_t m = 5;
    a = test::random_spd_batch<double>(
        m, 2 * simd::pack_width_v<double> + 1, rng);
    if (hazards) {
      a.mat(1)[m + 1] = kNaN;
      a.mat(2)[0] = 0.0;
    }
  }
  void reset() { ca = a.to_compact(); }
  const CompactBuffer<double>& out() const { return ca; }
  BatchHealth run(Engine& e, bool grouped) {
    if (!grouped) {
      return e.potrf_batch<double>(ca);
    }
    const sched::FactorSegment<double> seg{factor::FactorOp::Potrf,
                                           Uplo::Lower, Diag::NonUnit, &ca};
    return e.factor_grouped<double>(
        std::span<const sched::FactorSegment<double>>(&seg, 1))[0];
  }
};

enum class DiffFault { Hazards, Plan, Alloc };

// What one call did: its health, or the status it threw.
struct DiffOutcome {
  bool threw = false;
  Status status = Status::Ok;
  BatchHealth health;
};

template <class Case>
DiffOutcome run_diff(Case& cs, Engine& e, bool grouped, DiffFault fault) {
  cs.reset();
  DiffOutcome out;
  std::optional<fault::ScopedFault> armed;
  if (fault == DiffFault::Plan) {
    armed.emplace(Case::plan_site, 0, 1);
  } else if (fault == DiffFault::Alloc) {
    armed.emplace("alloc", 0, 2);
  }
  try {
    out.health = cs.run(e, grouped);
  } catch (const Error& err) {
    out.threw = true;
    out.status = err.status();
  }
  return out;
}

void expect_same_health(const BatchHealth& x, const BatchHealth& y) {
  EXPECT_EQ(x.batch, y.batch);
  EXPECT_EQ(x.nonfinite, y.nonfinite);
  EXPECT_EQ(x.first_nonfinite, y.first_nonfinite);
  EXPECT_EQ(x.singular, y.singular);
  EXPECT_EQ(x.first_singular, y.first_singular);
  EXPECT_EQ(x.fallback, y.fallback);
  EXPECT_EQ(x.first_fallback, y.first_fallback);
  EXPECT_EQ(x.events, y.events);
}

// Every EngineStats counter but the two only grouped calls bump.
void expect_same_stats(EngineStats x, EngineStats y) {
  EXPECT_EQ(x.retries, y.retries);
  EXPECT_EQ(x.degraded_calls, y.degraded_calls);
  EXPECT_EQ(x.fallback_lanes, y.fallback_lanes);
  EXPECT_EQ(x.ref_routed_calls, y.ref_routed_calls);
  EXPECT_EQ(y.grouped_calls, 1u);
  EXPECT_EQ(x.grouped_calls, 0u);
  x.grouped_calls = y.grouped_calls = 0;
  x.distinct_plans_per_call = y.distinct_plans_per_call = {};
  EXPECT_EQ(std::memcmp(&x, &y, sizeof(EngineStats)), 0);
}

template <class Case> void diff_single_vs_grouped(const char* op) {
  for (const ExecPolicy policy :
       {ExecPolicy::Fast, ExecPolicy::Check, ExecPolicy::Fallback}) {
    for (const DiffFault fault :
         {DiffFault::Hazards, DiffFault::Plan, DiffFault::Alloc}) {
      SCOPED_TRACE(std::string(op) + " policy " +
                   std::to_string(static_cast<int>(policy)) + " fault " +
                   std::to_string(static_cast<int>(fault)));
      Case single_case(fault == DiffFault::Hazards);
      Case grouped_case(fault == DiffFault::Hazards);
      Engine single(CacheInfo::kunpeng920());
      Engine grouped(CacheInfo::kunpeng920());
      for (Engine* e : {&single, &grouped}) {
        e->set_policy(policy);
        e->set_retry_policy({/*max_attempts=*/3,
                             /*base_delay=*/std::chrono::microseconds(10)});
      }
      const DiffOutcome x = run_diff(single_case, single, false, fault);
      const DiffOutcome y = run_diff(grouped_case, grouped, true, fault);
      EXPECT_EQ(x.threw, y.threw);
      EXPECT_EQ(x.status, y.status);
      expect_same_health(x.health, y.health);
      const CompactBuffer<double>& xo = single_case.out();
      const CompactBuffer<double>& yo = grouped_case.out();
      ASSERT_EQ(xo.size(), yo.size());
      EXPECT_EQ(std::memcmp(xo.data(), yo.data(), xo.size() * sizeof(double)),
                0);
      expect_same_stats(single.stats(), grouped.stats());
    }
  }
}

TEST(EngineGrouped, SingleCallEqualsOneSegmentGroupedCall) {
  diff_single_vs_grouped<GemmDiff>("gemm");
  diff_single_vs_grouped<TrsmDiff>("trsm");
  diff_single_vs_grouped<PotrfDiff>("potrf");
}

} // namespace
} // namespace iatf
