#include <algorithm>
#include <complex>

#include <gtest/gtest.h>

#include "iatf/kernels/registry.hpp"
#include "iatf/plan/gemm_plan.hpp"
#include "iatf/plan/trsm_plan.hpp"
#include "iatf/simd/isa.hpp"
#include "iatf/tune/search.hpp"

namespace iatf::tune {
namespace {

// Small budgets keep the whole suite fast; the search logic is identical
// at any budget.
TuneOptions tiny_budget() {
  TuneOptions opts;
  opts.batch = 16;
  opts.reps = 1;
  opts.top_k = 3;
  return opts;
}

TEST(SimulatedScore, RanksRealKernelsAndRejectsOverBudget) {
  // 4x4 fits the register budget; larger tiles must hit the sentinel.
  const double ok = simulated_gemm_score(4, 4, 8, 8);
  EXPECT_GT(ok, 0.0);
  EXPECT_LT(ok, 100.0) << "cycles per madd should be small";
  EXPECT_GE(simulated_gemm_score(5, 5, 8, 8), 1e29);
}

TEST(TimedSet, TopKZeroTimesEveryCandidate) {
  const GemmShape shape{6, 6, 6, Op::NoTrans, Op::NoTrans, 16};
  const std::vector<Candidate> all =
      gemm_candidates<float>(shape, CacheInfo::kunpeng920(), tiny_budget());
  ASSERT_GT(all.size(), 2u);
  TuneOptions opts = tiny_budget();
  opts.top_k = 0;
  EXPECT_EQ(timed_set(all, opts).size(), all.size());
  opts.top_k = 1;
  const std::vector<Candidate> cut = timed_set(all, opts);
  EXPECT_LE(cut.size(), 2u) << "the best ranked, plus the analytical echo";
  EXPECT_TRUE(std::any_of(cut.begin(), cut.end(),
                          [](const Candidate& c) { return c.analytical; }));
}

TEST(GemmCandidates, CoversSpaceWithExplicitFields) {
  const GemmShape shape{6, 6, 6, Op::NoTrans, Op::NoTrans, 16};
  const auto candidates =
      gemm_candidates<float>(shape, CacheInfo::kunpeng920(), tiny_budget());
  ASSERT_FALSE(candidates.empty());

  int analytical = 0;
  for (const Candidate& c : candidates) {
    // Explicit (never "auto") so records round-trip deterministically.
    EXPECT_NE(c.tuning.force_pack_a, -1);
    EXPECT_NE(c.tuning.force_pack_b, -1);
    EXPECT_GT(c.tuning.slice_override, 0);
    EXPECT_GT(c.tuning.mc_cap, 0);
    EXPECT_GT(c.tuning.nc_cap, 0);
    analytical += c.analytical ? 1 : 0;
  }
  EXPECT_EQ(analytical, 1) << "exactly one analytical echo candidate";

  // Both pack choices appear for non-transposed operands.
  const auto has_pack = [&](int pa) {
    return std::any_of(candidates.begin(), candidates.end(),
                       [&](const Candidate& c) {
                         return c.tuning.force_pack_a == pa;
                       });
  };
  EXPECT_TRUE(has_pack(0));
  EXPECT_TRUE(has_pack(1));
}

TEST(GemmCandidates, TransposedOperandNeverOffersNoPack) {
  const GemmShape shape{6, 6, 6, Op::Trans, Op::NoTrans, 16};
  const auto candidates =
      gemm_candidates<float>(shape, CacheInfo::kunpeng920(), tiny_budget());
  for (const Candidate& c : candidates) {
    EXPECT_EQ(c.tuning.force_pack_a, 1)
        << "transposed A must be packed (gather)";
  }
}

TEST(TuneGemm, WinnerIsNeverBelowAnalyticalBaseline) {
  const GemmShape shape{5, 5, 5, Op::NoTrans, Op::NoTrans, 16};
  const TuneRecord rec =
      tune_gemm<float>(shape, CacheInfo::kunpeng920(), tiny_budget());
  EXPECT_GE(rec.gflops, rec.baseline_gflops)
      << "the analytical default is always in the timed set";
  EXPECT_GT(rec.gflops, 0.0);

  // The record must build a valid plan.
  const plan::GemmPlan<float> plan(shape, CacheInfo::kunpeng920(),
                                   rec.tuning());
  EXPECT_GT(plan.slice_groups(), 0);
}

TEST(TuneTrsm, WinnerIsNeverBelowAnalyticalBaseline) {
  TrsmShape shape;
  shape.m = 6;
  shape.n = 6;
  shape.batch = 16;
  const TuneRecord rec =
      tune_trsm<double>(shape, CacheInfo::kunpeng920(), tiny_budget());
  EXPECT_GE(rec.gflops, rec.baseline_gflops);
  EXPECT_GT(rec.gflops, 0.0);
  const plan::TrsmPlan<double> plan(shape, CacheInfo::kunpeng920(),
                                    rec.tuning());
  EXPECT_GT(plan.slice_groups(), 0);
}

TEST(TuneDyn, DispatchesAllDtypesAndRejectsUnknown) {
  const GemmShape shape{3, 3, 3, Op::NoTrans, Op::NoTrans, 8};
  TrsmShape trsm;
  trsm.m = 3;
  trsm.n = 3;
  trsm.batch = 8;
  TuneOptions opts = tiny_budget();
  opts.batch = 8;
  opts.top_k = 1;
  for (char dtype : {'s', 'd', 'c', 'z'}) {
    for (const TunedRecord& tuned :
         {tune_gemm_dyn(dtype, shape, CacheInfo::kunpeng920(), opts),
          tune_trsm_dyn(dtype, trsm, CacheInfo::kunpeng920(), opts)}) {
      EXPECT_GT(tuned.record.gflops, 0.0) << "dtype " << dtype;
      // Keyed at the width it was timed at: the active backend's.
      EXPECT_EQ(tuned.key.dtype, dtype);
      EXPECT_EQ(tuned.key.bytes, simd::active_bytes()) << "dtype " << dtype;
    }
  }
  EXPECT_THROW(
      tune_gemm_dyn('x', shape, CacheInfo::kunpeng920(), opts), Error);
  EXPECT_THROW(
      tune_trsm_dyn('x', trsm, CacheInfo::kunpeng920(), opts), Error);
}

TEST(TuneGemm, DegenerateShapeEchoesAnalyticalDefaults) {
  const GemmShape shape{0, 4, 4, Op::NoTrans, Op::NoTrans, 8};
  const TuneRecord rec =
      tune_gemm<float>(shape, CacheInfo::kunpeng920(), tiny_budget());
  EXPECT_EQ(rec.gflops, 0.0);
  EXPECT_GT(rec.slice_groups, 0);

  TrsmShape trsm;
  trsm.m = 0;
  trsm.n = 4;
  trsm.batch = 8;
  const TuneRecord trec =
      tune_trsm<float>(trsm, CacheInfo::kunpeng920(), tiny_budget());
  EXPECT_EQ(trec.gflops, 0.0);
  EXPECT_GT(trec.slice_groups, 0);
}

TEST(TuneGemm, ParallelBudgetSearchesChunking) {
  ThreadPool pool(2);
  TuneOptions opts = tiny_budget();
  opts.pool = &pool;
  const GemmShape shape{4, 4, 4, Op::NoTrans, Op::NoTrans, 32};
  const auto candidates =
      gemm_candidates<float>(shape, CacheInfo::kunpeng920(), opts);
  const bool has_chunk =
      std::any_of(candidates.begin(), candidates.end(),
                  [](const Candidate& c) {
                    return c.tuning.chunk_groups > 0;
                  });
  EXPECT_TRUE(has_chunk)
      << "chunk granularity joins the space when a pool is given";

  const TuneRecord rec =
      tune_gemm<float>(shape, CacheInfo::kunpeng920(), opts);
  EXPECT_GE(rec.gflops, rec.baseline_gflops);
}

} // namespace
} // namespace iatf::tune
