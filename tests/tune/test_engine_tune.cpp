// Runtime integration: the Engine's plan cache consults the tuning table
// before the analytical model, and the manual override fills the gaps.
// The save -> load -> identical-plan round trip here is the acceptance
// criterion for the persistent format.
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "iatf/common/rng.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/tune/search.hpp"
#include "iatf/tune/tuning_table.hpp"

namespace iatf {
namespace {

using tune::TuneRecord;
using tune::TuningTable;

const GemmShape kShape{6, 6, 6, Op::NoTrans, Op::NoTrans, 32};

TuneRecord distinctive_record() {
  TuneRecord rec;
  rec.pack_a = 0;
  rec.pack_b = 0;
  rec.slice_groups = 3;
  rec.mc_cap = 2;
  rec.nc_cap = 3;
  rec.chunk_groups = 5;
  rec.gflops = 10.0;
  rec.baseline_gflops = 9.0;
  return rec;
}

TEST(EngineTune, TableRecordOverridesAnalyticalModel) {
  Engine engine(CacheInfo::kunpeng920());
  const auto analytical = engine.plan_gemm<float>(kShape);
  ASSERT_NE(analytical->slice_groups(), 3);

  auto table = std::make_shared<TuningTable>("test-hw");
  table->insert(tune::gemm_key<float>(kShape), distinctive_record());
  engine.set_tuning_table(table);

  // set_tuning_table cleared the cache, so this is a fresh build.
  const auto tuned = engine.plan_gemm<float>(kShape);
  EXPECT_EQ(tuned->slice_groups(), 3);
  EXPECT_EQ(tuned->chunk_groups(), 5);
  EXPECT_FALSE(tuned->packs_a());
  EXPECT_FALSE(tuned->packs_b());
  EXPECT_EQ(engine.plan_cache_tuned(), 1u);

  // A descriptor without a record keeps the analytical parameters.
  const GemmShape other{7, 7, 7, Op::NoTrans, Op::NoTrans, 32};
  const auto untouched = engine.plan_gemm<float>(other);
  EXPECT_NE(untouched->slice_groups(), 3);
  EXPECT_EQ(engine.plan_cache_tuned(), 1u);

  engine.set_tuning_table(nullptr);
  EXPECT_EQ(engine.plan_gemm<float>(kShape)->slice_groups(),
            analytical->slice_groups());
}

TEST(EngineTune, SaveLoadRoundTripYieldsIdenticalPlan) {
  const std::string path = ::testing::TempDir() + "iatf_engine_rt.tbl";
  Engine engine(CacheInfo::kunpeng920());

  auto table = std::make_shared<TuningTable>("test-hw");
  table->insert(tune::gemm_key<float>(kShape), distinctive_record());
  engine.set_tuning_table(table);
  const auto direct = engine.plan_gemm<float>(kShape);

  ASSERT_TRUE(table->save(path));
  auto reloaded = std::make_shared<TuningTable>("test-hw");
  ASSERT_EQ(reloaded->load(path), tune::LoadResult::Ok);
  engine.set_tuning_table(reloaded);
  const auto roundtrip = engine.plan_gemm<float>(kShape);

  EXPECT_EQ(roundtrip->slice_groups(), direct->slice_groups());
  EXPECT_EQ(roundtrip->chunk_groups(), direct->chunk_groups());
  EXPECT_EQ(roundtrip->packs_a(), direct->packs_a());
  EXPECT_EQ(roundtrip->packs_b(), direct->packs_b());
  EXPECT_EQ(roundtrip->m_tiles().size(), direct->m_tiles().size());
  EXPECT_EQ(roundtrip->n_tiles().size(), direct->n_tiles().size());
  std::remove(path.c_str());
}

TEST(EngineTune, ManualOverrideFillsTableMisses) {
  Engine engine(CacheInfo::kunpeng920());
  plan::PlanTuning manual;
  manual.slice_override = 7;
  engine.set_plan_tuning(manual);
  EXPECT_EQ(engine.plan_gemm<float>(kShape)->slice_groups(), 7);
  EXPECT_EQ(engine.plan_tuning(), manual);
  EXPECT_EQ(engine.plan_cache_tuned(), 0u)
      << "manual overrides are not table hits";

  // A table record for the descriptor still wins over the manual value.
  auto table = std::make_shared<TuningTable>("test-hw");
  table->insert(tune::gemm_key<float>(kShape), distinctive_record());
  engine.set_tuning_table(table);
  EXPECT_EQ(engine.plan_gemm<float>(kShape)->slice_groups(), 3);

  engine.set_tuning_table(nullptr);
  engine.clear_plan_tuning();
  EXPECT_NE(engine.plan_gemm<float>(kShape)->slice_groups(), 7);
}

TEST(EngineTune, IllegalNoPackForTransposedIsInvalidArg) {
  Engine engine(CacheInfo::kunpeng920());
  plan::PlanTuning manual;
  manual.force_pack_a = 0;
  engine.set_plan_tuning(manual);
  const GemmShape transposed{6, 6, 6, Op::Trans, Op::NoTrans, 32};
  try {
    engine.plan_gemm<float>(transposed);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::InvalidArg);
  }
  engine.clear_plan_tuning();
}

TEST(EngineTune, TunedRecordFromSearchExecutesCorrectly) {
  // End-to-end: tune a descriptor, feed the table to an engine, and let
  // it execute -- the tuned plan must produce correct results.
  tune::TuneOptions opts;
  opts.batch = 16;
  opts.reps = 1;
  opts.top_k = 2;
  const GemmShape shape{4, 4, 4, Op::NoTrans, Op::NoTrans, 8};
  const TuneRecord rec =
      tune::tune_gemm<float>(shape, CacheInfo::kunpeng920(), opts);

  Engine engine(CacheInfo::kunpeng920());
  auto table = std::make_shared<TuningTable>("test-hw");
  table->insert(tune::gemm_key<float>(shape), rec);
  engine.set_tuning_table(table);

  const index_t pw = CompactBuffer<float>(1, 1, 1).pack_width();
  const index_t batch = pw * 2;
  CompactBuffer<float> a(4, 4, batch), b(4, 4, batch), c(4, 4, batch);
  Rng rng(7);
  rng.fill<float>(std::span<float>(a.data(), a.size()));
  rng.fill<float>(std::span<float>(b.data(), b.size()));
  engine.gemm<float>(Op::NoTrans, Op::NoTrans, 1.0f, a, b, 0.0f, c);
  EXPECT_EQ(engine.plan_cache_tuned(), 1u);

  // Spot-check one lane against the reference.
  std::vector<float> ha(16), hb(16), hc(16), expect(16, 0.0f);
  a.export_colmajor(1, ha.data(), 4);
  b.export_colmajor(1, hb.data(), 4);
  c.export_colmajor(1, hc.data(), 4);
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 4; ++i) {
      for (int l = 0; l < 4; ++l) {
        expect[j * 4 + i] += ha[l * 4 + i] * hb[j * 4 + l];
      }
    }
  }
  for (int e = 0; e < 16; ++e) {
    EXPECT_NEAR(hc[e], expect[e], 1e-4f) << "element " << e;
  }
}

} // namespace
} // namespace iatf
