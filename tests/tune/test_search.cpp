#include <algorithm>
#include <complex>
#include <tuple>
#include <vector>

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
  return opts;
}

/// The fields a search moves, of two tunings that differ.
int fields_differing(const plan::PlanTuning& a, const plan::PlanTuning& b) {
  return (a.force_pack_a != b.force_pack_a) +
         (a.force_pack_b != b.force_pack_b) + (a.mc_cap != b.mc_cap) +
         (a.nc_cap != b.nc_cap) + (a.slice_override != b.slice_override) +
         (a.chunk_groups != b.chunk_groups);
}

/// Per field, the values of the search space (DESIGN.md section 8.1),
/// the anchor's value among them.
struct Grid {
  std::vector<int> pack_a, pack_b, mc_cap, nc_cap;
  std::vector<index_t> slice, chunk;
};

std::vector<index_t> grid_slices(index_t s0) {
  std::vector<index_t> out;
  for (index_t s : {s0, std::max<index_t>(1, s0 / 4),
                    std::max<index_t>(1, s0 / 2), s0 * 2, s0 * 4}) {
    if (std::find(out.begin(), out.end(), s) == out.end()) {
      out.push_back(s);
    }
  }
  return out;
}

std::vector<int> grid_caps(index_t n, int limit) {
  std::vector<int> out;
  for (int c = 1; c <= std::min<index_t>(limit, std::max<index_t>(n, 1));
       ++c) {
    out.push_back(c);
  }
  return out;
}

/// What a plan does with its tuning: packs, tiles, slice and chunk.
template <class T, int Bytes> auto footprint(const plan::GemmPlan<T, Bytes>& p) {
  return std::tuple(p.packs_a(), p.packs_b(),
                    std::vector<Tile>(p.m_tiles().begin(), p.m_tiles().end()),
                    std::vector<Tile>(p.n_tiles().begin(), p.n_tiles().end()),
                    p.slice_groups(), p.chunk_groups());
}
template <class T, int Bytes> auto footprint(const plan::TrsmPlan<T, Bytes>& p) {
  return std::tuple(p.packs_b(),
                    std::vector<Tile>(p.blocks().begin(), p.blocks().end()),
                    std::vector<Tile>(p.panels().begin(), p.panels().end()),
                    p.slice_groups(), p.chunk_groups());
}

/// The neighbourhood contract of one enumeration: one anchor, first,
/// building the untuned plan; every other candidate one field away from
/// it and distinct; and every one-field move of the grid present unless
/// it builds the anchor's plan under another value.
template <class Plan, class Shape>
void expect_neighbourhood(const Shape& shape,
                          const std::vector<Candidate>& candidates,
                          const Grid& grid) {
  const CacheInfo cache = CacheInfo::kunpeng920();
  ASSERT_FALSE(candidates.empty());
  const Candidate& anchor = candidates.front();
  EXPECT_TRUE(anchor.analytical) << "the anchor comes first";
  EXPECT_EQ(std::count_if(candidates.begin(), candidates.end(),
                          [](const Candidate& c) { return c.analytical; }),
            1)
      << "exactly one anchor";
  const auto anchor_plan = footprint(Plan(shape, cache, anchor.tuning));
  EXPECT_EQ(anchor_plan, footprint(Plan(shape, cache)))
      << "the anchor builds the analytical plan";

  const auto present = [&](const plan::PlanTuning& t) {
    return std::count_if(candidates.begin(), candidates.end(),
                         [&](const Candidate& c) { return c.tuning == t; });
  };
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const plan::PlanTuning& t = candidates[i].tuning;
    EXPECT_EQ(fields_differing(t, anchor.tuning), 1) << "candidate " << i;
    EXPECT_EQ(present(t), 1) << "candidate " << i << " is listed once";
    EXPECT_NE(footprint(Plan(shape, cache, t)), anchor_plan)
        << "candidate " << i << " builds the anchor's plan";
  }

  const auto expect_moves = [&](auto field, const auto& values) {
    for (const auto v : values) {
      plan::PlanTuning t = anchor.tuning;
      t.*field = v;
      if (fields_differing(t, anchor.tuning) == 1 &&
          footprint(Plan(shape, cache, t)) != anchor_plan) {
        EXPECT_EQ(present(t), 1) << "missing move to " << v;
      }
    }
  };
  expect_moves(&plan::PlanTuning::force_pack_a, grid.pack_a);
  expect_moves(&plan::PlanTuning::force_pack_b, grid.pack_b);
  expect_moves(&plan::PlanTuning::mc_cap, grid.mc_cap);
  expect_moves(&plan::PlanTuning::nc_cap, grid.nc_cap);
  expect_moves(&plan::PlanTuning::slice_override, grid.slice);
  expect_moves(&plan::PlanTuning::chunk_groups, grid.chunk);
}

TEST(GemmCandidates, AnchorAndItsOneFieldMoves) {
  using Limits = kernels::KernelLimits<float>;
  ThreadPool pool(2);
  for (const bool pooled : {false, true}) {
    TuneOptions opts = tiny_budget();
    opts.pool = pooled ? &pool : nullptr;
    // 5 rows tile as 3+2 under a cap of 4 and of 3 alike: at 5x5 the
    // cap-3 moves build the anchor's plan and are left out.
    for (const GemmShape& shape :
         {GemmShape{5, 5, 5, Op::NoTrans, Op::NoTrans, 16},
          GemmShape{6, 3, 7, Op::Trans, Op::NoTrans, 16},
          GemmShape{9, 12, 2, Op::NoTrans, Op::ConjTrans, 16},
          GemmShape{2, 2, 2, Op::NoTrans, Op::NoTrans, 16}}) {
      SCOPED_TRACE(testing::Message() << shape.m << "x" << shape.n
                                      << (pooled ? " pooled" : ""));
      const index_t s0 =
          plan::GemmPlan<float>(shape, CacheInfo::kunpeng920())
              .slice_groups();
      const auto packs = [](Op op) {
        return op == Op::NoTrans ? std::vector<int>{0, 1}
                                 : std::vector<int>{1};
      };
      Grid grid{packs(shape.op_a), packs(shape.op_b),
                grid_caps(shape.m, Limits::gemm_max_mc),
                grid_caps(shape.n, Limits::gemm_max_nc), grid_slices(s0),
                {0}};
      if (pooled) {
        grid.chunk = {0, std::max<index_t>(1, s0),
                      std::max<index_t>(1, s0 * 4)};
      }
      expect_neighbourhood<plan::GemmPlan<float>>(
          shape,
          gemm_candidates<float>(shape, CacheInfo::kunpeng920(), opts),
          grid);
    }
  }
}

template <class T> void expect_trsm_neighbourhood(TrsmShape shape) {
  using Limits = kernels::KernelLimits<T>;
  shape.batch = 16;
  const plan::TrsmPlan<T> probe(shape, CacheInfo::kunpeng920());
  const index_t s0 = probe.slice_groups();
  const bool gathers = probe.canon().reverse || probe.canon().b_transpose;
  Grid grid;
  grid.pack_b = gathers ? std::vector<int>{1} : std::vector<int>{0, 1};
  grid.mc_cap = {0};
  for (int cap : {Limits::trsm_block, Limits::trsm_block / 2}) {
    if (cap >= 1 && cap < probe.canon().m) {
      grid.mc_cap.push_back(cap);
    }
  }
  grid.nc_cap = {Limits::tri_max_nc, 2, 1};
  grid.slice = grid_slices(s0);
  grid.chunk = {0};
  expect_neighbourhood<plan::TrsmPlan<T>>(
      shape,
      trsm_candidates<T>(shape, CacheInfo::kunpeng920(), tiny_budget()),
      grid);
}

TEST(TrsmCandidates, AnchorAndItsOneFieldMoves) {
  for (index_t m : {2, 3, 5, 8, 16}) {
    SCOPED_TRACE(testing::Message() << "m=" << m);
    TrsmShape lower; // LLNN: B solved in place
    lower.m = m;
    lower.n = 6;
    TrsmShape right = lower; // RUTU: canonical form gathers B
    right.side = Side::Right;
    right.uplo = Uplo::Upper;
    right.op_a = Op::Trans;
    right.diag = Diag::Unit;
    right.n = m;
    right.m = 3;
    expect_trsm_neighbourhood<double>(lower);
    expect_trsm_neighbourhood<double>(right);
    expect_trsm_neighbourhood<std::complex<float>>(lower);
  }
}

TEST(TrsmCandidates, DefaultBlockCapIsNotACandidate) {
  // Above the register-resident size the default decomposition already
  // blocks by trsm_block: that cap is the anchor under another name.
  TrsmShape shape;
  shape.m = 8;
  shape.n = 8;
  shape.batch = 16;
  const auto candidates =
      trsm_candidates<double>(shape, CacheInfo::kunpeng920(), tiny_budget());
  for (const Candidate& c : candidates) {
    EXPECT_NE(c.tuning.mc_cap, kernels::KernelLimits<double>::trsm_block);
  }
  EXPECT_TRUE(std::any_of(candidates.begin(), candidates.end(),
                          [](const Candidate& c) {
                            return c.tuning.mc_cap ==
                                   kernels::KernelLimits<double>::trsm_block /
                                       2;
                          }));
}

TEST(TrsmCandidates, WholeTriangleAppearsAtEverySlice) {
  // m = 5 is the largest triangle the register-resident kernel solves
  // whole; the default decomposition is timed at every slice variant.
  TrsmShape shape;
  shape.m = 5;
  shape.n = 5;
  shape.batch = 16;
  const index_t s0 =
      plan::TrsmPlan<double>(shape, CacheInfo::kunpeng920()).slice_groups();
  const auto candidates =
      trsm_candidates<double>(shape, CacheInfo::kunpeng920(), tiny_budget());
  for (index_t slice : grid_slices(s0)) {
    EXPECT_TRUE(std::any_of(candidates.begin(), candidates.end(),
                            [&](const Candidate& c) {
                              return c.tuning.mc_cap == 0 &&
                                     c.tuning.nc_cap ==
                                         kernels::KernelLimits<
                                             double>::tri_max_nc &&
                                     c.tuning.slice_override == slice;
                            }))
        << "slice " << slice;
  }
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
