#include "iatf/tune/search.hpp"

#include <algorithm>
#include <complex>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "iatf/common/error.hpp"
#include "iatf/common/rng.hpp"
#include "iatf/common/timer.hpp"
#include "iatf/core/width_dispatch.hpp"
#include "iatf/kernels/registry.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/pack/trsm_pack.hpp"
#include "iatf/plan/gemm_plan.hpp"
#include "iatf/plan/trsm_plan.hpp"
#include "iatf/simd/isa.hpp"
#include "../core/engine_ops.hpp"

namespace iatf::tune {
namespace {

/// Median of the timed repetitions (robust against scheduler noise in a
/// way the mean is not).
double median(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0
                : (n % 2 == 1 ? v[n / 2]
                              : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

/// Absolute tolerance of the per-candidate correctness gate at reduction
/// depth `depth`: eps * (50 + 10 * depth) * depth, wide enough for the
/// rounding of random operands summed over `depth` terms.
template <class T> real_t<T> check_tolerance(index_t depth) {
  using R = real_t<T>;
  const index_t d = std::max<index_t>(depth, 1);
  return std::numeric_limits<R>::epsilon() * static_cast<R>(50 + 10 * d) *
         static_cast<R>(d);
}

index_t depth(const GemmShape& s) { return s.k; }
index_t depth(const TrsmShape& s) { return s.a_dim(); }

template <class T> double flops(const GemmShape& s) {
  return gemm_flops<T>(s);
}
template <class T> double flops(const TrsmShape& s) {
  return trsm_flops<T>(s);
}

/// The measurement operands: seeded uniform A and B (C starts at zero).
template <class T, int Bytes>
void fill_measurement(typename detail::GemmOp<T, Bytes>::Operands& ops,
                      Rng& rng) {
  using R = real_t<T>;
  rng.fill<R>(std::span<R>(ops.a.data(), ops.a.size()));
  rng.fill<R>(std::span<R>(ops.b.data(), ops.b.size()));
}

/// Seeded B and well-conditioned triangular factors (diagonal bounded
/// away from zero) so repeated in-place solves neither blow up nor
/// denormalise.
template <class T, int Bytes>
void fill_measurement(typename detail::TrsmOp<T, Bytes>::Operands& ops,
                      Rng& rng) {
  using R = real_t<T>;
  rng.fill<R>(std::span<R>(ops.b.data(), ops.b.size()));
  const index_t adim = ops.a.rows();
  std::vector<T> host(static_cast<std::size_t>(adim * adim));
  const R off_scale = adim > 1 ? R(0.5) / static_cast<R>(adim) : R(1);
  for (index_t lane = 0; lane < ops.a.batch(); ++lane) {
    rng.fill<T>(host);
    for (index_t j = 0; j < adim; ++j) {
      for (index_t i = 0; i < adim; ++i) {
        if (i == j) {
          host[j * adim + i] += T(1);
        } else {
          host[j * adim + i] *= off_scale;
        }
      }
    }
    ops.a.import_colmajor(lane, host.data(), adim);
  }
  ops.a.pad_identity();
}

/// Run a candidate plan once over the whole batch, on the pool when the
/// options carry one.
template <class Traits>
void run_plan(const typename Traits::Plan& plan,
              const typename Traits::Segment& seg, ThreadPool* pool) {
  if (pool == nullptr) {
    Traits::execute(plan, seg, nullptr, nullptr);
    return;
  }
  pool->parallel_for(
      0, sched::written(seg)->groups(),
      [&](index_t g_begin, index_t g_end) {
        Traits::execute_range(plan, seg, g_begin, g_end, nullptr, nullptr);
      },
      plan.chunk_groups());
}

index_t round_up_batch(index_t batch, index_t pw) {
  const index_t at_least = std::max(batch, pw);
  return (at_least + pw - 1) / pw * pw;
}

void push_unique(std::vector<index_t>& values, index_t v) {
  if (v >= 1 && std::find(values.begin(), values.end(), v) == values.end()) {
    values.push_back(v);
  }
}

std::vector<index_t> slice_variants(index_t s0) {
  std::vector<index_t> slices;
  push_unique(slices, s0);
  push_unique(slices, std::max<index_t>(1, s0 / 4));
  push_unique(slices, std::max<index_t>(1, s0 / 2));
  push_unique(slices, s0 * 2);
  push_unique(slices, s0 * 4);
  return slices;
}

std::vector<index_t> chunk_variants(const TuneOptions& opts, index_t s0) {
  std::vector<index_t> chunks{0};
  if (opts.pool != nullptr) {
    push_unique(chunks, std::max<index_t>(1, s0));
    push_unique(chunks, std::max<index_t>(1, s0 * 4));
  }
  return chunks;
}

TuneRecord record_from(const Candidate& c, const Candidate& baseline) {
  TuneRecord rec;
  rec.pack_a = c.tuning.force_pack_a;
  rec.pack_b = c.tuning.force_pack_b;
  rec.slice_groups = c.tuning.slice_override;
  rec.mc_cap = c.tuning.mc_cap;
  rec.nc_cap = c.tuning.nc_cap;
  rec.chunk_groups = c.tuning.chunk_groups;
  rec.gflops = c.gflops;
  rec.baseline_gflops = baseline.gflops;
  return rec;
}

/// Whether two plans of one shape run the same way: the same packs,
/// tiles (GEMM) or blocks and panels (TRSM), slice and chunk. Tuning
/// values that clamp to one plan -- a cap at or above the width's tile,
/// a panel cap as wide as B -- compare equal.
template <class T, int Bytes>
bool same_plan(const plan::GemmPlan<T, Bytes>& a,
               const plan::GemmPlan<T, Bytes>& b) {
  return a.packs_a() == b.packs_a() && a.packs_b() == b.packs_b() &&
         std::ranges::equal(a.m_tiles(), b.m_tiles()) &&
         std::ranges::equal(a.n_tiles(), b.n_tiles()) &&
         a.slice_groups() == b.slice_groups() &&
         a.chunk_groups() == b.chunk_groups();
}
template <class T, int Bytes>
bool same_plan(const plan::TrsmPlan<T, Bytes>& a,
               const plan::TrsmPlan<T, Bytes>& b) {
  return a.packs_b() == b.packs_b() &&
         std::ranges::equal(a.blocks(), b.blocks()) &&
         std::ranges::equal(a.panels(), b.panels()) &&
         a.slice_groups() == b.slice_groups() &&
         a.chunk_groups() == b.chunk_groups();
}

/// The values each tuning field may move to.
struct FieldValues {
  std::vector<int> pack_a, pack_b, mc_cap, nc_cap;
  std::vector<index_t> slice, chunk;
};

/// The anchor, then every move that sets one of its fields to another of
/// `values` -- unless the move builds the anchor's plan.
template <class Plan, class Shape>
std::vector<Candidate> neighbourhood(const Shape& shape,
                                     const CacheInfo& cache,
                                     const plan::PlanTuning& anchor,
                                     const FieldValues& values) {
  const Plan anchor_plan(shape, cache, anchor);
  std::vector<Candidate> out{Candidate{anchor, 0.0, true}};
  const auto move = [&](auto field, const auto& field_values) {
    for (const auto v : field_values) {
      Candidate c{anchor};
      if (c.tuning.*field == v) {
        continue;
      }
      c.tuning.*field = v;
      if (!same_plan(Plan(shape, cache, c.tuning), anchor_plan)) {
        out.push_back(c);
      }
    }
  };
  move(&plan::PlanTuning::force_pack_a, values.pack_a);
  move(&plan::PlanTuning::force_pack_b, values.pack_b);
  move(&plan::PlanTuning::mc_cap, values.mc_cap);
  move(&plan::PlanTuning::nc_cap, values.nc_cap);
  move(&plan::PlanTuning::slice_override, values.slice);
  move(&plan::PlanTuning::chunk_groups, values.chunk);
  return out;
}

/// The pack choices of an operand: both when it can be read in place,
/// else only the gather.
std::vector<int> pack_values(bool gathers) {
  return gathers ? std::vector<int>{1} : std::vector<int>{0, 1};
}

/// 1..n.
std::vector<int> caps_up_to(int n) {
  std::vector<int> caps;
  for (int c = 1; c <= n; ++c) {
    caps.push_back(c);
  }
  return caps;
}

} // namespace

template <class T, int Bytes>
std::vector<Candidate> gemm_candidates(const GemmShape& shape,
                                       const CacheInfo& cache,
                                       const TuneOptions& opts) {
  using Limits = kernels::KernelLimits<T>;
  const plan::GemmPlan<T, Bytes> probe(shape, cache);
  const index_t s0 = probe.slice_groups();
  const int max_mc = static_cast<int>(
      std::min<index_t>(Limits::gemm_max_mc, std::max<index_t>(shape.m, 1)));
  const int max_nc = static_cast<int>(
      std::min<index_t>(Limits::gemm_max_nc, std::max<index_t>(shape.n, 1)));

  plan::PlanTuning anchor;
  anchor.force_pack_a = probe.packs_a() ? 1 : 0;
  anchor.force_pack_b = probe.packs_b() ? 1 : 0;
  anchor.mc_cap = max_mc;
  anchor.nc_cap = max_nc;
  anchor.slice_override = s0;
  return neighbourhood<plan::GemmPlan<T, Bytes>>(
      shape, cache, anchor,
      {.pack_a = pack_values(shape.op_a != Op::NoTrans),
       .pack_b = pack_values(shape.op_b != Op::NoTrans),
       .mc_cap = caps_up_to(max_mc),
       .nc_cap = caps_up_to(max_nc),
       .slice = slice_variants(s0),
       .chunk = chunk_variants(opts, s0)});
}

template <class T, int Bytes>
std::vector<Candidate> trsm_candidates(const TrsmShape& shape,
                                       const CacheInfo& cache,
                                       const TuneOptions& opts) {
  using Limits = kernels::KernelLimits<T>;
  const plan::TrsmPlan<T, Bytes> probe(shape, cache);
  const index_t s0 = probe.slice_groups();
  const pack::TrsmCanon& canon = probe.canon();

  // mc_cap 0 is the default decomposition: the whole triangle when it
  // fits in registers, else trsm_block-sized diagonal blocks.
  plan::PlanTuning anchor;
  anchor.force_pack_b = probe.packs_b() ? 1 : 0;
  anchor.nc_cap = Limits::tri_max_nc;
  anchor.slice_override = s0;
  return neighbourhood<plan::TrsmPlan<T, Bytes>>(
      shape, cache, anchor,
      {.pack_a = {}, // TRSM packs its triangle always
       .pack_b = pack_values(canon.reverse || canon.b_transpose),
       .mc_cap = {Limits::trsm_block, Limits::trsm_block / 2},
       .nc_cap = {2, 1},
       .slice = slice_variants(s0),
       .chunk = chunk_variants(opts, s0)});
}

namespace {

template <class T, int Bytes>
std::vector<Candidate> candidates(const GemmShape& shape,
                                  const CacheInfo& cache,
                                  const TuneOptions& opts) {
  return gemm_candidates<T, Bytes>(shape, cache, opts);
}
template <class T, int Bytes>
std::vector<Candidate> candidates(const TrsmShape& shape,
                                  const CacheInfo& cache,
                                  const TuneOptions& opts) {
  return trsm_candidates<T, Bytes>(shape, cache, opts);
}

/// The one tuner loop over the core op traits. Each candidate's plan is
/// built and run once as the warm-up whose lane 0 must agree with the
/// scalar reference. Those that pass are timed round-robin: repetition r
/// of every candidate before repetition r+1, so the cold first runs of
/// a process do not all fall on one candidate, with the written operand
/// restored before each run, outside the timed region. A candidate
/// scores the median of its repetitions.
template <class Traits>
TuneRecord tune(const typename Traits::Shape& in_shape,
                const CacheInfo& cache, const TuneOptions& opts) {
  using T = typename Traits::value_type;
  using R = real_t<T>;
  using Plan = typename Traits::Plan;
  constexpr int kBytes = Traits::bytes;
  typename Traits::Shape shape = in_shape;
  shape.batch = round_up_batch(opts.batch, Plan::pack_width());

  const Plan probe(shape, cache); // rejects negative dimensions
  const double work = flops<T>(shape);
  if (work == 0.0) {
    // Degenerate problems have nothing to tune; echo the defaults.
    Candidate echo;
    if constexpr (requires { probe.packs_a(); }) {
      echo.tuning.force_pack_a = probe.packs_a() ? 1 : 0;
    }
    echo.tuning.force_pack_b = probe.packs_b() ? 1 : 0;
    echo.tuning.slice_override = probe.slice_groups();
    echo.analytical = true;
    return record_from(echo, echo);
  }

  typename Traits::Operands ops(shape);
  Rng rng(opts.seed);
  fill_measurement<T, kBytes>(ops, rng);
  CompactBuffer<T>& out = *sched::written(ops.seg);
  const std::vector<R> initial(out.data(), out.data() + out.size());
  const auto restore = [&] {
    std::copy(initial.begin(), initial.end(), out.data());
  };
  const detail::Tolerance<R> tol{check_tolerance<T>(depth(shape)), R(0)};

  std::vector<Candidate> cands = candidates<T, kBytes>(shape, cache, opts);
  // A candidate that cannot be built (e.g. a missing kernel) or computes
  // a wrong result keeps no plan and 0 GFLOP/s, and never wins.
  std::vector<std::unique_ptr<const Plan>> plans(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    restore();
    try {
      auto plan = std::make_unique<const Plan>(shape, cache, cands[i].tuning);
      if (detail::agrees_with_reference<Traits>(
              shape, ops.seg, 1, tol,
              [&] { run_plan<Traits>(*plan, ops.seg, opts.pool); })) {
        plans[i] = std::move(plan);
      }
    } catch (const Error&) {
    }
  }

  const int reps = std::max(opts.reps, 1);
  std::vector<std::vector<double>> secs(cands.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (plans[i] == nullptr) {
        continue;
      }
      restore();
      Timer t;
      run_plan<Traits>(*plans[i], ops.seg, opts.pool);
      secs[i].push_back(t.seconds());
    }
  }
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const double med = median(secs[i]);
    cands[i].gflops = med > 0.0 ? work / med * 1e-9 : 0.0;
  }

  // The anchor comes first, so a move must strictly beat it.
  const Candidate* winner = &cands.front();
  for (const Candidate& c : cands) {
    if (c.gflops > winner->gflops) {
      winner = &c;
    }
  }
  return record_from(*winner, cands.front());
}

/// Invoke `f` with std::type_identity<T> for a dtype tag.
template <class F> TunedRecord with_dtype(char dtype, F&& f) {
  switch (dtype) {
  case 's':
    return f(std::type_identity<float>{});
  case 'd':
    return f(std::type_identity<double>{});
  case 'c':
    return f(std::type_identity<std::complex<float>>{});
  case 'z':
    return f(std::type_identity<std::complex<double>>{});
  default:
    throw Error("tune: unknown dtype tag");
  }
}

/// Tune at the active backend's register width for a runtime dtype tag.
template <template <class, int> class Op, class Shape>
TunedRecord tune_dyn(char dtype, const Shape& shape, const CacheInfo& cache,
                     const TuneOptions& opts) {
  return with_dtype(dtype, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return dispatch_width<T>(simd::active_pack_width<T>(), [&](auto bytes) {
      constexpr int kBytes = decltype(bytes)::value;
      return TunedRecord{tune_key(sched::class_key<T>(shape, kBytes)),
                         tune<Op<T, kBytes>>(shape, cache, opts)};
    });
  });
}

} // namespace

template <class T, int Bytes>
TuneRecord tune_gemm(const GemmShape& shape, const CacheInfo& cache,
                     const TuneOptions& opts) {
  return tune<detail::GemmOp<T, Bytes>>(shape, cache, opts);
}

template <class T, int Bytes>
TuneRecord tune_trsm(const TrsmShape& shape, const CacheInfo& cache,
                     const TuneOptions& opts) {
  return tune<detail::TrsmOp<T, Bytes>>(shape, cache, opts);
}

TunedRecord tune_gemm_dyn(char dtype, const GemmShape& shape,
                          const CacheInfo& cache, const TuneOptions& opts) {
  return tune_dyn<detail::GemmOp>(dtype, shape, cache, opts);
}

TunedRecord tune_trsm_dyn(char dtype, const TrsmShape& shape,
                          const CacheInfo& cache, const TuneOptions& opts) {
  return tune_dyn<detail::TrsmOp>(dtype, shape, cache, opts);
}

#define IATF_INSTANTIATE_TUNE(T, Bytes)                                      \
  template std::vector<Candidate> gemm_candidates<T, Bytes>(                 \
      const GemmShape&, const CacheInfo&, const TuneOptions&);               \
  template std::vector<Candidate> trsm_candidates<T, Bytes>(                 \
      const TrsmShape&, const CacheInfo&, const TuneOptions&);               \
  template TuneRecord tune_gemm<T, Bytes>(const GemmShape&,                  \
                                          const CacheInfo&,                  \
                                          const TuneOptions&);               \
  template TuneRecord tune_trsm<T, Bytes>(const TrsmShape&,                  \
                                          const CacheInfo&,                  \
                                          const TuneOptions&);
#define IATF_INSTANTIATE_TUNE_WIDTHS(T)                                      \
  IATF_INSTANTIATE_TUNE(T, 16)                                               \
  IATF_INSTANTIATE_TUNE(T, 32)                                               \
  IATF_INSTANTIATE_TUNE(T, 64)

IATF_INSTANTIATE_TUNE_WIDTHS(float)
IATF_INSTANTIATE_TUNE_WIDTHS(double)
IATF_INSTANTIATE_TUNE_WIDTHS(std::complex<float>)
IATF_INSTANTIATE_TUNE_WIDTHS(std::complex<double>)

#undef IATF_INSTANTIATE_TUNE_WIDTHS
#undef IATF_INSTANTIATE_TUNE

} // namespace iatf::tune
