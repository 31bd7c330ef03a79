#include "iatf/tune/search.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <type_traits>
#include <vector>

#include "iatf/codegen/gemm_emitter.hpp"
#include "iatf/common/error.hpp"
#include "iatf/common/rng.hpp"
#include "iatf/common/timer.hpp"
#include "iatf/core/width_dispatch.hpp"
#include "iatf/kernels/registry.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/pack/trsm_pack.hpp"
#include "iatf/pipesim/simulator.hpp"
#include "iatf/plan/gemm_plan.hpp"
#include "iatf/plan/trsm_plan.hpp"
#include "iatf/sched/scheduler.hpp"
#include "iatf/simd/isa.hpp"
#include "../core/engine_ops.hpp"

namespace iatf::tune {
namespace {

constexpr double kBadScore = 1e30;

/// Secondary ranking terms: keep candidates near the analytical default
/// ahead of exotic ones when the simulator cannot tell them apart (the
/// simulator sees the kernel stream, not slice or chunk effects).
double tie_break(const plan::PlanTuning& tuning, index_t slice_default) {
  double t = 0.0;
  if (tuning.slice_override > 0 && slice_default > 0) {
    t += 1e-3 * std::fabs(std::log2(
                    static_cast<double>(tuning.slice_override) /
                    static_cast<double>(slice_default)));
  }
  if (tuning.chunk_groups > 0) {
    t += 5e-4;
  }
  return t;
}

/// Packing copies the operand once per group: charge the proxy cost of
/// one load+store per packed element block, spread over the group's
/// madds, so pack candidates rank behind no-pack ones of the same kernel
/// unless the kernel stream itself differs.
double gemm_pack_proxy(const GemmShape& s, int pack_a, int pack_b) {
  const double madds = static_cast<double>(std::max<index_t>(s.m, 1)) *
                       static_cast<double>(std::max<index_t>(s.n, 1)) *
                       static_cast<double>(std::max<index_t>(s.k, 1));
  double blocks = 0.0;
  if (pack_a == 1) {
    blocks += static_cast<double>(s.m * s.k);
  }
  if (pack_b == 1) {
    blocks += static_cast<double>(s.k * s.n);
  }
  return 2.0 * blocks / madds;
}

double simulated_tri_score(int m, int nc, int elem_bytes) {
  try {
    codegen::TrsmTriKernelSpec spec;
    spec.m = m;
    spec.nc = nc;
    spec.elem_bytes = elem_bytes;
    const auto model = pipesim::MachineModel::kunpeng920();
    const auto prog = sched::schedule(codegen::emit_trsm_tri_kernel(spec),
                                      model);
    const auto result = pipesim::simulate(prog, model);
    const double madds = 0.5 * m * (m + 1) * nc;
    return static_cast<double>(result.cycles) / std::max(madds, 1.0);
  } catch (const Error&) {
    return kBadScore;
  }
}

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

template <class T, int Bytes>
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

Candidate pick_winner(const std::vector<Candidate>& timed) {
  // Baseline first so a tuned candidate must strictly beat it.
  const auto base = std::find_if(timed.begin(), timed.end(),
                                 [](const Candidate& c) {
                                   return c.analytical;
                                 });
  Candidate best = base != timed.end() ? *base : timed.front();
  for (const Candidate& c : timed) {
    if (c.gflops > best.gflops) {
      best = c;
    }
  }
  return best;
}

} // namespace

std::vector<Candidate> timed_set(std::vector<Candidate> candidates,
                                 const TuneOptions& opts) {
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.sim_score < b.sim_score;
                   });
  std::size_t keep = candidates.size();
  if (opts.top_k > 0) {
    keep = std::min<std::size_t>(keep,
                                 static_cast<std::size_t>(opts.top_k));
  }
  std::vector<Candidate> timed(candidates.begin(),
                               candidates.begin() + keep);
  const auto is_analytical = [](const Candidate& c) { return c.analytical; };
  if (std::none_of(timed.begin(), timed.end(), is_analytical)) {
    const auto it = std::find_if(candidates.begin() + keep,
                                 candidates.end(), is_analytical);
    if (it != candidates.end()) {
      timed.push_back(*it);
    }
  }
  return timed;
}

double simulated_gemm_score(int mc, int nc, index_t k, int elem_bytes) {
  try {
    codegen::GemmKernelSpec spec;
    spec.mc = mc;
    spec.nc = nc;
    spec.k = std::max<index_t>(k, 1);
    spec.elem_bytes = elem_bytes;
    const auto model = pipesim::MachineModel::kunpeng920();
    const auto prog = sched::schedule(codegen::emit_gemm_kernel(spec),
                                      model);
    const auto result = pipesim::simulate(prog, model);
    const double madds = static_cast<double>(mc) * nc *
                         static_cast<double>(spec.k);
    return static_cast<double>(result.cycles) / madds;
  } catch (const Error&) {
    return kBadScore;
  }
}

template <class T, int Bytes>
std::vector<Candidate> gemm_candidates(const GemmShape& shape,
                                       const CacheInfo& cache,
                                       const TuneOptions& opts) {
  using Limits = kernels::KernelLimits<T>;
  // The portable kernels consume the reals of a complex element block
  // separately, so the simulator proxy always scores real streams.
  const int elem_bytes = static_cast<int>(sizeof(real_t<T>));

  const plan::GemmPlan<T, Bytes> probe(shape, cache);
  const index_t s0 = probe.slice_groups();

  std::vector<int> packs_a =
      shape.op_a == Op::NoTrans ? std::vector<int>{0, 1}
                                : std::vector<int>{1};
  std::vector<int> packs_b =
      shape.op_b == Op::NoTrans ? std::vector<int>{0, 1}
                                : std::vector<int>{1};
  const int max_mc = static_cast<int>(
      std::min<index_t>(Limits::gemm_max_mc, std::max<index_t>(shape.m, 1)));
  const int max_nc = static_cast<int>(
      std::min<index_t>(Limits::gemm_max_nc, std::max<index_t>(shape.n, 1)));
  const auto slices = slice_variants(s0);
  const auto chunks = chunk_variants(opts, s0);

  // Simulator scores depend only on the kernel variant; compute each
  // (mc, nc) stream once and share it across pack/slice/chunk variants.
  std::vector<std::vector<double>> kernel_score(
      static_cast<std::size_t>(max_mc),
      std::vector<double>(static_cast<std::size_t>(max_nc), 0.0));
  for (int mc = 1; mc <= max_mc; ++mc) {
    for (int nc = 1; nc <= max_nc; ++nc) {
      kernel_score[mc - 1][nc - 1] =
          simulated_gemm_score(mc, nc, shape.k, elem_bytes);
    }
  }

  const int default_pack_a = probe.packs_a() ? 1 : 0;
  const int default_pack_b = probe.packs_b() ? 1 : 0;

  std::vector<Candidate> out;
  for (int pa : packs_a) {
    for (int pb : packs_b) {
      for (int mc = 1; mc <= max_mc; ++mc) {
        for (int nc = 1; nc <= max_nc; ++nc) {
          for (index_t slice : slices) {
            for (index_t chunk : chunks) {
              Candidate c;
              c.tuning.force_pack_a = pa;
              c.tuning.force_pack_b = pb;
              c.tuning.mc_cap = mc;
              c.tuning.nc_cap = nc;
              c.tuning.slice_override = slice;
              c.tuning.chunk_groups = chunk;
              c.sim_score = kernel_score[mc - 1][nc - 1] +
                            gemm_pack_proxy(shape, pa, pb) +
                            tie_break(c.tuning, s0);
              c.analytical = pa == default_pack_a &&
                             pb == default_pack_b && mc == max_mc &&
                             nc == max_nc && slice == s0 && chunk == 0;
              out.push_back(c);
            }
          }
        }
      }
    }
  }
  return out;
}

template <class T, int Bytes>
std::vector<Candidate> trsm_candidates(const TrsmShape& shape,
                                       const CacheInfo& cache,
                                       const TuneOptions& opts) {
  using Limits = kernels::KernelLimits<T>;
  const int elem_bytes = static_cast<int>(sizeof(real_t<T>));
  const pack::TrsmCanon canon = pack::TrsmCanon::make(shape);
  const bool gathers = canon.reverse || canon.b_transpose;

  const plan::TrsmPlan<T, Bytes> probe(shape, cache);
  const index_t s0 = probe.slice_groups();

  const std::vector<int> packs_b =
      gathers ? std::vector<int>{1} : std::vector<int>{0, 1};
  std::vector<int> block_caps{0}; // 0 = default decomposition
  for (int cap : {static_cast<int>(Limits::trsm_block),
                  static_cast<int>(Limits::trsm_block) / 2}) {
    if (cap >= 1 && cap < canon.m &&
        std::find(block_caps.begin(), block_caps.end(), cap) ==
            block_caps.end()) {
      block_caps.push_back(cap);
    }
  }
  std::vector<int> panel_caps;
  for (int cap : {static_cast<int>(Limits::tri_max_nc), 2, 1}) {
    if (cap >= 1 && cap <= Limits::tri_max_nc &&
        std::find(panel_caps.begin(), panel_caps.end(), cap) ==
            panel_caps.end()) {
      panel_caps.push_back(cap);
    }
  }
  const auto slices = slice_variants(s0);
  const auto chunks = chunk_variants(opts, s0);

  std::vector<Candidate> out;
  for (int pb : packs_b) {
    for (int bc : block_caps) {
      for (int pc : panel_caps) {
        const int sim_m = bc > 0 ? bc
                                 : static_cast<int>(std::min<index_t>(
                                       canon.m, Limits::tri_max_m));
        const double kscore =
            sim_m >= 1 ? simulated_tri_score(sim_m, pc, elem_bytes)
                       : kBadScore;
        for (index_t slice : slices) {
          for (index_t chunk : chunks) {
            Candidate c;
            c.tuning.force_pack_b = pb;
            c.tuning.mc_cap = bc;
            c.tuning.nc_cap = pc;
            c.tuning.slice_override = slice;
            c.tuning.chunk_groups = chunk;
            c.sim_score = kscore + tie_break(c.tuning, s0);
            c.analytical = pb == (probe.packs_b() ? 1 : 0) && bc == 0 &&
                           pc == Limits::tri_max_nc && slice == s0 &&
                           chunk == 0;
            out.push_back(c);
          }
        }
      }
    }
  }
  return out;
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

/// The one tuner loop over the core op traits: for each timed candidate,
/// restore the written operand, run the plan once as the warm-up whose
/// lane 0 must agree with the scalar reference, then take the median of
/// the timed repetitions.
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
    return record_from<T, kBytes>(echo, echo);
  }

  typename Traits::Operands ops(shape);
  Rng rng(opts.seed);
  fill_measurement<T, kBytes>(ops, rng);
  CompactBuffer<T>& out = *sched::written(ops.seg);
  const std::vector<R> initial(out.data(), out.data() + out.size());
  const detail::Tolerance<R> tol{check_tolerance<T>(depth(shape)), R(0)};

  auto timed = timed_set(candidates<T, kBytes>(shape, cache, opts), opts);
  for (Candidate& cand : timed) {
    std::copy(initial.begin(), initial.end(), out.data());
    try {
      const Plan plan(shape, cache, cand.tuning);
      const auto run = [&] { run_plan<Traits>(plan, ops.seg, opts.pool); };
      // The warm-up faults pages, loads caches and produces the output
      // the gate inspects; a wrong result keeps 0 GFLOP/s and never
      // wins, whatever its speed.
      if (!detail::agrees_with_reference<Traits>(shape, ops.seg, 1, tol,
                                                 run)) {
        continue;
      }
      std::vector<double> secs;
      secs.reserve(static_cast<std::size_t>(std::max(opts.reps, 1)));
      for (int r = 0; r < std::max(opts.reps, 1); ++r) {
        Timer t;
        run();
        secs.push_back(t.seconds());
      }
      const double med = median(secs);
      cand.gflops = med > 0.0 ? work / med * 1e-9 : 0.0;
    } catch (const Error&) {
      cand.gflops = 0.0; // unbuildable candidate (e.g. missing kernel)
    }
  }

  const Candidate winner = pick_winner(timed);
  const auto base = std::find_if(timed.begin(), timed.end(),
                                 [](const Candidate& x) {
                                   return x.analytical;
                                 });
  return record_from<T, kBytes>(winner,
                                base != timed.end() ? *base : winner);
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
