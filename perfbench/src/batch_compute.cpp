// batch-compute: the paper's regime. One caller thread drives the engine
// (default configuration, no thread pool) over a descriptor grid of
// pre-converted compact buffers at batch 16384, bounded by the figure
// benches' auto_batch memory cap.
//
// Grid: GEMM NN s/d/c/z at n in {4,8,16,24,33}; TRSM LNLN d at n in
// {8,24}; potrf_batch d on a PackedHandle at n in {8,24}; one ragged
// gemm_grouped call over n = 4..33. Every call is at the engine's chosen
// width (the active ISA's pack width).
#include <algorithm>
#include <array>
#include <complex>
#include <cstring>
#include <functional>

#include "common.hpp"
#include "common/series.hpp"
#include "layers.hpp"
#include "iatf/core/width_dispatch.hpp"
#include "iatf/pack/gemm_pack.hpp"
#include "iatf/simd/isa.hpp"
#include "schedule.hpp"

namespace pb {
namespace {

using namespace iatf;
using cf = std::complex<float>;
using cd = std::complex<double>;

/// One grid descriptor's timed calls.
struct Entry {
  std::string label;
  index_t n = 0;
  double flops = 0.0;        ///< useful flops of one call
  std::vector<double> us;    ///< per-call latency
  double gflops() const { return flops / median(us) * 1e-3; }
};

struct Ctx {
  Ctx(const Args& a, Report& r, Engine& e) : args(a), rep(r), eng(e) {}
  const Args& args;
  Report& rep;
  Engine& eng;
  double weight_seconds = 0.0; ///< timed seconds per unit of entry weight
  std::vector<Entry> entries;
  Ops ops;
  double setup_s = 0.0;          ///< sum of per-entry median set-up
  std::vector<double> build_us;  ///< cold plan builds
  double convert_bytes = 0.0, convert_s = 0.0;
  // traced run only
  std::vector<double> exec_gflops, roofline, ops_per_byte, pack_ns;
  std::vector<double> potrf_gflops;
  double overhead_small = 0.0, overhead_large = 0.0;
  double grouped_over_loop = 0.0;
  double trace_overhead = 0.0;
  std::vector<double> gap_us; ///< call end -> next call start
  double peak[4] = {}; ///< kernel roofline per dtype s, d, c, z
};

constexpr int kSetupReps = 3;
constexpr int kCheckedLanes = 8;

template <class T> constexpr int dtype_index() {
  if constexpr (std::is_same_v<T, float>) return 0;
  else if constexpr (std::is_same_v<T, double>) return 1;
  else if constexpr (std::is_same_v<T, cf>) return 2;
  else return 3;
}
template <class T> const char* dtype_name() {
  return std::array{"s", "d", "c", "z"}[dtype_index<T>()];
}

/// Weight of an entry in the timed budget: slow mid-size calls get more
/// time so every descriptor contributes a useful number of calls.
double entry_weight(index_t n) {
  return n <= 4 ? 1.0 : n <= 8 ? 2.0 : n <= 16 ? 4.0 : n <= 24 ? 2.0 : 1.5;
}

/// Span log of a traced run (null when untraced).
SpanLog* trace_log(Ctx& cx) { return cx.args.trace ? &cx.rep.trace : nullptr; }

/// Between-call gaps of the closed loop (traced runs only).
std::vector<double>* gaps(Ctx& cx) {
  return cx.args.trace ? &cx.gap_us : nullptr;
}

template <class T> bool close(T got, T want, index_t n) {
  using R = real_t<T>;
  const double eps = std::numeric_limits<R>::epsilon();
  return std::abs(got - want) <=
         32.0 * eps * static_cast<double>(n) * (1.0 + std::abs(want));
}

/// Lanes to check: seeded, distinct purpose tag per entry.
std::vector<index_t> checked_lanes(std::uint64_t seed, std::uint64_t tag,
                                   index_t batch) {
  Stream rng(seed, 0xc4ec0000 + tag);
  std::vector<index_t> lanes;
  for (int i = 0; i < kCheckedLanes; ++i) {
    lanes.push_back(static_cast<index_t>(rng.next() % batch));
  }
  return lanes;
}

std::uint64_t data_seed(std::uint64_t seed, std::uint64_t tag) {
  return Stream(seed, 0xda7a0000 + tag).next();
}

/// Run the set-up `kSetupReps` times and keep the median.
void timed_setup(Ctx& cx, const std::function<void()>& setup) {
  std::vector<double> reps;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::int64_t t0 = now_ns();
    setup();
    reps.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  cx.setup_s += median(reps);
}

/// Record an entry's calls; a wrong checked lane fails every call of the
/// entry (all calls compute the same output).
void finish_entry(Ctx& cx, Entry e, int wrong) {
  if (wrong > 0) {
    cx.ops.failed += e.us.size();
    cx.rep.fail(e.label + ": " + std::to_string(wrong) +
                " checked values differ from iatf::ref");
  } else {
    cx.ops.ok += e.us.size();
  }
  char line[160];
  std::snprintf(line, sizeof line, "%-22s calls=%-6zu p50_us=%-10.1f GFLOPS=%.2f",
                e.label.c_str(), e.us.size(), median(e.us), e.gflops());
  cx.rep.notes.emplace_back(line);
  cx.entries.push_back(std::move(e));
}

template <class T> std::vector<T> random_vec(std::size_t count,
                                             std::uint64_t seed) {
  std::vector<T> v(count);
  Rng rng(seed);
  rng.fill<T>(v);
  return v;
}

// --- GEMM NN ----------------------------------------------------------------

template <class T, int Bytes> void gemm_entry(Ctx& cx, index_t n) {
  using R = real_t<T>;
  const index_t pw = simd::pack_width_bytes_v<T, Bytes>;
  const index_t batch = bench::auto_batch(
      bench::gemm_bytes_per_matrix<T>(n, n, n), pw, bench::Options{});
  const std::uint64_t tag = 100 * dtype_index<T>() + n;
  const std::size_t elems = static_cast<std::size_t>(n * n * batch);
  const auto ha = random_vec<T>(elems, data_seed(cx.args.seed, 2 * tag));
  const auto hb = random_vec<T>(elems, data_seed(cx.args.seed, 2 * tag + 1));
  const GemmShape shape{n, n, n, Op::NoTrans, Op::NoTrans, batch};
  const Op nn = Op::NoTrans;

  CompactBuffer<T> a, b, c;
  std::shared_ptr<const plan::GemmPlan<T, Bytes>> plan;
  timed_setup(cx, [&] {
    const std::int64_t t0 = now_ns();
    a = to_compact<T>(ha.data(), n, n, n, n * n, batch, pw);
    b = to_compact<T>(hb.data(), n, n, n, n * n, batch, pw);
    c = CompactBuffer<T>(n, n, batch, pw);
    const std::int64_t t1 = now_ns();
    cx.eng.clear_plan_cache();
    plan = cx.eng.plan_gemm<T, Bytes>(shape);
    cx.build_us.push_back(static_cast<double>(now_ns() - t1) * 1e-3);
    cx.convert_bytes += 2.0 * sizeof(T) * static_cast<double>(elems);
    cx.convert_s += static_cast<double>(t1 - t0) * 1e-9;
    cx.eng.gemm<T, Bytes>(nn, nn, T(1), a, b, T(0), c); // lazy verify
  });

  const auto call = [&] { cx.eng.gemm<T, Bytes>(nn, nn, T(1), a, b, T(0), c); };
  const double seconds = cx.weight_seconds * entry_weight(n);
  Entry e{std::string("gemm.") + dtype_name<T>() + ".n" + std::to_string(n),
          n, gemm_flops<T>(shape), {}};
  e.us = time_calls(cx.args.trace ? 0.5 * seconds : seconds, call, {},
                    trace_log(cx), "core.gemm", 3, gaps(cx));

  if (cx.args.trace) {
    const auto exec = [&] { plan->execute(a, b, c, T(1), T(0)); };
    const double g =
        e.flops / median(time_calls(0.3 * seconds, exec, {}, trace_log(cx),
                                     "plan.execute")) * 1e-3;
    cx.exec_gflops.push_back(g);
    cx.roofline.push_back(g / cx.peak[dtype_index<T>()]);
    // Operands read (A, B) and C written, per the array sizes.
    cx.ops_per_byte.push_back(e.flops /
                              (3.0 * sizeof(T) * static_cast<double>(elems)));
    if constexpr (std::is_same_v<T, double>) {
      // NN plans walk A and B in place (only gathered operands pack), so
      // the pack layer is timed directly: the transposed gather a TN/NT
      // plan performs, over this descriptor's buffers.
      const index_t es = plan->element_stride();
      AlignedBuffer<R> pa(static_cast<std::size_t>(
          pack::packed_gemm_a_size(n, n, es)));
      AlignedBuffer<R> pb(static_cast<std::size_t>(
          pack::packed_gemm_b_size(n, n, es)));
      const auto pack_all = [&] {
        for (index_t g = 0; g < a.groups(); ++g) {
          pack::pack_gemm_a<T>(a.group_data(g), n, es, Op::Trans,
                               plan->m_tiles(), n, pa.data());
          pack::pack_gemm_b<T>(b.group_data(g), n, es, Op::Trans,
                               plan->n_tiles(), n, pb.data());
        }
      };
      cx.pack_ns.push_back(median(time_calls(0.1 * seconds, pack_all, {},
                                             trace_log(cx), "pack.gemm")) *
                           1e3 / static_cast<double>(batch));
      if (n == 4 || n == 33) {
        // At n=33 a call takes milliseconds and the overhead microseconds:
        // pair many calls.
        const auto [eng_us, exec_us] = paired_medians(
            n == 4 ? 0.2 * seconds : 0.05 * cx.args.seconds, call, exec);
        (n == 4 ? cx.overhead_small : cx.overhead_large) = eng_us - exec_us;
      }
      if (n == 4) {
        // Tracing cost on the most overhead-sensitive call: the same call
        // with and without span recording.
        const auto traced = [&] {
          const std::int64_t t0 = now_ns();
          call();
          cx.rep.trace.record("core.gemm", t0, now_ns());
        };
        const auto [plain_us, traced_us] =
            paired_medians(0.1 * seconds, call, traced);
        cx.trace_overhead = traced_us / plain_us - 1.0;
      }
    }
  }

  int wrong = 0;
  std::vector<T> got(static_cast<std::size_t>(n * n)), want(got.size());
  for (index_t lane : checked_lanes(cx.args.seed, tag, batch)) {
    c.export_colmajor(lane, got.data(), n);
    ref::gemm<T>(nn, nn, n, n, n, T(1), ha.data() + lane * n * n, n,
                 hb.data() + lane * n * n, n, T(0), want.data(), n);
    for (std::size_t i = 0; i < got.size(); ++i) {
      wrong += close(got[i], want[i], n) ? 0 : 1;
    }
  }
  finish_entry(cx, std::move(e), wrong);
}

// --- TRSM LNLN --------------------------------------------------------------

template <class T, int Bytes> void trsm_entry(Ctx& cx, index_t n) {
  using R = real_t<T>;
  const index_t pw = simd::pack_width_bytes_v<T, Bytes>;
  const index_t batch = bench::auto_batch(
      bench::trsm_bytes_per_matrix<T>(n, n), pw, bench::Options{});
  const std::uint64_t tag = 1000 + n;
  Rng rng(data_seed(cx.args.seed, tag));
  const auto ha = bench::random_host_triangular<T>(n, batch, rng);
  const auto hb = bench::random_host_batch<T>(n, n, batch, rng);
  const TrsmShape shape{n, n, Side::Left, Uplo::Lower, Op::NoTrans,
                        Diag::NonUnit, batch};

  CompactBuffer<T> a, b;
  std::vector<R> b0;
  timed_setup(cx, [&] {
    const std::int64_t t0 = now_ns();
    a = bench::to_compact_buffer(ha, pw);
    a.pad_identity();
    b = bench::to_compact_buffer(hb, pw);
    cx.convert_bytes += 2.0 * sizeof(T) * static_cast<double>(n * n * batch);
    cx.convert_s += static_cast<double>(now_ns() - t0) * 1e-9;
    b0.assign(b.data(), b.data() + b.size());
    const std::int64_t t1 = now_ns();
    cx.eng.clear_plan_cache();
    (void)cx.eng.plan_trsm<T, Bytes>(shape);
    cx.build_us.push_back(static_cast<double>(now_ns() - t1) * 1e-3);
  });

  const auto restore = [&] {
    std::memcpy(b.data(), b0.data(), b0.size() * sizeof(R));
  };
  const auto call = [&] {
    cx.eng.trsm<T, Bytes>(Side::Left, Uplo::Lower, Op::NoTrans,
                          Diag::NonUnit, T(1), a, b);
  };
  Entry e{"trsm.lnln.d.n" + std::to_string(n), n, trsm_flops<T>(shape), {}};
  e.us = time_calls(cx.weight_seconds * entry_weight(n) *
                        (cx.args.trace ? 0.5 : 1.0),
                    call, restore, trace_log(cx), "core.trsm", 3, gaps(cx));

  int wrong = 0;
  std::vector<T> got(static_cast<std::size_t>(n * n)), want(got.size());
  for (index_t lane : checked_lanes(cx.args.seed, tag, batch)) {
    b.export_colmajor(lane, got.data(), n);
    std::copy_n(hb.mat(lane), n * n, want.begin());
    ref::trsm<T>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, n, n,
                 T(1), ha.mat(lane), n, want.data(), n);
    for (std::size_t i = 0; i < got.size(); ++i) {
      wrong += close(got[i], want[i], n) ? 0 : 1;
    }
  }
  finish_entry(cx, std::move(e), wrong);
}

// --- potrf on a PackedHandle -------------------------------------------------

template <class T, int Bytes> void potrf_entry(Ctx& cx, index_t n) {
  using R = real_t<T>;
  const index_t pw = simd::pack_width_bytes_v<T, Bytes>;
  const index_t batch = bench::auto_batch(
      static_cast<index_t>(sizeof(T)) * n * n, pw, bench::Options{});
  const std::uint64_t tag = 2000 + n;
  // Symmetric, strictly diagonally dominant: SPD with a unit-ish scale.
  std::vector<T> host = random_vec<T>(static_cast<std::size_t>(n * n * batch),
                                      data_seed(cx.args.seed, tag));
  for (index_t l = 0; l < batch; ++l) {
    T* m = host.data() + l * n * n;
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = j + 1; i < n; ++i) {
        m[j * n + i] *= T(0.5) / T(n);
        m[i * n + j] = m[j * n + i];
      }
      m[j * n + j] += T(1);
    }
  }

  factor::PackedHandle<T> h;
  std::vector<R> a0;
  timed_setup(cx, [&] {
    const std::int64_t t0 = now_ns();
    h = cx.eng.pack<T>(host.data(), n, n, n, n * n, batch, pw);
    cx.convert_bytes += sizeof(T) * static_cast<double>(n * n * batch);
    cx.convert_s += static_cast<double>(now_ns() - t0) * 1e-9;
    a0.assign(h.buffer().data(), h.buffer().data() + h.buffer().size());
    cx.eng.clear_plan_cache();
    cx.eng.potrf_batch<T, Bytes>(h); // builds the factor plan
  });

  const auto restore = [&] {
    std::memcpy(h.buffer().data(), a0.data(), a0.size() * sizeof(R));
    h.bump_epoch();
  };
  const auto call = [&] { cx.eng.potrf_batch<T, Bytes>(h); };
  const double nn = static_cast<double>(n);
  Entry e{"potrf.d.n" + std::to_string(n), n,
          (nn * nn * nn / 3.0 + nn * nn / 2.0 + nn / 6.0) *
              static_cast<double>(batch),
          {}};
  e.us = time_calls(cx.weight_seconds * entry_weight(n), call, restore,
                    trace_log(cx), "factor.potrf", 3, gaps(cx));
  cx.potrf_gflops.push_back(e.gflops());

  int wrong = 0;
  std::vector<T> got(static_cast<std::size_t>(n * n)), want(got.size());
  for (index_t lane : checked_lanes(cx.args.seed, tag, batch)) {
    h.buffer().export_colmajor(lane, got.data(), n);
    std::copy_n(host.data() + lane * n * n, n * n, want.begin());
    ref::potrf<T>(n, want.data(), n);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = j; i < n; ++i) { // the lower triangle is the factor
        wrong += close(got[j * n + i], want[j * n + i], n) ? 0 : 1;
      }
    }
  }
  finish_entry(cx, std::move(e), wrong);
}

// --- ragged gemm_grouped ------------------------------------------------------

template <class T, int Bytes> void grouped_entry(Ctx& cx) {
  const index_t pw = simd::pack_width_bytes_v<T, Bytes>;
  constexpr index_t kLo = 4, kHi = 33;
  constexpr double kBudget = 64.0 * 1024 * 1024; // same cap as auto_batch
  struct Seg {
    index_t n, batch;
    std::vector<T> ha, hb;
    CompactBuffer<T> a, b, c;
  };
  std::vector<Seg> segs;
  for (index_t n = kLo; n <= kHi; ++n) {
    const double per = kBudget / (kHi - kLo + 1) /
                       bench::gemm_bytes_per_matrix<T>(n, n, n);
    index_t batch = std::clamp<index_t>(static_cast<index_t>(per), pw, 16384);
    batch = (batch + pw - 1) / pw * pw;
    const std::size_t elems = static_cast<std::size_t>(n * n * batch);
    segs.push_back({n, batch,
                    random_vec<T>(elems, data_seed(cx.args.seed, 3000 + 2 * n)),
                    random_vec<T>(elems,
                                  data_seed(cx.args.seed, 3001 + 2 * n)),
                    {}, {}, {}});
  }
  std::vector<sched::GemmSegment<T>> spans;
  double flops = 0.0;
  timed_setup(cx, [&] {
    const std::int64_t t0 = now_ns();
    for (Seg& s : segs) {
      s.a = to_compact<T>(s.ha.data(), s.n, s.n, s.n, s.n * s.n, s.batch, pw);
      s.b = to_compact<T>(s.hb.data(), s.n, s.n, s.n, s.n * s.n, s.batch, pw);
      s.c = CompactBuffer<T>(s.n, s.n, s.batch, pw);
      cx.convert_bytes += 2.0 * sizeof(T) * static_cast<double>(s.ha.size());
    }
    cx.convert_s += static_cast<double>(now_ns() - t0) * 1e-9;
    spans.clear();
    flops = 0.0;
    for (Seg& s : segs) {
      spans.push_back({Op::NoTrans, Op::NoTrans, T(1), T(0), &s.a, &s.b,
                       &s.c});
      flops += gemm_flops<T>({s.n, s.n, s.n, Op::NoTrans, Op::NoTrans,
                              s.batch});
    }
    cx.eng.clear_plan_cache();
    (void)cx.eng.gemm_grouped<T, Bytes>(spans); // builds every plan
  });

  const auto grouped = [&] { (void)cx.eng.gemm_grouped<T, Bytes>(spans); };
  const double seconds = cx.weight_seconds * entry_weight(kHi);
  Entry e{"gemm_grouped.d.n4-33", kHi, flops, {}};
  e.us = time_calls(cx.args.trace ? 0.5 * seconds : seconds, grouped, {},
                    trace_log(cx), "sched.gemm_grouped", 3, gaps(cx));
  if (cx.args.trace) {
    const auto loop = [&] {
      for (Seg& s : segs) {
        cx.eng.gemm<T, Bytes>(Op::NoTrans, Op::NoTrans, T(1), s.a, s.b, T(0),
                              s.c);
      }
    };
    cx.grouped_over_loop =
        median(time_calls(0.5 * seconds, loop, {}, trace_log(cx),
                          "core.gemm_loop")) / median(e.us);
  }

  int wrong = 0;
  std::vector<T> got, want;
  for (Seg& s : segs) {
    got.resize(static_cast<std::size_t>(s.n * s.n));
    want.resize(got.size());
    for (index_t lane : checked_lanes(cx.args.seed, 3000 + s.n, s.batch)) {
      s.c.export_colmajor(lane, got.data(), s.n);
      ref::gemm<T>(Op::NoTrans, Op::NoTrans, s.n, s.n, s.n, T(1),
                   s.ha.data() + lane * s.n * s.n, s.n,
                   s.hb.data() + lane * s.n * s.n, s.n, T(0), want.data(),
                   s.n);
      for (std::size_t i = 0; i < got.size(); ++i) {
        wrong += close(got[i], want[i], s.n) ? 0 : 1;
      }
    }
  }
  finish_entry(cx, std::move(e), wrong);
}

/// Call `f.template operator()<T, Bytes>()` at the chosen width for T.
template <class T, class F> void at_width(F&& f) {
  dispatch_width<T>(simd::active_pack_width<T>(), [&](auto bytes) {
    f.template operator()<T, decltype(bytes)::value>();
  });
}

} // namespace

void run_batch_compute(const Args& args, Report& rep) {
  const index_t sizes[] = {4, 8, 16, 24, 33};

  // Engine construction is part of set-up; build it kSetupReps times.
  std::vector<double> eng_s;
  std::unique_ptr<Engine> eng;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::int64_t t0 = now_ns();
    eng = std::make_unique<Engine>();
    eng_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  Ctx cx(args, rep, *eng);
  double total_weight = 0.0;
  for (index_t n : sizes) {
    total_weight += 4.0 * entry_weight(n);
  }
  total_weight += 2.0 * (entry_weight(8) + entry_weight(24)) +
                  entry_weight(33);
  cx.weight_seconds = 0.6 * args.seconds / total_weight;

  if (args.trace) {
    bench::Options opt;
    opt.min_time = 0.05;
    at_width<float>([&]<class T, int B>() { cx.peak[0] = bench::kernel_peak_gflops<T, B>(opt); });
    at_width<double>([&]<class T, int B>() { cx.peak[1] = bench::kernel_peak_gflops<T, B>(opt); });
    at_width<cf>([&]<class T, int B>() { cx.peak[2] = bench::kernel_peak_gflops<T, B>(opt); });
    at_width<cd>([&]<class T, int B>() { cx.peak[3] = bench::kernel_peak_gflops<T, B>(opt); });
  }

  for (index_t n : sizes) {
    at_width<float>([&]<class T, int B>() { gemm_entry<T, B>(cx, n); });
    at_width<double>([&]<class T, int B>() { gemm_entry<T, B>(cx, n); });
    at_width<cf>([&]<class T, int B>() { gemm_entry<T, B>(cx, n); });
    at_width<cd>([&]<class T, int B>() { gemm_entry<T, B>(cx, n); });
  }
  for (index_t n : {8, 24}) {
    at_width<double>([&]<class T, int B>() { trsm_entry<T, B>(cx, n); });
    at_width<double>([&]<class T, int B>() { potrf_entry<T, B>(cx, n); });
  }
  at_width<double>([&]<class T, int B>() { grouped_entry<T, B>(cx); });

  rep.ops += cx.ops;
  const EngineStats st = eng->stats();
  if (!args.trace) {
    std::vector<double> gflops, small, all;
    double calls = 0.0, busy_s = 0.0;
    for (const Entry& e : cx.entries) {
      gflops.push_back(e.gflops());
      all.insert(all.end(), e.us.begin(), e.us.end());
      if (e.n == 4) {
        small.insert(small.end(), e.us.begin(), e.us.end());
      }
      calls += static_cast<double>(e.us.size());
      for (double us : e.us) {
        busy_s += us * 1e-6;
      }
    }
    rep.add("setup_s", median(eng_s) + cx.setup_s, "s");
    rep.add("gflops_geomean", geomean(gflops), "GFLOPS",
            std::to_string(gflops.size()) + " descriptors");
    rep.add("max_rps", calls / busy_s, "req/s",
            "closed loop, 1 caller: its own maximum");
    rep.add("rps", calls / busy_s, "req/s", "engine calls per second");
    // The median round trip of the overhead-sensitive end of the grid (the
    // n=4 calls of all four dtypes), and the tail of the whole grid, which
    // the slowest descriptors set. A pooled median over all calls would
    // jump between descriptors as their call counts shift; the n=4 pool's
    // own p99 is set by host pauses of a few hundred microseconds.
    rep.add("rtt_p50_us", percentile(small, 0.50), "us", "n=4 calls");
    rep.add("rtt_p99_us", percentile(all, 0.99), "us", "all calls");
  } else {
    std::vector<double> gflops;
    for (const Entry& e : cx.entries) {
      gflops.push_back(e.gflops());
    }
    rep.add("kernels.peak_gflops", cx.peak[1], "GFLOPS",
            "d main kernel, L1-resident, chosen width");
    rep.add("kernels.roofline_frac", geomean(cx.roofline), "frac");
    rep.add("kernels.ops_per_byte", geomean(cx.ops_per_byte),
            "flop/B-computed");
    rep.add("plan.execute_gflops_geomean", geomean(cx.exec_gflops),
            "GFLOPS");
    rep.add("pack.ns_per_matrix", geomean(cx.pack_ns), "ns",
            "A+B transposed gather, d grid; NN plans do not pack");
    rep.add("core.overhead_us.small", cx.overhead_small, "us");
    rep.add("core.overhead_us.large", cx.overhead_large, "us");
    rep.add("plan.build_us", median(cx.build_us), "us");
    {
      const GemmShape shape{8, 8, 8, Op::NoTrans, Op::NoTrans, 16384};
      at_width<double>([&]<class T, int B>() {
        (void)eng->plan_gemm<T, B>(shape);
        constexpr int kLookups = 20000;
        std::vector<double> ns;
        for (int rep_i = 0; rep_i < 5; ++rep_i) {
          const std::int64_t t0 = now_ns();
          for (int i = 0; i < kLookups; ++i) {
            (void)eng->plan_gemm<T, B>(shape);
          }
          ns.push_back(static_cast<double>(now_ns() - t0) / kLookups);
        }
        rep.add("plan.lookup_ns", median(ns), "ns");
      });
    }
    rep.add("sched.grouped_over_loop", cx.grouped_over_loop, "x",
            "loop time / grouped time");
    rep.add("factor.potrf_gflops", geomean(cx.potrf_gflops), "GFLOPS");
    rep.add("factor.reuse_ratio",
            static_cast<double>(st.packed_reuse_hits) /
                static_cast<double>(st.packed_reuse_hits +
                                    st.packed_repacks),
            "frac");
    rep.add("layout.convert_gbps", cx.convert_bytes / cx.convert_s * 1e-9,
            "GB/s");
    engine_counters(rep, st);
    rep.add("gen.lag_p99_us", percentile(cx.gap_us, 0.99), "us",
            "closed loop: call end -> next call start");
    {
      // The serve and wire layers seen by an idle caller of this engine.
      serve::Server probe(*eng);
      const Ladder ladder = idle_ladder(rep, *eng, probe, 0.03 * args.seconds);
      add_ladder(rep, ladder);
      add_idle_serve(rep, ladder, probe.stats());
    }
    wire_probe(args, rep, 0.03 * args.seconds);
    rep.add("trace.overhead_frac", cx.trace_overhead, "frac",
            "gemm d n=4 call, spans on vs off");
  }
}

} // namespace pb
