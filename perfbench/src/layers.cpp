#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

#include <unistd.h>

#include "common/series.hpp"
#include "iatf/pack/gemm_pack.hpp"
#include "iatf/simd/isa.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "wire.hpp"

namespace pb {

using namespace iatf;

namespace {

constexpr int kBytes = 16; ///< default pack width, as serving buffers use

struct DescTotals {
  double peak[2] = {}; ///< kernel roofline, s and d
  std::vector<double> exec_gflops, roofline, ops_per_byte, build_us, pack_ns;
  double convert_bytes = 0.0, convert_s = 0.0;
};

template <class T>
void measure_desc(Engine& eng, const GemmDesc& d, double slice,
                  DescTotals& tot, Report& rep) {
  const index_t n = d.n;
  const std::size_t elems = static_cast<std::size_t>(n * n * d.batch);
  std::vector<T> ha(elems), hb(elems);
  Rng rng(0x9a7e + n);
  rng.fill<T>(ha);
  rng.fill<T>(hb);
  const std::int64_t t0 = now_ns();
  const CompactBuffer<T> a = to_compact<T>(ha.data(), n, n, n, n * n, d.batch);
  const CompactBuffer<T> b = to_compact<T>(hb.data(), n, n, n, n * n, d.batch);
  tot.convert_s += static_cast<double>(now_ns() - t0) * 1e-9;
  tot.convert_bytes += 2.0 * sizeof(T) * static_cast<double>(elems);
  CompactBuffer<T> c(n, n, d.batch);
  const GemmShape shape{n, n, n, Op::NoTrans, Op::NoTrans, d.batch};
  eng.clear_plan_cache();
  const std::int64_t t1 = now_ns();
  const auto plan = eng.plan_gemm<T, kBytes>(shape);
  tot.build_us.push_back(static_cast<double>(now_ns() - t1) * 1e-3);
  const double g =
      gemm_flops<T>(shape) * 1e-3 /
      median(time_calls(slice, [&] { plan->execute(a, b, c, T(1), T(0)); },
                        {}, &rep.trace, "plan.execute"));
  tot.exec_gflops.push_back(g);
  tot.roofline.push_back(g / tot.peak[std::is_same_v<T, double>]);
  tot.ops_per_byte.push_back(gemm_flops<T>(shape) /
                             (3.0 * sizeof(T) * static_cast<double>(elems)));
  if constexpr (std::is_same_v<T, double>) {
    // NN plans walk operands in place; time the transposed gather a
    // TN/NT plan performs over these buffers.
    const index_t es = plan->element_stride();
    AlignedBuffer<double> pa(static_cast<std::size_t>(
        pack::packed_gemm_a_size(n, n, es)));
    AlignedBuffer<double> pb(static_cast<std::size_t>(
        pack::packed_gemm_b_size(n, n, es)));
    const auto gather = [&] {
      for (index_t grp = 0; grp < a.groups(); ++grp) {
        pack::pack_gemm_a<T>(a.group_data(grp), n, es, Op::Trans,
                             plan->m_tiles(), n, pa.data());
        pack::pack_gemm_b<T>(b.group_data(grp), n, es, Op::Trans,
                             plan->n_tiles(), n, pb.data());
      }
    };
    tot.pack_ns.push_back(
        median(time_calls(slice, gather, {}, &rep.trace, "pack.gemm")) *
        1e3 / static_cast<double>(d.batch));
  }
}

/// Engine call minus plan execute on the same buffers (d, one desc).
double core_overhead_us(Engine& eng, const GemmDesc& d, double slice) {
  const index_t n = d.n;
  CompactBuffer<double> a(n, n, d.batch), b(n, n, d.batch), c(n, n, d.batch);
  const GemmShape shape{n, n, n, Op::NoTrans, Op::NoTrans, d.batch};
  const auto plan = eng.plan_gemm<double, kBytes>(shape);
  const auto [call_us, exec_us] = paired_medians(
      slice,
      [&] {
        eng.gemm<double, kBytes>(Op::NoTrans, Op::NoTrans, 1.0, a, b, 0.0, c);
      },
      [&] { plan->execute(a, b, c, 1.0, 0.0); });
  return call_us - exec_us;
}

} // namespace

void descriptor_layers(Report& rep, const std::vector<GemmDesc>& descs,
                       double seconds, bool convert) {
  Engine eng;
  const double slice = seconds / static_cast<double>(2 * descs.size() + 8);
  DescTotals tot;
  bench::Options opt;
  opt.min_time = slice;
  tot.peak[0] = bench::kernel_peak_gflops<float, kBytes>(opt);
  tot.peak[1] = bench::kernel_peak_gflops<double, kBytes>(opt);
  std::vector<GemmDesc> dd;
  for (const GemmDesc& d : descs) {
    if (d.dtype == 'd') {
      measure_desc<double>(eng, d, slice, tot, rep);
      dd.push_back(d);
    } else {
      measure_desc<float>(eng, d, slice, tot, rep);
    }
  }
  const auto by_n = [](const GemmDesc& x, const GemmDesc& y) {
    return x.n * x.batch < y.n * y.batch;
  };
  const GemmDesc small = *std::min_element(dd.begin(), dd.end(), by_n);
  const GemmDesc large = *std::max_element(dd.begin(), dd.end(), by_n);

  rep.add("kernels.peak_gflops", tot.peak[1], "GFLOPS",
          "d main kernel, L1-resident, 128-bit");
  rep.add("kernels.roofline_frac", geomean(tot.roofline), "frac");
  rep.add("kernels.ops_per_byte", geomean(tot.ops_per_byte),
          "flop/B-computed");
  rep.add("plan.execute_gflops_geomean", geomean(tot.exec_gflops), "GFLOPS");
  rep.add("pack.ns_per_matrix", geomean(tot.pack_ns), "ns",
          "A+B transposed gather, d descriptors; NN plans do not pack");
  rep.add("core.overhead_us.small", core_overhead_us(eng, small, slice), "us",
          "d n=" + std::to_string(small.n));
  rep.add("core.overhead_us.large", core_overhead_us(eng, large, slice), "us",
          "d n=" + std::to_string(large.n));
  rep.add("plan.build_us", median(tot.build_us), "us");
  {
    const GemmShape shape{small.n, small.n, small.n, Op::NoTrans, Op::NoTrans,
                          small.batch};
    (void)eng.plan_gemm<double, kBytes>(shape);
    constexpr int kLookups = 20000;
    const double us = median(time_calls(slice, [&] {
      for (int i = 0; i < kLookups; ++i) {
        (void)eng.plan_gemm<double, kBytes>(shape);
      }
    }));
    rep.add("plan.lookup_ns", us * 1e3 / kLookups, "ns");
  }
  {
    // One segment per d descriptor: the grouped call against a loop of
    // per-segment engine calls.
    std::vector<CompactBuffer<double>> bufs;
    bufs.reserve(3 * dd.size());
    std::vector<sched::GemmSegment<double>> segs;
    for (const GemmDesc& d : dd) {
      bufs.emplace_back(d.n, d.n, d.batch);
      bufs.emplace_back(d.n, d.n, d.batch);
      bufs.emplace_back(d.n, d.n, d.batch);
      auto* p = &bufs[bufs.size() - 3];
      segs.push_back({Op::NoTrans, Op::NoTrans, 1.0, 0.0, p, p + 1, p + 2});
    }
    const auto [loop_us, grouped_us] = paired_medians(
        2 * slice,
        [&] {
          for (const auto& sg : segs) {
            eng.gemm<double, kBytes>(Op::NoTrans, Op::NoTrans, 1.0, *sg.a,
                                     *sg.b, 0.0, *sg.c);
          }
        },
        [&] { (void)eng.gemm_grouped<double, kBytes>(segs); });
    rep.add("sched.grouped_over_loop", loop_us / grouped_us, "x",
            "loop time / grouped time, one segment per d descriptor");
  }
  {
    // potrf on a PackedHandle at the workload's batch: pack once, factor
    // repeatedly (restoring the input untimed).
    const index_t n = 8, batch = small.batch;
    std::vector<double> host(static_cast<std::size_t>(n * n * batch));
    Rng rng(0xf00d);
    rng.fill<double>(host);
    for (index_t l = 0; l < batch; ++l) {
      double* m = host.data() + l * n * n;
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = j + 1; i < n; ++i) {
          m[j * n + i] *= 0.5 / static_cast<double>(n);
          m[i * n + j] = m[j * n + i];
        }
        m[j * n + j] += 1.0;
      }
    }
    const EngineStats before = eng.stats();
    auto h = eng.pack<double>(host.data(), n, n, n, n * n, batch);
    const std::vector<double> a0(h.buffer().data(),
                                 h.buffer().data() + h.buffer().size());
    const auto restore = [&] {
      std::memcpy(h.buffer().data(), a0.data(), a0.size() * sizeof(double));
      h.bump_epoch();
    };
    const double nn = static_cast<double>(n);
    const double flops =
        (nn * nn * nn / 3.0 + nn * nn / 2.0 + nn / 6.0) * batch;
    const double us = median(time_calls(
        slice, [&] { eng.potrf_batch<double, kBytes>(h); }, restore,
        &rep.trace, "factor.potrf"));
    const EngineStats after = eng.stats();
    const double hits =
        static_cast<double>(after.packed_reuse_hits - before.packed_reuse_hits);
    const double repacks =
        static_cast<double>(after.packed_repacks - before.packed_repacks);
    rep.add("factor.potrf_gflops", flops / us * 1e-3, "GFLOPS",
            "d n=8 at batch " + std::to_string(batch));
    rep.add("factor.reuse_ratio", hits / (hits + repacks), "frac");
  }
  if (convert) {
    rep.add("layout.convert_gbps", tot.convert_bytes / tot.convert_s * 1e-9,
            "GB/s", "to_compact at the workload's shapes");
  }
}

void engine_counters(Report& rep, const EngineStats& st) {
  rep.add("plan.hit_ratio",
          static_cast<double>(st.hits) /
              static_cast<double>(std::max<std::size_t>(1, st.hits + st.misses)),
          "frac");
  const std::size_t calls =
      st.width16_calls + st.width32_calls + st.width64_calls;
  const int widest = simd::isa_bytes(simd::detect_isa());
  const std::size_t wide = widest == 64   ? st.width64_calls
                           : widest == 32 ? st.width32_calls
                                          : st.width16_calls;
  rep.add("core.wide_share",
          calls > 0 ? static_cast<double>(wide) / static_cast<double>(calls)
                    : 0.0,
          "frac", "calls on the host's widest backend");
  // Histogram buckets hold calls with <=1, <=2, <=4, <=8, >8 plans.
  const double upper[EngineStats::kGroupedPlanBuckets] = {1, 2, 4, 8, 16};
  double grouped = 0.0, plans = 0.0;
  for (std::size_t i = 0; i < EngineStats::kGroupedPlanBuckets; ++i) {
    grouped += static_cast<double>(st.distinct_plans_per_call[i]);
    plans += upper[i] * static_cast<double>(st.distinct_plans_per_call[i]);
  }
  rep.add("core.plans_per_grouped_call", grouped > 0 ? plans / grouped : 0.0,
          "plans", "mean of bucket upper bounds");
}

Ladder idle_ladder(Report& rep, Engine& eng, serve::Server& srv,
                   double seconds) {
  const index_t n = 8, batch = 2 * simd::pack_width_v<double>;
  std::vector<double> ha(static_cast<std::size_t>(n * n * batch)),
      hb(ha.size());
  Rng rng(0x1add);
  rng.fill<double>(ha);
  rng.fill<double>(hb);
  const auto a = to_compact<double>(ha.data(), n, n, n, n * n, batch);
  const auto b = to_compact<double>(hb.data(), n, n, n, n * n, batch);
  CompactBuffer<double> c(n, n, batch);
  const GemmShape shape{n, n, n, Op::NoTrans, Op::NoTrans, batch};
  const auto plan = eng.plan_gemm<double, kBytes>(shape);
  const double slice = seconds / 4.0;
  const auto med = [&](const char* layer, const std::function<void()>& f) {
    return median(time_calls(slice, f, {}, &rep.trace, layer, 100));
  };
  Ladder l;
  l.execute_us = med("plan.execute",
                     [&] { plan->execute(a, b, c, 1.0, 0.0); });
  l.call_us = med("core.gemm", [&] {
    eng.gemm<double, kBytes>(Op::NoTrans, Op::NoTrans, 1.0, a, b, 0.0, c);
  });
  // One segment: what an idle server dispatches for a lone request.
  const std::vector<sched::GemmSegment<double>> segs = {
      {Op::NoTrans, Op::NoTrans, 1.0, 0.0, &a, &b, &c}};
  l.grouped_us = med("sched.gemm_grouped",
                     [&] { (void)eng.gemm_grouped<double, kBytes>(segs); });
  std::vector<double> submit_ns;
  l.serve_rtt_us = med("serve.rtt", [&] {
    const std::int64_t t0 = now_ns();
    auto fut = srv.submit_gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a, b,
                                       0.0, c);
    submit_ns.push_back(static_cast<double>(now_ns() - t0));
    fut.get();
  });
  l.serve_submit_ns = median(submit_ns);
  return l;
}

void add_ladder(Report& rep, const Ladder& l) {
  rep.add("plan.execute_us", l.execute_us, "us", "idle, hot descriptor");
  rep.add("core.call_us", l.call_us, "us", "idle, hot descriptor");
  rep.add("sched.grouped_us_per_req", l.grouped_us, "us",
          "k=1 segment, as an idle server dispatches");
  rep.add("serve.idle_rtt_us", l.serve_rtt_us, "us", "submit -> future");
}

void add_idle_serve(Report& rep, const Ladder& l,
                    const serve::ServerStats& st) {
  const double done = static_cast<double>(std::max<std::uint64_t>(1, st.completed));
  rep.add("serve.submit_ns", l.serve_submit_ns, "ns", "idle probe server");
  rep.add("serve.coalesce_ratio",
          done / static_cast<double>(std::max<std::uint64_t>(1, st.dispatch_calls)),
          "req/dispatch", "idle probe server");
  rep.add("serve.solo_share",
          (done - static_cast<double>(st.coalesced_requests)) / done, "frac",
          "idle probe server");
  rep.add("serve.backlog_max", static_cast<double>(st.queued), "requests",
          "idle probe server");
  rep.add("serve.shed",
          static_cast<double>(st.shed_expired + st.shed_overflow), "count",
          "idle probe server");
}

void wire_probe(const Args& args, Report& rep, double seconds) {
  const Frames frames(args.seed);
  const std::string sock =
      args.workdir + "/probe-" + std::to_string(::getpid()) + ".sock";
  Daemon daemon(args.served, sock, args.workdir + "/served.log");
  std::vector<net::Client> clients(1);
  daemon.connect(clients[0]);
  std::vector<WireStream> streams;
  streams.emplace_back(args.seed, 7, kWireVariants);
  const LoopResult idle =
      run_loop(rep, clients, streams, frames, 1, 1, seconds, true, true);
  rep.ops += idle.ops;
  clients[0].goodbye();
  clients[0].close();
  if (const int code = daemon.terminate(); code != 0) {
    rep.fail("iatf_served exited " + std::to_string(code) + " after SIGTERM");
  }
  rep.add("net.idle_rtt_us", median(idle.rtt_us), "us",
          "window 1, one connection, small d frames");
  rep.add("net.submit_ns", median(idle.submit_ns), "ns",
          "Client::submit_gemm, idle");
  rep.add("net.codec_ns", codec_ns(frames, 0.05), "ns",
          "small d frame, isolated");
  rep.add("net.bytes_per_req", static_cast<double>(frames.cls[1].frame_bytes()),
          "B-computed", "small d frame");
}

} // namespace pb
