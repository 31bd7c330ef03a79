// wire-rpc: closed loop against a spawned `iatf_served --unix` daemon.
// Two generator threads each drive one connection with a fixed window of
// outstanding SubmitGemm frames (s/d 8x8x8): ~95% small frames (batch 2x
// the default pack width) and ~5% byte-heavy frames whose operand payload
// is >= 0.5 MB, so per-frame and per-byte costs separate. Every Result
// frame is checked against iatf::ref. The run ends with SIGTERM, after
// which the daemon must exit 0.
#include <chrono>
#include <memory>

#include <unistd.h>

#include "common.hpp"
#include "layers.hpp"
#include "wire.hpp"

namespace pb {

using namespace iatf;

namespace {

constexpr int kConns = 2;
constexpr int kWindow = 4; ///< outstanding frames per connection
/// Time windows of the main loop; percentiles are reported as the median
/// over windows, so a host pause spoils one window at most.
constexpr int kWindows = 16;
constexpr const char* kWindowNote = "median of 16 windows";

} // namespace

void run_wire_rpc(const Args& args, Report& rep) {
  const Frames frames(args.seed);
  const std::string sock = args.workdir + "/served-" +
                           std::to_string(::getpid()) + ".sock";
  const std::string log = args.workdir + "/served.log";
  const double s = args.seconds;

  // Set-up: daemon spawn -> every connection handshaken -> one frame of
  // each class answered (the daemon's plans built), kSetupReps times; the
  // last daemon serves the run. Milliseconds, the scale of a host pause,
  // hence the median of several.
  constexpr int kSetupReps = 7;
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::vector<net::Client> clients(kConns);
  Ops ops;
  for (int r = 0; r < kSetupReps; ++r) {
    if (daemon) {
      for (net::Client& c : clients) {
        c.close();
      }
      if (const int code = daemon->terminate(); code != 0) {
        rep.fail("iatf_served exited " + std::to_string(code) +
                 " after SIGTERM (set-up round)");
      }
      daemon.reset(); // before the next one binds the same socket path
    }
    const std::int64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(args.served, sock, log);
    for (net::Client& c : clients) {
      daemon->connect(c);
    }
    for (int cls = 0; cls < 4; ++cls) {
      const WireReq req{(cls & 1) != 0, cls >= 2, 0, 0};
      const std::uint64_t id = clients[0].submit_gemm(frames.submit(req));
      net::Client::Reply reply;
      if (!clients[0].reply_for(id, reply, std::chrono::seconds(10)) ||
          reply.type != net::FrameType::Result || reply.status != 0 ||
          !frames.matches(req, reply.c)) {
        ++ops.failed;
        rep.fail("wire-rpc: warm-up frame failed");
      } else {
        ++ops.ok;
      }
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  std::vector<WireStream> streams;
  for (int i = 0; i < kConns; ++i) {
    streams.emplace_back(args.seed, i, kWireVariants);
  }
  if (!args.trace) {
    const LoopResult main = run_loop(rep, clients, streams, frames, kConns,
                                     kWindow, 0.8 * s, false, false,
                                     kWindows);
    ops += main.ops;
    std::vector<double> gflops;
    for (int c = 0; c < 4; ++c) {
      gflops.push_back(frames.cls[c].flops() / median(main.cls_rtt_us[c]) *
                       1e-3);
    }
    rep.add("setup_s", median(setup_s), "s");
    rep.add("gflops_geomean", geomean(gflops), "GFLOPS",
            "per class flops / p50 round trip");
    const double rps = median(main.win_rps);
    rep.add("max_rps", rps, "req/s", "closed loop: its own maximum");
    rep.add("rps", rps, "req/s", "median of 100 ms windows");
    rep.add("rtt_p50_us", main.windowed(0.50), "us", kWindowNote);
    rep.add("rtt_p99_us", main.windowed(0.99), "us", kWindowNote);
  } else {
    rep.add("net.codec_ns", codec_ns(frames, 0.05 * s), "ns",
            "small d frame, isolated");
    rep.add("layout.convert_gbps", wire_convert_gbps(frames, 0.05 * s),
            "GB/s", "import/export at the small d frame shape");
    rep.add("net.bytes_per_req", frames.bytes_per_req(), "B-computed",
            "mix-weighted frames");
    const LoopResult idle = run_loop(rep, clients, streams, frames, 1, 1,
                                     0.1 * s, true, true);
    const LoopResult plain = run_loop(rep, clients, streams, frames, kConns,
                                      kWindow, 0.25 * s, false);
    const LoopResult traced = run_loop(rep, clients, streams, frames, kConns,
                                       kWindow, 0.25 * s, true);
    ops += idle.ops;
    ops += plain.ops;
    ops += traced.ops;
    rep.add("net.submit_ns", median(traced.submit_ns), "ns",
            "Client::submit_gemm, encode + send");
    rep.add("net.idle_rtt_us", median(idle.rtt_us), "us",
            "window 1, one connection, small d frames");
    rep.add("trace.overhead_frac", plain.rps / traced.rps - 1.0, "frac",
            "rps untraced vs traced");
    rep.add("gen.lag_p99_us", percentile(traced.gap_us, 0.99), "us",
            "closed loop: reply -> next submit");

    // Layers below the wire, measured in-process on this workload's
    // frame descriptors and the hot descriptor.
    std::vector<GemmDesc> descs;
    for (const FrameClass& fc : frames.cls) {
      descs.push_back({fc.dtype, kWireN, fc.batch});
    }
    descriptor_layers(rep, descs, 0.1 * s, false);
    Engine eng;
    serve::Server probe(eng);
    const Ladder ladder = idle_ladder(rep, eng, probe, 0.05 * s);
    add_ladder(rep, ladder);
    add_idle_serve(rep, ladder, probe.stats());
    engine_counters(rep, eng.stats());
  }

  for (net::Client& c : clients) {
    try {
      c.goodbye();
    } catch (const std::exception&) {
    }
    c.close();
  }
  if (const int code = daemon->terminate(); code != 0) {
    rep.fail("iatf_served exited " + std::to_string(code) +
             " after SIGTERM");
  }
  rep.ops += ops;
}

} // namespace pb
