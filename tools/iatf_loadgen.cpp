// iatf_loadgen -- closed-loop load generator for iatf::serve::Server.
//
// N tenant threads each drive a ring of in-flight GEMM submissions
// against one Server (a slot is reused only after its previous future
// resolved, so per-tenant concurrency is bounded by --ring). Latency is
// captured in the completion callback, from submit to resolution, and
// reported as p50/p95/p99; fairness compares each tenant's served share
// against its configured weight share.
//
// Modes:
//   default    print the latency/throughput/fairness/coalescing report
//   --compare  also push the same total work through a single caller
//              looping over engine.gemm_grouped and report the
//              server-vs-single-caller throughput ratio (the coalescing
//              acceptance gate wants >= 0.95)
//   --smoke    small CI-friendly run; exit non-zero if any request went
//              unresolved, anything was shed on deadline at idle load,
//              or a fairness share drifted more than 10 points
//   --dispatchers=N  server dispatcher threads (default: one per
//              spare CPU); CI runs the smoke at 1 and at the default
//   --mix=SPEC multi-shape tenant mixes: SPEC is `;`-separated descriptor
//              sets, each a comma list of MxNxK shapes, e.g.
//              --mix=4x4x4,8x8x8;16x16x16 gives tenant 0 the two small
//              shapes and tenant 1 the large one (tenants beyond the
//              list cycle through the sets). Each tenant draws from its
//              own set round-robin, so the server sees the ragged
//              heterogeneous traffic the size-class scheduler is for.
//              Without --mix every tenant uses the single --m/--n/--k
//              descriptor, exactly as before.
//
// --json=FILE mirrors the report rows in the same "iatf-bench-v1"
// schema the bench harness and iatf_tune emit.
// Crash-recovery harness (used by the CI crash-recovery job, both with
// $IATF_HEALTH_LEDGER pointing at a shared path):
//   --kill-after=N          serve N requests per tenant, then force one
//                           kernel quarantine (journaled to the ledger
//                           as it happens) and die by SIGKILL -- no
//                           destructors, no save, exactly like a crash
//   --expect-quarantined=N  assert at startup that the ledger replay
//                           restored >= N quarantined kernels into the
//                           fresh engine, then serve normally: the
//                           restarted process must both remember the
//                           lesson and still do useful work
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "iatf/common/cache_info.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/common/rng.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/net/client.hpp"
#include "iatf/net/trace.hpp"
#include "iatf/net/wire.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "iatf/sched/group_scheduler.hpp"
#include "iatf/serve/server.hpp"
#include "iatf/simd/vec.hpp"
#include "iatf/tune/bench_json.hpp"
#include "iatf/version.hpp"

namespace {

using namespace iatf;
using Clock = std::chrono::steady_clock;

/// One GEMM descriptor in a tenant's mix set.
struct MixShape {
  index_t m = 0, n = 0, k = 0;
};

struct Options {
  int tenants = 4;
  std::vector<std::uint32_t> weights; // empty = all 1
  int requests = 2000;                // per tenant
  index_t m = 8, n = 8, k = 8;
  index_t batch = 0; // 0 = 2 * pack width
  std::size_t queue = 256;
  std::size_t coalesce = 64;
  std::size_t dispatchers = 0; // 0 = one per spare CPU
  double deadline_ms = 0.0;
  int ring = 8;
  bool smoke = false;
  bool compare = false;
  int kill_after = 0;        // > 0: quarantine + SIGKILL after N reqs
  int expect_quarantined = -1; // >= 0: require N replayed quarantines
  std::string json;
  std::string record;  // write an iatf-trace of every submission
  std::string replay;  // open-loop replay of a recorded trace
  std::string connect; // replay target: "unix:PATH" or "tcp:HOST:PORT"
                       // (empty = in-process server)
  // --mix: one descriptor set per entry; tenant t draws from set
  // t % mix.size(). Empty = single-shape mode (--m/--n/--k).
  std::vector<std::vector<MixShape>> mix;
};

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: iatf_loadgen [--tenants=N] [--weights=w0,w1,...] "
      "[--requests=N] [--m=N --n=N --k=N --batch=N] "
      "[--mix=MxNxK,...;MxNxK,...] [--queue=N] [--coalesce=N] "
      "[--dispatchers=N] "
      "[--deadline-ms=X] [--ring=N] [--smoke] [--compare] "
      "[--kill-after=N] [--expect-quarantined=N] [--json=FILE]\n"
      "       iatf_loadgen --record=FILE [load options]\n"
      "       iatf_loadgen --replay=FILE [--connect=unix:PATH|"
      "tcp:HOST:PORT] [--smoke] [--json=FILE]\n"
      "\n"
      "--record captures every submission of a normal closed-loop run\n"
      "as a timestamped iatf-trace (descriptors only, no data).\n"
      "--replay re-drives a trace open-loop, reproducing the recorded\n"
      "arrival times, against an in-process server or -- with\n"
      "--connect -- an iatf_served daemon over its socket.\n");
}

[[noreturn]] void usage() {
  print_usage(stderr);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (std::strcmp(arg, "--help") == 0) {
      print_usage(stdout);
      std::exit(0);
    } else if (std::strcmp(arg, "--version") == 0) {
      std::printf("iatf_loadgen %s (iatf-wire %u, iatf-trace %d)\n",
                  IATF_VERSION_STRING, net::kWireVersion,
                  net::kTraceVersion);
      std::exit(0);
    } else if (const char* v = value("--tenants=")) {
      opt.tenants = std::atoi(v);
    } else if (const char* v = value("--weights=")) {
      opt.weights.clear();
      for (const char* p = v; *p;) {
        opt.weights.push_back(
            static_cast<std::uint32_t>(std::strtoul(p, nullptr, 10)));
        p = std::strchr(p, ',');
        if (!p) {
          break;
        }
        ++p;
      }
    } else if (const char* v = value("--requests=")) {
      opt.requests = std::atoi(v);
    } else if (const char* v = value("--m=")) {
      opt.m = std::atoll(v);
    } else if (const char* v = value("--n=")) {
      opt.n = std::atoll(v);
    } else if (const char* v = value("--k=")) {
      opt.k = std::atoll(v);
    } else if (const char* v = value("--batch=")) {
      opt.batch = std::atoll(v);
    } else if (const char* v = value("--mix=")) {
      opt.mix.clear();
      std::vector<MixShape> set;
      const char* p = v;
      while (*p) {
        MixShape s;
        char* end = nullptr;
        s.m = static_cast<index_t>(std::strtoll(p, &end, 10));
        if (end == p || *end != 'x') {
          usage();
        }
        p = end + 1;
        s.n = static_cast<index_t>(std::strtoll(p, &end, 10));
        if (end == p || *end != 'x') {
          usage();
        }
        p = end + 1;
        s.k = static_cast<index_t>(std::strtoll(p, &end, 10));
        if (end == p || s.m < 1 || s.n < 1 || s.k < 1) {
          usage();
        }
        p = end;
        set.push_back(s);
        if (*p == ',' || *p == ';') {
          if (*p == ';') {
            opt.mix.push_back(set);
            set.clear();
          }
          ++p;
          if (!*p) {
            usage(); // trailing separator
          }
        }
      }
      if (!set.empty()) {
        opt.mix.push_back(set);
      }
      if (opt.mix.empty()) {
        usage();
      }
    } else if (const char* v = value("--queue=")) {
      opt.queue = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--coalesce=")) {
      opt.coalesce = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--dispatchers=")) {
      opt.dispatchers = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--deadline-ms=")) {
      opt.deadline_ms = std::atof(v);
      if (!(opt.deadline_ms <= net::kMaxWireDeadlineMs)) {
        std::fprintf(stderr,
                     "iatf_loadgen: --deadline-ms above the wire's 1e12 ms "
                     "bound\n");
        usage();
      }
    } else if (const char* v = value("--ring=")) {
      opt.ring = std::atoi(v);
    } else if (std::strcmp(arg, "--smoke") == 0) {
      opt.smoke = true;
    } else if (const char* v = value("--kill-after=")) {
      opt.kill_after = std::atoi(v);
      if (opt.kill_after < 1) {
        usage();
      }
    } else if (const char* v = value("--expect-quarantined=")) {
      opt.expect_quarantined = std::atoi(v);
      if (opt.expect_quarantined < 0) {
        usage();
      }
    } else if (const char* v = value("--json=")) {
      opt.json = v;
    } else if (const char* v = value("--record=")) {
      opt.record = v;
    } else if (const char* v = value("--replay=")) {
      opt.replay = v;
    } else if (const char* v = value("--connect=")) {
      opt.connect = v;
    } else if (std::strcmp(arg, "--compare") == 0) {
      opt.compare = true;
    } else {
      std::fprintf(stderr, "iatf_loadgen: unknown option '%s'\n", arg);
      usage();
    }
  }
  if (opt.tenants < 1 || opt.requests < 1 || opt.ring < 1) {
    usage();
  }
  if (!opt.replay.empty() && !opt.record.empty()) {
    std::fprintf(stderr,
                 "iatf_loadgen: --record and --replay are exclusive\n");
    usage();
  }
  if (!opt.connect.empty() && opt.replay.empty()) {
    std::fprintf(stderr, "iatf_loadgen: --connect needs --replay\n");
    usage();
  }
  if (!opt.connect.empty() &&
      opt.connect.rfind("unix:", 0) != 0 &&
      opt.connect.rfind("tcp:", 0) != 0) {
    std::fprintf(stderr, "iatf_loadgen: --connect wants unix:PATH or "
                         "tcp:HOST:PORT\n");
    usage();
  }
  if (opt.smoke) {
    // CI-sized: enough traffic to exercise coalescing and fairness,
    // small enough to finish in seconds on a loaded runner.
    opt.requests = std::min(opt.requests, 200);
  }
  if (opt.kill_after > 0) {
    // The crash happens after every tenant completed kill_after
    // requests: real traffic first, then the quarantine, then SIGKILL.
    opt.requests = std::min(opt.requests, opt.kill_after);
  }
  opt.weights.resize(static_cast<std::size_t>(opt.tenants), 1u);
  for (auto& w : opt.weights) {
    w = std::max(w, 1u);
  }
  return opt;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Print one report row and keep it for --json.
void report_row(std::vector<tune::BenchRow>& rows, index_t n,
                const std::string& series, double value,
                const std::string& unit) {
  rows.push_back({"serve_loadgen", "d", "NN", n, series, value, unit, 1});
  std::printf("serve_loadgen,d,NN,%lld,%s,%.4f,%s\n",
              static_cast<long long>(n), series.c_str(), value,
              unit.c_str());
}

/// Mirror the report rows into --json.
void write_json(const std::string& path,
                const std::vector<tune::BenchRow>& rows) {
  if (!tune::write_bench_json(path, CacheInfo::detect(), rows)) {
    std::fprintf(stderr, "iatf_loadgen: could not write '%s'\n",
                 path.c_str());
  }
}

int run(const Options& opt) {
  Engine& engine = Engine::default_engine();
  if (opt.expect_quarantined >= 0) {
    // The engine constructor replayed $IATF_HEALTH_LEDGER before any
    // request was served; a crashed predecessor's quarantines must
    // already be in force.
    const std::size_t replayed = engine.health().quarantined_kernels;
    if (replayed < static_cast<std::size_t>(opt.expect_quarantined)) {
      std::fprintf(stderr,
                   "RECOVERY FAIL: ledger replay restored %zu "
                   "quarantined kernels, expected >= %d\n",
                   replayed, opt.expect_quarantined);
      return 1;
    }
    std::printf("recovery: %zu quarantined kernels replayed from the "
                "health ledger\n",
                replayed);
  }
  engine.set_kernel_verification(false);

  const index_t width = simd::pack_width_v<double>;
  const index_t batch = opt.batch > 0 ? opt.batch : 2 * width;
  Rng rng(2026);
  auto fill = [&](CompactBuffer<double>& buf) {
    for (index_t b = 0; b < buf.batch(); ++b) {
      std::vector<double> host(
          static_cast<std::size_t>(buf.rows() * buf.cols()));
      for (auto& v : host) {
        v = rng.uniform<double>();
      }
      buf.import_colmajor(b, host.data(), buf.rows());
    }
  };
  // Per-tenant descriptor sets. --mix hands tenant t the spec's set
  // t % mix.size(); without it every tenant draws the one --m/--n/--k
  // shape, so the single-shape path is byte-for-byte the old behavior.
  std::vector<std::vector<MixShape>> tenant_shapes(
      static_cast<std::size_t>(opt.tenants));
  for (int t = 0; t < opt.tenants; ++t) {
    tenant_shapes[static_cast<std::size_t>(t)] =
        opt.mix.empty()
            ? std::vector<MixShape>{{opt.m, opt.n, opt.k}}
            : opt.mix[static_cast<std::size_t>(t) % opt.mix.size()];
  }

  // Inputs are read-only under the serve contract, so tenants whose
  // sets overlap share one (a, b) pair per distinct shape.
  std::vector<MixShape> shapes;
  auto shape_id = [&](const MixShape& s) -> std::size_t {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      if (shapes[i].m == s.m && shapes[i].n == s.n &&
          shapes[i].k == s.k) {
        return i;
      }
    }
    shapes.push_back(s);
    return shapes.size() - 1;
  };
  std::vector<std::vector<std::size_t>> tenant_ids(
      static_cast<std::size_t>(opt.tenants));
  for (int t = 0; t < opt.tenants; ++t) {
    for (const MixShape& s : tenant_shapes[static_cast<std::size_t>(t)]) {
      tenant_ids[static_cast<std::size_t>(t)].push_back(shape_id(s));
    }
  }
  std::vector<CompactBuffer<double>> as, bs;
  as.reserve(shapes.size());
  bs.reserve(shapes.size());
  for (const MixShape& s : shapes) {
    as.emplace_back(s.m, s.k, batch);
    fill(as.back());
    bs.emplace_back(s.k, s.n, batch);
    fill(bs.back());
  }

  // Every in-flight slot owns one output buffer per shape in its
  // tenant's set (the serve contract forbids aliased writers).
  const std::size_t slots =
      static_cast<std::size_t>(opt.tenants) *
      static_cast<std::size_t>(opt.ring);
  std::vector<std::vector<CompactBuffer<double>>> outs(slots);
  for (int t = 0; t < opt.tenants; ++t) {
    const auto& set = tenant_shapes[static_cast<std::size_t>(t)];
    for (int slot = 0; slot < opt.ring; ++slot) {
      auto& bucket = outs[static_cast<std::size_t>(t * opt.ring + slot)];
      bucket.reserve(set.size());
      for (const MixShape& s : set) {
        bucket.emplace_back(s.m, s.n, batch);
        fill(bucket.back());
      }
    }
  }

  serve::ServeConfig config;
  config.queue_capacity = opt.queue;
  config.max_coalesce = opt.coalesce;
  config.dispatchers = opt.dispatchers;
  config.overload = resilience::OverloadPolicy::Block;
  if (opt.deadline_ms > 0) {
    config.default_deadline = std::chrono::nanoseconds(
        static_cast<long long>(opt.deadline_ms * 1e6));
  }
  serve::Server server(engine, config);
  for (int t = 0; t < opt.tenants; ++t) {
    server.set_tenant_weight(static_cast<serve::TenantId>(t),
                             opt.weights[static_cast<std::size_t>(t)]);
  }

  std::mutex lat_mu;
  std::vector<double> latencies_ms; // all tenants pooled
  latencies_ms.reserve(static_cast<std::size_t>(opt.tenants) *
                       static_cast<std::size_t>(opt.requests));
  std::vector<std::uint64_t> failures(
      static_cast<std::size_t>(opt.tenants), 0);
  std::vector<std::uint64_t> unresolved(
      static_cast<std::size_t>(opt.tenants), 0);

  // --record: one thread-safe writer shared by every tenant thread;
  // submissions are stamped with their offset from the run start so a
  // replay reproduces the recorded arrival pattern.
  std::unique_ptr<net::TraceWriter> recorder;
  if (!opt.record.empty()) {
    recorder = std::make_unique<net::TraceWriter>(opt.record);
  }

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < opt.tenants; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<BatchHealth>> ring(
          static_cast<std::size_t>(opt.ring));
      auto settle = [&](std::future<BatchHealth>& fut) {
        if (!fut.valid()) {
          return;
        }
        try {
          (void)fut.get();
        } catch (const std::exception&) {
          ++failures[static_cast<std::size_t>(t)];
        }
      };
      const auto& ids = tenant_ids[static_cast<std::size_t>(t)];
      for (int i = 0; i < opt.requests; ++i) {
        const std::size_t slot =
            static_cast<std::size_t>(i % opt.ring);
        settle(ring[slot]); // closed loop: wait the slot's last flight
        // Round-robin over this tenant's own descriptor set.
        const std::size_t si = static_cast<std::size_t>(i) % ids.size();
        serve::SubmitOptions so;
        so.tenant = static_cast<serve::TenantId>(t);
        const auto start = Clock::now();
        if (recorder) {
          const MixShape& shp = shapes[ids[si]];
          net::TraceEvent ev;
          ev.t_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        start - t0)
                        .count();
          ev.tenant = static_cast<std::uint32_t>(t);
          ev.m = shp.m;
          ev.n = shp.n;
          ev.k = shp.k;
          ev.batch = batch;
          ev.deadline_ms = opt.deadline_ms;
          recorder->record(ev);
        }
        ring[slot] = server.submit_gemm<double>(
            Op::NoTrans, Op::NoTrans, 1.0, as[ids[si]], bs[ids[si]], 0.0,
            outs[static_cast<std::size_t>(t * opt.ring) + slot][si], so,
            [&, start](Status, const BatchHealth&) {
              const double ms =
                  std::chrono::duration<double, std::milli>(
                      Clock::now() - start)
                      .count();
              std::lock_guard<std::mutex> lock(lat_mu);
              latencies_ms.push_back(ms);
            });
      }
      for (auto& fut : ring) {
        if (!fut.valid()) {
          continue;
        }
        if (fut.wait_for(std::chrono::seconds(30)) !=
            std::future_status::ready) {
          ++unresolved[static_cast<std::size_t>(t)]; // hang: smoke fails
        } else {
          settle(fut);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  server.drain();
  if (recorder) {
    std::printf("recorded %zu submissions to %s\n", recorder->recorded(),
                opt.record.c_str());
  }
  if (opt.kill_after > 0) {
    // The crash: fail one verification canary so the engine quarantines
    // a kernel (journaled to the attached ledger the moment it happens),
    // then die by SIGKILL -- no destructor, no save() compaction, no
    // flush. A restart with --expect-quarantined proves the journal
    // alone carried the lesson across the crash.
    if (engine.health_ledger() == nullptr) {
      std::fprintf(stderr, "kill-after: no health ledger attached (set "
                           "$IATF_HEALTH_LEDGER)\n");
      return 3;
    }
    engine.set_kernel_verification(true);
    fault::arm("resilience.verify", 0, 1);
    if (engine.self_test() < 1) {
      std::fprintf(stderr, "kill-after: self_test quarantined nothing\n");
      return 3;
    }
    std::fprintf(stderr, "kill-after: quarantine journaled after %llu "
                         "requests; dying by SIGKILL\n",
                 static_cast<unsigned long long>(
                     static_cast<std::uint64_t>(opt.tenants) *
                     static_cast<std::uint64_t>(opt.requests)));
    std::fflush(nullptr);
    ::raise(SIGKILL);
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const serve::ServerStats stats = server.stats();

  const std::uint64_t total =
      static_cast<std::uint64_t>(opt.tenants) *
      static_cast<std::uint64_t>(opt.requests);
  const double server_rps = static_cast<double>(total) / wall_s;

  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(lat_mu);
    sorted = latencies_ms;
  }
  std::sort(sorted.begin(), sorted.end());

  std::vector<tune::BenchRow> rows;
  auto row = [&](const std::string& series, double value,
                 const std::string& unit) {
    report_row(rows, opt.n, series, value, unit);
  };

  row("throughput", server_rps, "req/s");
  row("latency_p50", percentile(sorted, 0.50), "ms");
  row("latency_p95", percentile(sorted, 0.95), "ms");
  row("latency_p99", percentile(sorted, 0.99), "ms");
  row("dispatch_calls", static_cast<double>(stats.dispatch_calls),
      "calls");
  row("coalesced_requests",
      static_cast<double>(stats.coalesced_requests), "req");
  row("coalesce_ratio",
      stats.dispatch_calls
          ? static_cast<double>(total) /
                static_cast<double>(stats.dispatch_calls)
          : 0.0,
      "req/dispatch");
  row("shed_expired", static_cast<double>(stats.shed_expired), "req");
  row("shed_overflow", static_cast<double>(stats.shed_overflow), "req");
  row("dispatchers", static_cast<double>(stats.dispatchers), "threads");
  row("peak_concurrent_dispatches",
      static_cast<double>(stats.peak_concurrent_dispatches), "dispatches");
  // Submits that took the queue lock; the rest took the lock-free path.
  row("locked_submits", static_cast<double>(stats.locked_submits), "req");
  if (!opt.mix.empty()) {
    row("mix_distinct_shapes", static_cast<double>(shapes.size()),
        "shapes");
  }

  // Fairness: each tenant's share of served requests against its weight
  // share. With a closed loop all requests complete, so the interesting
  // signal is how far the scheduler let shares drift *during* the run;
  // report the worst-case drift across tenants.
  double weight_sum = 0.0;
  for (std::uint32_t w : opt.weights) {
    weight_sum += static_cast<double>(w);
  }
  double max_drift_pts = 0.0;
  for (const serve::TenantStats& ts : stats.tenants) {
    if (ts.tenant >= static_cast<serve::TenantId>(opt.tenants)) {
      continue;
    }
    const double served_share =
        stats.submitted
            ? static_cast<double>(ts.served) /
                  static_cast<double>(total)
            : 0.0;
    const double weight_share =
        static_cast<double>(opt.weights[ts.tenant]) / weight_sum;
    max_drift_pts = std::max(
        max_drift_pts, std::abs(served_share - weight_share) * 100.0);
    row("tenant" + std::to_string(ts.tenant) + "_served_share",
        served_share * 100.0, "%");
  }
  row("fairness_max_drift", max_drift_pts, "pts");

  std::uint64_t failed = 0, hung = 0;
  for (int t = 0; t < opt.tenants; ++t) {
    failed += failures[static_cast<std::size_t>(t)];
    hung += unresolved[static_cast<std::size_t>(t)];
  }
  row("failed", static_cast<double>(failed), "req");
  row("unresolved", static_cast<double>(hung), "req");

  double ratio = 0.0;
  if (opt.compare) {
    // Single-caller baseline: one thread batching the same requests
    // into grouped calls of the same width the server may reach. The
    // segment stream interleaves every tenant's descriptor set so the
    // grouped path sees the same shape mix the server did.
    std::vector<sched::GemmSegment<double>> stream;
    stream.reserve(slots);
    for (int t = 0; t < opt.tenants; ++t) {
      const auto& ids = tenant_ids[static_cast<std::size_t>(t)];
      for (int slot = 0; slot < opt.ring; ++slot) {
        const std::size_t si = static_cast<std::size_t>(slot) % ids.size();
        stream.push_back(
            {Op::NoTrans, Op::NoTrans, 1.0, 0.0, &as[ids[si]],
             &bs[ids[si]],
             &outs[static_cast<std::size_t>(t * opt.ring + slot)][si]});
      }
    }
    const std::size_t group =
        std::min<std::size_t>(opt.coalesce, stream.size());
    const auto c0 = Clock::now();
    std::uint64_t done = 0;
    std::size_t cursor = 0;
    while (done < total) {
      // Never let one grouped call wrap the stream: every output
      // pointer inside a call must stay distinct.
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(
              std::min<std::uint64_t>(group, total - done),
              static_cast<std::uint64_t>(stream.size() - cursor)));
      (void)engine.gemm_grouped<double>(
          std::span<const sched::GemmSegment<double>>(
              stream.data() + cursor, take));
      done += take;
      cursor = (cursor + take) % stream.size();
    }
    const double single_s =
        std::chrono::duration<double>(Clock::now() - c0).count();
    const double single_rps = static_cast<double>(total) / single_s;
    ratio = single_rps > 0 ? server_rps / single_rps : 0.0;
    row("single_caller_throughput", single_rps, "req/s");
    row("throughput_ratio", ratio, "x");
  }

  if (!opt.json.empty()) {
    write_json(opt.json, rows);
  }

  if (opt.smoke) {
    int rc = 0;
    if (hung != 0) {
      std::fprintf(stderr, "SMOKE FAIL: %llu unresolved futures\n",
                   static_cast<unsigned long long>(hung));
      rc = 1;
    }
    if (failed != 0) {
      std::fprintf(stderr, "SMOKE FAIL: %llu failed requests\n",
                   static_cast<unsigned long long>(failed));
      rc = 1;
    }
    // Closed-loop load with Block backpressure and no deadline is idle
    // load: nothing may be shed on expiry.
    if (stats.shed_expired != 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: %llu requests shed on deadline at "
                   "idle load\n",
                   static_cast<unsigned long long>(stats.shed_expired));
      rc = 1;
    }
    if (max_drift_pts > 10.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: fairness drift %.1f pts (> 10)\n",
                   max_drift_pts);
      rc = 1;
    }
    if (rc == 0) {
      std::printf("smoke: OK (%llu requests, %llu dispatches, "
                  "%.0f req/s)\n",
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(stats.dispatch_calls),
                  server_rps);
    }
    return rc;
  }
  return 0;
}

// ---- Trace replay ------------------------------------------------------

/// Deterministic per-shape input data for replay: traces carry
/// descriptors only, so both replay targets synthesize the same values
/// from a fixed seed.
template <class T>
std::vector<T> synth(index_t rows, index_t cols, index_t batch,
                     unsigned seed) {
  Rng rng(seed);
  std::vector<T> host(
      static_cast<std::size_t>(rows) * cols * batch);
  for (auto& v : host) {
    v = rng.uniform<T>();
  }
  return host;
}

/// Sampled-lane oracle for one replayed shape. Replays send C = A * B
/// (alpha 1, beta 0) on synth() operands, so iatf::ref on the same
/// operands gives the expected first, middle and last lane. The bound is
/// the test suites' 64 ulps per unit of reduction depth, scaled by the
/// largest expected magnitude.
struct LaneOracle {
  index_t m = 0, n = 0;
  std::vector<index_t> lanes;
  std::vector<double> expected; ///< per sampled lane, m x n column-major
  double bound = 0.0;

  template <class T>
  static LaneOracle of(index_t m, index_t n, index_t k, index_t batch,
                       const std::vector<T>& a, const std::vector<T>& b) {
    LaneOracle o;
    o.m = m;
    o.n = n;
    o.lanes = {0, batch / 2, batch - 1};
    o.lanes.erase(std::unique(o.lanes.begin(), o.lanes.end()),
                  o.lanes.end());
    std::vector<T> c(static_cast<std::size_t>(m * n));
    double norm = 1.0;
    for (const index_t l : o.lanes) {
      std::fill(c.begin(), c.end(), T(0));
      ref::gemm(Op::NoTrans, Op::NoTrans, m, n, k, T(1),
                a.data() + l * m * k, m, b.data() + l * k * n, k, T(0),
                c.data(), m);
      for (const T v : c) {
        o.expected.push_back(static_cast<double>(v));
        norm = std::max(norm, std::abs(static_cast<double>(v)));
      }
    }
    o.bound = static_cast<double>(std::numeric_limits<T>::epsilon()) * 64 *
              static_cast<double>(std::max<index_t>(k, 2)) * norm;
    return o;
  }

  /// True when every sampled lane matches; `lane(l, dst)` writes result
  /// lane l (m x n, column-major) to dst.
  template <class T, class Lane> bool matches(Lane&& lane) const {
    std::vector<T> got(static_cast<std::size_t>(m * n));
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      lane(lanes[i], got.data());
      for (std::size_t j = 0; j < got.size(); ++j) {
        const double want = expected[i * got.size() + j];
        if (!(std::abs(static_cast<double>(got[j]) - want) <= bound)) {
          return false; // also catches NaN
        }
      }
    }
    return true;
  }

  /// A wire Result's C payload (lanes column-major, one after another)
  /// has the batch's `size` bytes and matches.
  template <class T>
  bool matches_wire(const std::vector<std::uint8_t>& c,
                    std::size_t size) const {
    const std::size_t lane_bytes = static_cast<std::size_t>(m * n) * sizeof(T);
    return c.size() == size && matches<T>([&](index_t l, T* dst) {
             std::memcpy(dst, c.data() + l * lane_bytes, lane_bytes);
           });
  }
};

/// Open-loop replay against an iatf_served daemon over its socket. One
/// connection, submissions paced to the recorded arrival times, replies
/// drained between sends; every submission must come back as exactly
/// one Result (or wire Error) frame, and every Ok result must match
/// iatf::ref on its sampled lanes.
int replay_socket(const Options& opt,
                  const std::vector<net::TraceEvent>& events) {
  net::Client client;
  try {
    if (opt.connect.rfind("unix:", 0) == 0) {
      client.connect_unix(opt.connect.substr(5));
    } else {
      const std::string spec = opt.connect.substr(4);
      const auto colon = spec.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        std::fprintf(stderr, "iatf_loadgen: --connect=tcp wants "
                             "tcp:HOST:PORT\n");
        return 2;
      }
      client.connect_tcp(spec.substr(0, colon),
                         static_cast<std::uint16_t>(
                             std::atoi(spec.c_str() + colon + 1)));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iatf_loadgen: connect failed: %s\n", e.what());
    return 1;
  }

  // Shape data cache: key on the full descriptor, bytes ready to wire.
  struct ShapeBytes {
    char dtype = 'd';
    std::vector<std::uint8_t> a, b, c;
    LaneOracle oracle;

    bool check(const std::vector<std::uint8_t>& result) const {
      return dtype == 's' ? oracle.matches_wire<float>(result, c.size())
                          : oracle.matches_wire<double>(result, c.size());
    }
  };
  std::map<std::string, ShapeBytes> cache;
  auto bytes_for = [&](const net::TraceEvent& ev) -> ShapeBytes& {
    char key[64];
    std::snprintf(key, sizeof key, "%c:%lldx%lldx%lldx%lld", ev.dtype,
                  (long long)ev.m, (long long)ev.n, (long long)ev.k,
                  (long long)ev.batch);
    auto it = cache.find(key);
    if (it != cache.end()) {
      return it->second;
    }
    ShapeBytes sb;
    sb.dtype = ev.dtype;
    auto fill = [&](auto zero) {
      using T = decltype(zero);
      const auto a = synth<T>(ev.m, ev.k, ev.batch, 11);
      const auto b = synth<T>(ev.k, ev.n, ev.batch, 23);
      const auto c = synth<T>(ev.m, ev.n, ev.batch, 37);
      auto bytes = [](const std::vector<T>& host,
                      std::vector<std::uint8_t>& out) {
        out.resize(host.size() * sizeof(T));
        std::memcpy(out.data(), host.data(), out.size());
      };
      bytes(a, sb.a);
      bytes(b, sb.b);
      bytes(c, sb.c);
      sb.oracle = LaneOracle::of<T>(ev.m, ev.n, ev.k, ev.batch, a, b);
    };
    if (ev.dtype == 's') {
      fill(0.0f);
    } else {
      fill(0.0);
    }
    return cache.emplace(key, std::move(sb)).first->second;
  };

  std::uint64_t ok = 0, failed = 0, refused = 0, wrong = 0;
  std::size_t outstanding = 0;
  std::map<std::uint64_t, const ShapeBytes*> pending;

  auto absorb = [&](const net::Client::Reply& reply) {
    if (reply.type == net::FrameType::Result) {
      const auto it = pending.find(reply.request_id);
      const ShapeBytes* sb = it != pending.end() ? it->second : nullptr;
      if (sb != nullptr) {
        pending.erase(it);
        --outstanding;
      }
      if (reply.status != 0) {
        ++failed;
        return;
      }
      ++ok;
      if (sb == nullptr || !sb->check(reply.c)) {
        ++wrong;
      }
    } else if (reply.type == net::FrameType::Error) {
      const auto it = pending.find(reply.request_id);
      if (it != pending.end()) {
        pending.erase(it);
        --outstanding;
      }
      ++refused;
    }
  };

  const std::size_t cap =
      std::max<std::size_t>(1, client.server_caps().max_outstanding);
  const auto start = Clock::now();
  try {
    for (const net::TraceEvent& ev : events) {
      const auto target = start + std::chrono::microseconds(ev.t_us);
      // Open loop: pace to the recorded arrival time, draining replies
      // while we wait so the read side never backs up.
      for (;;) {
        const auto now = Clock::now();
        if (now >= target && outstanding < cap) {
          break;
        }
        const auto wait =
            now >= target
                ? std::chrono::milliseconds(50)
                : std::min(std::chrono::duration_cast<
                               std::chrono::milliseconds>(target - now) +
                               std::chrono::milliseconds(1),
                           std::chrono::milliseconds(50));
        net::Client::Reply reply;
        if (client.next_reply(reply, wait)) {
          absorb(reply);
        }
      }
      const ShapeBytes& sb = bytes_for(ev);
      net::GemmSubmit msg;
      msg.dtype = ev.dtype;
      msg.m = static_cast<std::uint32_t>(ev.m);
      msg.n = static_cast<std::uint32_t>(ev.n);
      msg.k = static_cast<std::uint32_t>(ev.k);
      msg.batch = static_cast<std::uint32_t>(ev.batch);
      msg.tenant = ev.tenant;
      msg.deadline_ms = ev.deadline_ms;
      msg.a = sb.a;
      msg.b = sb.b;
      msg.c = sb.c;
      const std::uint64_t id = client.submit_gemm(msg);
      pending.emplace(id, &sb);
      ++outstanding;
    }

    // Tail: every outstanding submission must resolve.
    const auto give_up = Clock::now() + std::chrono::seconds(30);
    while (outstanding > 0 && Clock::now() < give_up) {
      net::Client::Reply reply;
      if (client.next_reply(reply, std::chrono::milliseconds(200))) {
        absorb(reply);
      }
    }
    client.goodbye();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iatf_loadgen: replay aborted: %s\n", e.what());
    return 1;
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<tune::BenchRow> rows;
  auto row = [&](const std::string& series, double value,
                 const std::string& unit) {
    report_row(rows, events.front().n, series, value, unit);
  };
  row("net_replay_events", static_cast<double>(events.size()), "req");
  row("net_throughput",
      wall_s > 0 ? static_cast<double>(events.size()) / wall_s : 0.0,
      "req/s");
  row("net_failed", static_cast<double>(failed), "req");
  row("net_refused", static_cast<double>(refused), "req");
  row("net_unresolved", static_cast<double>(outstanding), "req");
  if (!opt.json.empty()) {
    write_json(opt.json, rows);
  }
  if (outstanding > 0) {
    std::fprintf(stderr,
                 "REPLAY FAIL: %zu submissions never answered\n",
                 outstanding);
    return 1;
  }
  if (wrong > 0) {
    std::fprintf(stderr,
                 "REPLAY FAIL: %llu results differ from iatf::ref\n",
                 (unsigned long long)wrong);
    return 1;
  }
  if (opt.smoke && (failed != 0 || refused != 0)) {
    std::fprintf(stderr,
                 "REPLAY FAIL: %llu failed, %llu refused under smoke\n",
                 (unsigned long long)failed, (unsigned long long)refused);
    return 1;
  }
  std::printf("replay: OK (%zu events, %llu ok and checked against "
              "iatf::ref, %llu failed, %llu refused)\n",
              events.size(), (unsigned long long)ok,
              (unsigned long long)failed, (unsigned long long)refused);
  return 0;
}

/// Read-only inputs of one replayed descriptor and their oracle.
template <class T> struct ShapeBufs {
  CompactBuffer<T> a, b;
  LaneOracle oracle;
};
template <class T> using ShapeCache = std::map<std::string, ShapeBufs<T>>;

/// Open-loop replay against an in-process Server (no sockets): the
/// trace's arrival times drive submissions from one pacing thread, and
/// every Ok result must match iatf::ref on its sampled lanes.
int replay_inprocess(const Options& opt,
                     const std::vector<net::TraceEvent>& events) {
  Engine& engine = Engine::default_engine();
  engine.set_kernel_verification(false);
  serve::ServeConfig config;
  config.queue_capacity = opt.queue;
  config.max_coalesce = opt.coalesce;
  config.dispatchers = opt.dispatchers;
  config.overload = resilience::OverloadPolicy::Block;
  serve::Server server(engine, config);

  // Shared read-only inputs per descriptor, one cache per dtype, so each
  // event is computed and checked at the precision the trace names (as
  // replay_socket sends it); every in-flight submission owns its output
  // buffer (the serve contract forbids aliased writers).
  std::mutex mu;
  std::vector<double> latencies_ms;
  std::uint64_t ok = 0, failed = 0, wrong = 0;
  std::vector<std::future<BatchHealth>> futures;
  futures.reserve(events.size());

  const auto submit = [&]<class T>(ShapeCache<T>& cache,
                                   const net::TraceEvent& ev) {
    char key[64];
    std::snprintf(key, sizeof key, "%lldx%lldx%lldx%lld", (long long)ev.m,
                  (long long)ev.n, (long long)ev.k, (long long)ev.batch);
    auto it = cache.find(key);
    if (it == cache.end()) {
      ShapeBufs<T> sb;
      sb.a = CompactBuffer<T>(ev.m, ev.k, ev.batch);
      sb.b = CompactBuffer<T>(ev.k, ev.n, ev.batch);
      const auto ah = synth<T>(ev.m, ev.k, ev.batch, 11);
      const auto bh = synth<T>(ev.k, ev.n, ev.batch, 23);
      for (index_t bi = 0; bi < ev.batch; ++bi) {
        sb.a.import_colmajor(bi, ah.data() + bi * ev.m * ev.k, ev.m);
        sb.b.import_colmajor(bi, bh.data() + bi * ev.k * ev.n, ev.k);
      }
      sb.oracle = LaneOracle::of<T>(ev.m, ev.n, ev.k, ev.batch, ah, bh);
      it = cache.emplace(key, std::move(sb)).first;
    }
    ShapeBufs<T>& sb = it->second;
    auto out = std::make_shared<CompactBuffer<T>>(ev.m, ev.n, ev.batch);
    serve::SubmitOptions so;
    so.tenant = static_cast<serve::TenantId>(ev.tenant);
    if (ev.deadline_ms > 0) {
      so.deadline = std::chrono::nanoseconds(
          static_cast<long long>(ev.deadline_ms * 1e6));
    }
    const auto sent = Clock::now();
    futures.push_back(server.submit_gemm<T>(
        Op::NoTrans, Op::NoTrans, T(1), sb.a, sb.b, T(0), *out, so,
        // The callback owns the output buffer; it dies with the request.
        [&, out, sent, oracle = &sb.oracle](Status st, const BatchHealth&) {
          const double ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - sent)
                                .count();
          const bool right =
              st != Status::Ok ||
              oracle->template matches<T>([&](index_t l, T* dst) {
                out->export_colmajor(l, dst, out->rows());
              });
          std::lock_guard<std::mutex> lock(mu);
          latencies_ms.push_back(ms);
          if (st == Status::Ok) {
            ++ok;
          } else {
            ++failed;
          }
          if (!right) {
            ++wrong;
          }
        }));
  };

  ShapeCache<float> singles;
  ShapeCache<double> doubles;
  const auto start = Clock::now();
  for (const net::TraceEvent& ev : events) {
    std::this_thread::sleep_until(start +
                                  std::chrono::microseconds(ev.t_us));
    if (ev.dtype == 's') {
      submit(singles, ev);
    } else {
      submit(doubles, ev);
    }
  }

  std::uint64_t unresolved = 0;
  for (auto& fut : futures) {
    if (fut.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      ++unresolved;
    } else {
      try {
        (void)fut.get();
      } catch (const std::exception&) {
        // Already counted by the callback.
      }
    }
  }
  server.drain();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const serve::ServerStats stats = server.stats();

  std::vector<tune::BenchRow> rows;
  auto row = [&](const std::string& series, double value,
                 const std::string& unit) {
    report_row(rows, events.front().n, series, value, unit);
  };
  std::sort(latencies_ms.begin(), latencies_ms.end());
  row("replay_events", static_cast<double>(events.size()), "req");
  row("replay_throughput",
      wall_s > 0 ? static_cast<double>(events.size()) / wall_s : 0.0,
      "req/s");
  row("replay_latency_p50", percentile(latencies_ms, 0.50), "ms");
  row("replay_latency_p95", percentile(latencies_ms, 0.95), "ms");
  row("replay_latency_p99", percentile(latencies_ms, 0.99), "ms");
  row("replay_failed", static_cast<double>(failed), "req");
  row("replay_unresolved", static_cast<double>(unresolved), "req");
  row("replay_dispatch_calls", static_cast<double>(stats.dispatch_calls),
      "calls");
  if (!opt.json.empty()) {
    write_json(opt.json, rows);
  }
  if (unresolved > 0) {
    std::fprintf(stderr, "REPLAY FAIL: %llu submissions unresolved\n",
                 (unsigned long long)unresolved);
    return 1;
  }
  if (wrong > 0) {
    std::fprintf(stderr,
                 "REPLAY FAIL: %llu results differ from iatf::ref\n",
                 (unsigned long long)wrong);
    return 1;
  }
  if (opt.smoke && failed != 0) {
    std::fprintf(stderr, "REPLAY FAIL: %llu failed under smoke\n",
                 (unsigned long long)failed);
    return 1;
  }
  std::printf("replay: OK (%zu events, %llu ok and checked against "
              "iatf::ref, %llu failed)\n",
              events.size(), (unsigned long long)ok,
              (unsigned long long)failed);
  return 0;
}

int run_replay(const Options& opt) {
  std::vector<net::TraceEvent> events;
  try {
    events = net::load_trace(opt.replay);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iatf_loadgen: %s\n", e.what());
    return 2;
  }
  if (events.empty()) {
    std::printf("replay: trace is empty, nothing to do\n");
    return 0;
  }
  return opt.connect.empty() ? replay_inprocess(opt, events)
                             : replay_socket(opt, events);
}

} // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (!opt.replay.empty()) {
    return run_replay(opt);
  }
  return run(opt);
}
