// Per-layer probes shared by the traced runs. Every traced run reports
// the same per-layer metrics; each workload measures them on its own
// descriptors and traffic where it has them, and with these probes
// otherwise. All probes call the layers' public functions from outside
// and time those calls.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/serve/server.hpp"

namespace pb {

/// A GEMM NN descriptor at the default (128-bit) pack width.
struct GemmDesc {
  char dtype = 'd'; ///< 's' or 'd'
  iatf::index_t n = 0;
  iatf::index_t batch = 0;
};

/// Kernel, pack, plan, core-overhead, grouped and factor layers measured
/// on `descs` with a fresh engine. Adds kernels.*, plan.execute_gflops_
/// geomean, pack.ns_per_matrix, core.overhead_us.{small,large},
/// plan.build_us, plan.lookup_ns, sched.grouped_over_loop and factor.*;
/// adds layout.convert_gbps (to_compact at the descriptors' shapes) when
/// `convert` is set.
void descriptor_layers(Report& rep, const std::vector<GemmDesc>& descs,
                       double seconds, bool convert);

/// plan.hit_ratio, core.wide_share and core.plans_per_grouped_call from
/// an engine's public counters.
void engine_counters(Report& rep, const iatf::EngineStats& st);

/// Idle ladder on the hot descriptor (d 8x8x8 GEMM, batch 2x the default
/// pack width): plan execute, engine call, grouped call, serve round
/// trip, each a layer on top of the previous one.
struct Ladder {
  double execute_us = 0.0, call_us = 0.0, grouped_us = 0.0;
  double serve_rtt_us = 0.0;
  double serve_submit_ns = 0.0; ///< caller-side submit_gemm, idle
};
Ladder idle_ladder(Report& rep, iatf::Engine& eng, iatf::serve::Server& srv,
                   double seconds);

/// Add the ladder's rungs below the wire (plan.execute_us, core.call_us,
/// sched.grouped_us_per_req, serve.idle_rtt_us).
void add_ladder(Report& rep, const Ladder& ladder);

/// The serve layer seen by an idle caller: the ladder's counters on a
/// probe server (serve.submit_ns, serve.coalesce_ratio, serve.solo_share,
/// serve.backlog_max, serve.shed) for workloads without serving traffic.
void add_idle_serve(Report& rep, const Ladder& ladder,
                    const iatf::serve::ServerStats& st);

/// The wire rung for workloads that do not run the daemon: spawn
/// iatf_served, one connection, window 1, small d frames for `seconds`;
/// adds net.idle_rtt_us, net.submit_ns, net.codec_ns, net.bytes_per_req.
/// A non-zero daemon exit after SIGTERM fails `rep`.
void wire_probe(const Args& args, Report& rep, double seconds);

} // namespace pb
