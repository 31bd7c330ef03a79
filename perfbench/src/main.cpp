// perfbench -- one run of one workload of the repository benchmark.
//
//   perfbench --workload batch-compute|serve-open|wire-rpc --seed N
//             --seconds S --trace 0|1 [--served PATH] [--workdir DIR]
//
// Prints human-readable lines (host stamp, op counts, per-layer span
// summary, one line per metric) and, as the last line, the result JSON:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report
// the end-to-end metrics, traced runs the per-layer ones.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  pb::Args args;
  args.served = PERFBENCH_SERVED;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--served") {
      args.served = value;
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown option '%s'\n", key.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  void (*run)(const pb::Args&, pb::Report&) = nullptr;
  if (args.workload == "batch-compute") {
    run = pb::run_batch_compute;
  } else if (args.workload == "serve-open") {
    run = pb::run_serve_open;
  } else if (args.workload == "wire-rpc") {
    run = pb::run_wire_rpc;
  } else if (args.workload == "serve-open-calibrate") {
    run = pb::run_serve_calibrate;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  pb::Report report;
  try {
    run(args, report);
  } catch (const std::exception& e) {
    for (const std::string& note : report.notes) {
      std::fprintf(stderr, "note %s\n", note.c_str());
    }
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  pb::print_report(report);
  return 0;
}
