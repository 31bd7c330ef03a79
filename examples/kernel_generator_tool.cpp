// The install-time stage as a command-line tool: generate the AArch64
// assembly of a compact GEMM (or TRSM-rectangular) kernel from the
// paper's templates, optionally run it through the kernel optimizer, and
// report the simulated Kunpeng-920 cycle counts.
//
// Usage:
//   kernel_generator_tool [gemm|rect] [mc] [nc] [k] [s|d] [--naive]
//
// e.g. `kernel_generator_tool gemm 4 4 8 d` emits the optimized DGEMM
// 4x4 K=8 kernel.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "iatf/codegen/gemm_emitter.hpp"
#include "iatf/codegen/scheduler.hpp"
#include "iatf/pipesim/simulator.hpp"

using namespace iatf;

int main(int argc, char** argv) {
  std::string kind = argc > 1 ? argv[1] : "gemm";
  codegen::GemmKernelSpec spec;
  spec.mc = argc > 2 ? std::atoi(argv[2]) : 4;
  spec.nc = argc > 3 ? std::atoi(argv[3]) : 4;
  spec.k = argc > 4 ? std::atoll(argv[4]) : 8;
  spec.elem_bytes = (argc > 5 && argv[5][0] == 's') ? 4 : 8;
  bool naive = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--naive") == 0) {
      naive = true;
    }
  }

  codegen::Program prog;
  try {
    prog = kind == "rect" ? codegen::emit_trsm_rect_kernel(spec)
                          : codegen::emit_gemm_kernel(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const auto model = pipesim::MachineModel::kunpeng920();
  const auto naive_sim = pipesim::simulate(prog, model);
  codegen::Program chosen = prog;
  if (!naive) {
    chosen = codegen::schedule(prog, model);
  }
  const auto sim = pipesim::simulate(chosen, model);
  const auto mix = codegen::instruction_mix(chosen);

  const char* dt = spec.elem_bytes == 4 ? "s" : "d";
  const std::string name = std::string("iatf_") + dt +
                           (kind == "rect" ? "trsm_rect_" : "gemm_") +
                           std::to_string(spec.mc) + "x" +
                           std::to_string(spec.nc) + "_k" +
                           std::to_string(spec.k);
  std::printf("%s", codegen::render_asm(chosen, name).c_str());
  std::printf("\n// %zu instructions (%lld vector loads/stores, %lld fp)"
              ", CMAR %.2f\n",
              chosen.size(), static_cast<long long>(mix.memory),
              static_cast<long long>(mix.fp), mix.cmar());
  std::printf("// simulated cycles on %s: %lld%s (generator order: "
              "%lld)\n",
              model.name.c_str(), static_cast<long long>(sim.cycles),
              naive ? " [naive]" : " [optimized]",
              static_cast<long long>(naive_sim.cycles));
  return 0;
}
