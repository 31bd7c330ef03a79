// Figure 5: the kernel optimizer's instruction placement. Regenerates the
// paper's example -- the DGEMM 4x4 TEMPLATE_I stream -- in the naive
// generator order, and shows the optimizer's reordered/interleaved
// placement with simulated cycles on the Kunpeng-920-like machine model.
// Also scores whole kernels across K to show the optimizer never hurts,
// and prints the rendered AArch64 assembly of both placements.
#include <cstdio>

#include "iatf/codegen/gemm_emitter.hpp"
#include "iatf/codegen/scheduler.hpp"
#include "iatf/pipesim/simulator.hpp"

using namespace iatf;

namespace {

void show_stream(const char* title, const codegen::Program& prog,
                 const pipesim::SimResult& result, bool full) {
  std::printf("\n--- %s: %zu instructions, %lld cycles, %lld stall "
              "cycles, fp util %.2f ---\n",
              title, prog.size(),
              static_cast<long long>(result.cycles),
              static_cast<long long>(result.stall_cycles),
              result.fp_utilisation);
  if (full) {
    for (std::size_t i = 0; i < prog.size(); ++i) {
      std::printf("  [c%3lld] %s\n",
                  static_cast<long long>(result.issue_cycle[i]),
                  prog[i].text().c_str());
    }
  }
}

} // namespace

int main(int argc, char** argv) {
  const bool full = argc > 1 && std::string(argv[1]) == "--full";
  const auto model = pipesim::MachineModel::kunpeng920();

  std::printf("Figure 5: kernel optimizer on the DGEMM 4x4 TEMPLATE_I "
              "stream (machine model: %s)\n",
              model.name.c_str());
  codegen::GemmKernelSpec spec; // 4x4 double
  const auto naive = codegen::emit_gemm_template_i(spec);
  const auto tuned = codegen::schedule(naive, model);
  const auto r_naive = pipesim::simulate(naive, model);
  const auto r_tuned = pipesim::simulate(tuned, model);
  show_stream("generator order (loads, then FMULs)", naive, r_naive,
              true);
  show_stream("optimizer order (loads interleaved)", tuned, r_tuned,
              true);
  std::printf("\nspeedup on TEMPLATE_I: %.2fx\n",
              static_cast<double>(r_naive.cycles) /
                  static_cast<double>(r_tuned.cycles));

  std::printf("\nWhole kernels (prologue + ping-pong + SAVE), naive vs "
              "optimized cycles:\n");
  std::printf("%-8s %-6s %10s %10s %9s %8s\n", "dtype", "K", "naive",
              "optimized", "speedup", "CMAR");
  for (int eb : {8, 4}) {
    for (index_t k : {index_t(2), index_t(4), index_t(8), index_t(16),
                      index_t(32)}) {
      codegen::GemmKernelSpec s;
      s.k = k;
      s.elem_bytes = eb;
      const auto prog = codegen::emit_gemm_kernel(s);
      const auto opt = codegen::schedule(prog, model);
      const auto rn = pipesim::simulate(prog, model);
      const auto ro = pipesim::simulate(opt, model);
      const auto mix = codegen::instruction_mix(prog);
      std::printf("%-8s %-6lld %10lld %10lld %8.2fx %8.2f\n",
                  eb == 8 ? "double" : "float",
                  static_cast<long long>(k),
                  static_cast<long long>(rn.cycles),
                  static_cast<long long>(ro.cycles),
                  static_cast<double>(rn.cycles) /
                      static_cast<double>(ro.cycles),
                  mix.cmar());
    }
  }

  std::printf("\nSection 4.2 kernel-size analysis (steady-state CMAR = "
              "mc*nc/(mc+nc), register budget 2mc+2nc+mc*nc <= 32):\n");
  std::printf("%-8s %10s %6s\n", "kernel", "CMAR", "regs");
  for (int mc = 1; mc <= 4; ++mc) {
    for (int nc = 1; nc <= 4; ++nc) {
      const int regs = 2 * (mc + nc) + mc * nc;
      std::printf("%dx%d %12.2f %6d%s\n", mc, nc,
                  static_cast<double>(mc * nc) / (mc + nc), regs,
                  (mc == 4 && nc == 4) ? "   <- optimal (paper)" : "");
    }
  }

  std::printf("\nRendered assembly of the optimized DGEMM 4x4 K=4 "
              "kernel:\n%s\n",
              codegen::render_asm(
                  codegen::schedule(codegen::emit_gemm_kernel(spec), model),
                  "iatf_dgemm_kernel_4x4_k4")
                  .c_str());
  (void)full;
  return 0;
}
