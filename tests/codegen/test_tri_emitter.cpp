// The Algorithm 4 emitter: the register-resident triangular solve as an
// instruction stream, validated through the IR interpreter against a
// scalar forward substitution, and shown semantics-preserving under the
// kernel optimizer.
#include <gtest/gtest.h>

#include "iatf/codegen/gemm_emitter.hpp"
#include "iatf/codegen/interpreter.hpp"
#include "iatf/codegen/scheduler.hpp"
#include "iatf/common/error.hpp"
#include "iatf/common/rng.hpp"
#include "iatf/pipesim/simulator.hpp"

namespace iatf::codegen {
namespace {

struct TriProblem {
  InterpBuffers bufs;
  std::vector<double> tri; // packed triangle, reciprocal diagonal
  std::vector<double> b0;
  int lanes;
};

TriProblem make_problem(const TrsmTriKernelSpec& spec,
                        std::uint64_t seed) {
  TriProblem p;
  p.lanes = 16 / spec.elem_bytes;
  Rng rng(seed);
  const int blocks = spec.m * (spec.m + 1) / 2;
  p.tri.resize(static_cast<std::size_t>(blocks * p.lanes));
  for (double& v : p.tri) {
    v = rng.uniform<double>(-0.4, 0.4);
  }
  // Reciprocal diagonal, bounded away from zero.
  for (int i = 0; i < spec.m; ++i) {
    const int d = i * (i + 1) / 2 + i;
    for (int l = 0; l < p.lanes; ++l) {
      p.tri[static_cast<std::size_t>(d * p.lanes + l)] =
          1.0 / rng.uniform<double>(1.0, 2.0);
    }
  }
  p.b0.resize(static_cast<std::size_t>(spec.m * spec.nc * p.lanes));
  for (double& v : p.b0) {
    v = rng.uniform<double>(-1, 1);
  }
  p.bufs.a = p.tri;
  p.bufs.c = p.b0;
  p.bufs.alpha.assign(static_cast<std::size_t>(p.lanes), 1.0);
  return p;
}

// Scalar forward substitution with the packed (reciprocal-diag) triangle.
std::vector<double> reference(const TriProblem& p,
                              const TrsmTriKernelSpec& spec) {
  std::vector<double> x = p.b0;
  const auto tri = [&](int i, int j, int l) {
    return p.tri[static_cast<std::size_t>(
        (i * (i + 1) / 2 + j) * p.lanes + l)];
  };
  for (int c = 0; c < spec.nc; ++c) {
    for (int i = 0; i < spec.m; ++i) {
      for (int l = 0; l < p.lanes; ++l) {
        double acc =
            x[static_cast<std::size_t>((c * spec.m + i) * p.lanes + l)];
        for (int j = 0; j < i; ++j) {
          acc -= tri(i, j, l) *
                 x[static_cast<std::size_t>((c * spec.m + j) * p.lanes +
                                            l)];
        }
        x[static_cast<std::size_t>((c * spec.m + i) * p.lanes + l)] =
            acc * tri(i, i, l);
      }
    }
  }
  return x;
}

TEST(TriEmitter, SolvesAllRegisterResidentSizes) {
  std::uint64_t seed = 1;
  for (int eb : {8, 4}) {
    for (int m = 1; m <= 5; ++m) {
      for (int nc : {1, 2, 4}) {
        TrsmTriKernelSpec spec{m, nc, eb};
        if (m * (m + 1) / 2 + m * nc > 32) {
          continue;
        }
        TriProblem p = make_problem(spec, seed++);
        interpret(emit_trsm_tri_kernel(spec), p.bufs);
        const auto expected = reference(p, spec);
        for (std::size_t i = 0; i < expected.size(); ++i) {
          ASSERT_NEAR(p.bufs.c[i], expected[i], 1e-12)
              << "m=" << m << " nc=" << nc << " eb=" << eb;
        }
      }
    }
  }
}

TEST(TriEmitter, RegisterBudgetEnforced) {
  // m=5, nc=4: 15 + 20 = 35 > 32.
  EXPECT_THROW(emit_trsm_tri_kernel({5, 4, 8}), Error);
  EXPECT_NO_THROW(emit_trsm_tri_kernel({5, 3, 8})); // 15 + 15 = 30
}

TEST(TriEmitter, SchedulingPreservesSolveSemantics) {
  const auto model = pipesim::MachineModel::kunpeng920();
  TrsmTriKernelSpec spec{4, 4, 8};
  const Program prog = emit_trsm_tri_kernel(spec);
  const Program tuned = schedule(prog, model);
  TriProblem p1 = make_problem(spec, 99);
  TriProblem p2 = p1;
  interpret(prog, p1.bufs);
  interpret(tuned, p2.bufs);
  EXPECT_EQ(p1.bufs.c, p2.bufs.c);
  // The optimizer may not slow the stream down.
  EXPECT_LE(pipesim::simulate(tuned, model).cycles,
            pipesim::simulate(prog, model).cycles);
}

TEST(TriEmitter, NoFdivInstructionsEmitted) {
  // The reciprocal-diagonal trick: the solve is FMLS/FMUL only.
  const Program prog = emit_trsm_tri_kernel({5, 2, 8});
  for (const Inst& inst : prog) {
    EXPECT_TRUE(inst.op == Opcode::LDP || inst.op == Opcode::LDR ||
                inst.op == Opcode::STP || inst.op == Opcode::STR ||
                inst.op == Opcode::FMLS || inst.op == Opcode::FMUL)
        << inst.text();
  }
}

TEST(TriEmitter, RendersValidLookingAsm) {
  const std::string text =
      render_asm(emit_trsm_tri_kernel({4, 2, 4}), "iatf_strsm_tri_4");
  EXPECT_NE(text.find("fmls"), std::string::npos);
  EXPECT_NE(text.find(".4s"), std::string::npos);
  EXPECT_EQ(text.find("fdiv"), std::string::npos);
}

} // namespace
} // namespace iatf::codegen
