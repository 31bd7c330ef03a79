#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "iatf/codegen/gemm_emitter.hpp"
#include "iatf/codegen/interpreter.hpp"
#include "iatf/codegen/scheduler.hpp"
#include "iatf/common/rng.hpp"
#include "iatf/pipesim/simulator.hpp"

namespace iatf::codegen {
namespace {

using pipesim::MachineModel;

InterpBuffers make_buffers(const GemmKernelSpec& spec, double alpha,
                           std::uint64_t seed) {
  InterpBuffers b;
  const int lanes = 16 / spec.elem_bytes;
  Rng rng(seed);
  const auto fill = [&rng](std::vector<double>& v, std::size_t n) {
    v.resize(n);
    for (double& x : v) {
      x = rng.uniform<double>(-1, 1);
    }
  };
  fill(b.a, static_cast<std::size_t>(spec.k * spec.mc * lanes));
  fill(b.b, static_cast<std::size_t>(spec.k * spec.nc * lanes));
  fill(b.c, static_cast<std::size_t>(spec.nc * spec.mc * lanes));
  b.alpha.assign(static_cast<std::size_t>(lanes), alpha);
  return b;
}

TEST(Scheduler, DependencesOfASimpleChain) {
  // ldr v0 <- [pA]; fmul v1 = v0*v0; str v1 -> [pC]
  Program prog;
  prog.push_back({Opcode::LDR, {0}, {kRegPA}, 0, 8});
  prog.push_back({Opcode::FMUL, {1}, {0, 0}, 0, 8});
  prog.push_back({Opcode::STR, {}, {1, kRegPC}, 0, 8});
  const auto edges = build_dependences(prog);
  bool raw01 = false, raw12 = false;
  for (const auto& e : edges) {
    if (e.from == 0 && e.to == 1 && e.kind == DepKind::Raw) {
      raw01 = true;
    }
    if (e.from == 1 && e.to == 2 && e.kind == DepKind::Raw) {
      raw12 = true;
    }
  }
  EXPECT_TRUE(raw01);
  EXPECT_TRUE(raw12);
}

TEST(Scheduler, StoreLoadOverlapIsOrdered) {
  // str v0 -> [pC]; ldr v1 <- [pC] must stay ordered; a disjoint load
  // need not be.
  Program prog;
  prog.push_back({Opcode::STR, {}, {0, kRegPC}, 0, 8});
  prog.push_back({Opcode::LDR, {1}, {kRegPC}, 0, 8});
  prog.push_back({Opcode::LDR, {2}, {kRegPC}, 64, 8});
  const auto edges = build_dependences(prog);
  bool mem01 = false, mem02 = false;
  for (const auto& e : edges) {
    if (e.from == 0 && e.to == 1 && e.kind == DepKind::Mem) {
      mem01 = true;
    }
    if (e.from == 0 && e.to == 2 && e.kind == DepKind::Mem) {
      mem02 = true;
    }
  }
  EXPECT_TRUE(mem01);
  EXPECT_FALSE(mem02);
}

TEST(Scheduler, OutputIsAPermutation) {
  GemmKernelSpec spec;
  spec.k = 8;
  const Program prog = emit_gemm_kernel(spec);
  const Program out = schedule(prog, MachineModel::kunpeng920());
  ASSERT_EQ(out.size(), prog.size());
  const auto key = [](const Inst& i) {
    return std::tuple(i.op, i.defs, i.uses, i.imm);
  };
  std::map<decltype(key(prog[0])), int> counts;
  for (const auto& i : prog) {
    ++counts[key(i)];
  }
  for (const auto& i : out) {
    --counts[key(i)];
  }
  for (const auto& [k, v] : counts) {
    EXPECT_EQ(v, 0);
  }
}

// The central property: rescheduling never changes kernel semantics.
TEST(Scheduler, ReorderingPreservesSemanticsBitExactly) {
  std::uint64_t seed = 10;
  for (int mc : {2, 4}) {
    for (index_t k : {index_t(1), index_t(3), index_t(6), index_t(9)}) {
      GemmKernelSpec spec;
      spec.mc = mc;
      spec.nc = 4;
      spec.k = k;
      const Program prog = emit_gemm_kernel(spec);
      const Program scheduled = schedule(prog, MachineModel::kunpeng920());

      InterpBuffers b1 = make_buffers(spec, 1.5, seed);
      InterpBuffers b2 = b1;
      interpret(prog, b1);
      interpret(scheduled, b2);
      ASSERT_EQ(b1.c, b2.c) << "mc=" << mc << " k=" << k;
      ++seed;
    }
  }
}

TEST(Scheduler, RectKernelSchedulingPreservesSemantics) {
  GemmKernelSpec spec;
  spec.k = 4;
  const Program prog = emit_trsm_rect_kernel(spec);
  const Program scheduled = schedule(prog, MachineModel::kunpeng920());
  InterpBuffers b1 = make_buffers(spec, 1.0, 77);
  InterpBuffers b2 = b1;
  interpret(prog, b1);
  interpret(scheduled, b2);
  EXPECT_EQ(b1.c, b2.c);
}

// Figure 5's claim: the optimizer's placement cuts simulated cycles
// versus the generator's naive order by interleaving loads and FMULs.
TEST(Scheduler, ReducesSimulatedCyclesOnTemplateI) {
  GemmKernelSpec spec; // DGEMM 4x4 TEMPLATE_I, the paper's exact example
  const Program naive = emit_gemm_template_i(spec);
  const MachineModel model = MachineModel::kunpeng920();
  const Program tuned = schedule(naive, model);
  const auto before = pipesim::simulate(naive, model);
  const auto after = pipesim::simulate(tuned, model);
  EXPECT_LT(after.cycles, before.cycles)
      << "optimizer failed to improve the Figure 5 stream";
}

TEST(Scheduler, NeverHurtsWholeKernels) {
  const MachineModel model = MachineModel::kunpeng920();
  for (int eb : {4, 8}) {
    for (index_t k : {index_t(2), index_t(6), index_t(16)}) {
      GemmKernelSpec spec;
      spec.k = k;
      spec.elem_bytes = eb;
      const Program prog = emit_gemm_kernel(spec);
      const Program tuned = schedule(prog, model);
      const auto before = pipesim::simulate(prog, model);
      const auto after = pipesim::simulate(tuned, model);
      EXPECT_LE(after.cycles, before.cycles)
          << "eb=" << eb << " k=" << k;
    }
  }
}

TEST(Scheduler, EmptyProgram) {
  EXPECT_TRUE(schedule({}, MachineModel::kunpeng920()).empty());
}

} // namespace
} // namespace iatf::codegen
