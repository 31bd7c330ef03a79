// The install-time Kernel Optimizer (paper section 4.3, Figure 5).
//
// Takes the kernel generator's naive instruction order -- all loads, then
// all FMULs -- and produces a placement that (1) separates dependent
// instructions by at least their producer latency and (2) interleaves
// loads between computation instructions so the FP pipes hide the load
// latency, exactly the two steps the paper describes. Implemented as
// dependence-aware list scheduling against the target machine model.
#pragma once

#include "iatf/codegen/ir.hpp"
#include "iatf/pipesim/machine_model.hpp"

namespace iatf::codegen {

/// Dependence edge kinds, exposed for tests.
enum class DepKind : std::uint8_t { Raw, War, Waw, Mem };

struct DepEdge {
  int from = 0;
  int to = 0;
  int latency = 0;
  DepKind kind = DepKind::Raw;
};

/// Build the dependence graph of a program: register RAW/WAR/WAW plus
/// conservative ordering between overlapping same-base memory accesses
/// when at least one is a store. (Distinct base pointers are assumed
/// non-aliasing -- packed panels and C never overlap.)
std::vector<DepEdge> build_dependences(const Program& prog);

/// List-schedule the program for the machine model. The result contains
/// the same instructions in an order that preserves every dependence.
Program schedule(const Program& prog, const pipesim::MachineModel& model);

} // namespace iatf::codegen
