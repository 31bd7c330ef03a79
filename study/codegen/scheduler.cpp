#include "iatf/codegen/scheduler.hpp"

#include <algorithm>

#include "iatf/common/error.hpp"

namespace iatf::codegen {
namespace {

// Bytes a memory instruction touches starting at its immediate offset.
index_t mem_width(const Inst& inst) {
  switch (inst.op) {
  case Opcode::LDP:
  case Opcode::STP:
    return 32;
  case Opcode::LDR:
  case Opcode::STR:
    return 16;
  default:
    return 0;
  }
}

int mem_base(const Inst& inst) {
  switch (inst.op) {
  case Opcode::LDP:
  case Opcode::LDR:
  case Opcode::PRFM:
    return inst.uses.empty() ? -1 : inst.uses.back();
  case Opcode::STP:
  case Opcode::STR:
    return inst.uses.back(); // base is the last use
  default:
    return -1;
  }
}

bool is_store(const Inst& inst) {
  return inst.op == Opcode::STP || inst.op == Opcode::STR;
}

} // namespace

std::vector<DepEdge> build_dependences(const Program& prog) {
  std::vector<DepEdge> edges;
  std::vector<int> last_def(kNumRegs, -1);
  std::vector<std::vector<int>> last_uses(kNumRegs);

  for (int i = 0; i < static_cast<int>(prog.size()); ++i) {
    const Inst& inst = prog[static_cast<std::size_t>(i)];
    for (int r : inst.uses) {
      const auto ri = static_cast<std::size_t>(r);
      if (last_def[ri] >= 0) {
        edges.push_back({last_def[ri], i, 0, DepKind::Raw});
      }
      last_uses[ri].push_back(i);
    }
    for (int r : inst.defs) {
      const auto ri = static_cast<std::size_t>(r);
      if (last_def[ri] >= 0) {
        edges.push_back({last_def[ri], i, 0, DepKind::Waw});
      }
      for (int u : last_uses[ri]) {
        if (u != i) {
          edges.push_back({u, i, 0, DepKind::War});
        }
      }
      last_uses[ri].clear();
      last_def[ri] = i;
    }

    // Memory ordering: same-base accesses where at least one side is a
    // store and the byte intervals overlap.
    if (is_memory(inst.op) && inst.op != Opcode::PRFM) {
      const int base = mem_base(inst);
      const index_t lo = inst.imm;
      const index_t hi = inst.imm + mem_width(inst);
      for (int j = 0; j < i; ++j) {
        const Inst& prev = prog[static_cast<std::size_t>(j)];
        if (!is_memory(prev.op) || prev.op == Opcode::PRFM) {
          continue;
        }
        if (mem_base(prev) != base) {
          continue;
        }
        if (!is_store(inst) && !is_store(prev)) {
          continue;
        }
        const index_t plo = prev.imm;
        const index_t phi = prev.imm + mem_width(prev);
        if (lo < phi && plo < hi) {
          edges.push_back({j, i, 0, DepKind::Mem});
        }
      }
    }
  }
  return edges;
}

Program schedule(const Program& prog, const pipesim::MachineModel& model) {
  const int n = static_cast<int>(prog.size());
  if (n == 0) {
    return {};
  }

  auto edges = build_dependences(prog);
  // RAW edges carry the producer's latency; ordering edges carry 0 (they
  // only constrain relative order, and issue is in-order downstream).
  for (DepEdge& e : edges) {
    if (e.kind == DepKind::Raw) {
      e.latency = model.latency(prog[static_cast<std::size_t>(e.from)].op);
    }
  }

  std::vector<std::vector<std::pair<int, int>>> succs(
      static_cast<std::size_t>(n)); // (to, latency)
  std::vector<int> pred_count(static_cast<std::size_t>(n), 0);
  for (const DepEdge& e : edges) {
    succs[static_cast<std::size_t>(e.from)].push_back({e.to, e.latency});
    ++pred_count[static_cast<std::size_t>(e.to)];
  }

  // Critical-path priority, computed backwards (edges always point
  // forward in program order, so a reverse scan is a topological order).
  std::vector<index_t> priority(static_cast<std::size_t>(n), 0);
  for (int i = n - 1; i >= 0; --i) {
    index_t best = 0;
    for (const auto& [to, lat] : succs[static_cast<std::size_t>(i)]) {
      best = std::max(best,
                      priority[static_cast<std::size_t>(to)] + lat + 1);
    }
    priority[static_cast<std::size_t>(i)] = best;
  }

  std::vector<index_t> earliest(static_cast<std::size_t>(n), 0);
  std::vector<bool> scheduled(static_cast<std::size_t>(n), false);
  std::vector<int> remaining_preds = pred_count;

  // Remaining work per resource class, used to balance issue pressure:
  // when one port class is the bottleneck (e.g. the single DP FMA pipe),
  // its ready instructions are preferred so the bottleneck never idles --
  // this is what interleaves loads *between* the FMULs as in Figure 5's
  // right-hand column instead of front-loading all memory traffic.
  index_t work_mem = 0, work_fp = 0, work_alu = 0;
  int fp_eb = 8;
  for (const Inst& inst : prog) {
    if (is_memory(inst.op)) {
      ++work_mem;
    } else if (is_fp(inst.op)) {
      ++work_fp;
      fp_eb = inst.elem_bytes;
    } else {
      ++work_alu;
    }
  }

  Program out;
  out.reserve(static_cast<std::size_t>(n));

  index_t cycle = 0;
  int done = 0;
  while (done < n) {
    int slots = model.issue_width;
    int mem_left = model.mem_per_cycle;
    int alu_left = model.alu_per_cycle;
    // FP cap depends on element width; streams are homogeneous so read it
    // per-instruction.
    int fp_left_sp = model.fp_per_cycle_sp;
    int fp_left_dp = model.fp_per_cycle_dp;

    // Which class has the most remaining cycles of port pressure?
    const double mem_density =
        static_cast<double>(work_mem) / model.mem_per_cycle;
    const double fp_density = static_cast<double>(work_fp) /
                              model.fp_per_cycle(fp_eb);
    const double alu_density =
        static_cast<double>(work_alu) / model.alu_per_cycle;
    const int bottleneck =
        fp_density >= mem_density && fp_density >= alu_density ? 1
        : mem_density >= alu_density                           ? 0
                                                               : 2;

    const auto inst_class = [](const Inst& inst) {
      return is_memory(inst.op) ? 0 : is_fp(inst.op) ? 1 : 2;
    };

    bool any = true;
    while (slots > 0 && any) {
      any = false;
      int pick = -1;
      bool pick_bottleneck = false;
      for (int i = 0; i < n; ++i) {
        const auto ii = static_cast<std::size_t>(i);
        if (scheduled[ii] || remaining_preds[ii] > 0 ||
            earliest[ii] > cycle) {
          continue;
        }
        const Inst& inst = prog[ii];
        if (is_memory(inst.op)) {
          if (mem_left == 0) {
            continue;
          }
        } else if (is_fp(inst.op)) {
          if ((inst.elem_bytes == 4 ? fp_left_sp : fp_left_dp) == 0) {
            continue;
          }
        } else if (alu_left == 0) {
          continue;
        }
        const bool bn = inst_class(inst) == bottleneck;
        if (pick < 0 || (bn && !pick_bottleneck) ||
            (bn == pick_bottleneck &&
             priority[ii] > priority[static_cast<std::size_t>(pick)])) {
          pick = i;
          pick_bottleneck = bn;
        }
      }
      if (pick >= 0) {
        const auto pi = static_cast<std::size_t>(pick);
        const Inst& inst = prog[pi];
        scheduled[pi] = true;
        out.push_back(inst);
        ++done;
        --slots;
        if (is_memory(inst.op)) {
          --work_mem;
        } else if (is_fp(inst.op)) {
          --work_fp;
        } else {
          --work_alu;
        }
        if (is_memory(inst.op)) {
          --mem_left;
        } else if (is_fp(inst.op)) {
          if (inst.elem_bytes == 4) {
            --fp_left_sp;
          } else {
            --fp_left_dp;
          }
        } else {
          --alu_left;
        }
        for (const auto& [to, lat] : succs[pi]) {
          const auto ti = static_cast<std::size_t>(to);
          --remaining_preds[ti];
          earliest[ti] = std::max(earliest[ti], cycle + lat);
        }
        any = true;
      }
    }
    ++cycle;
  }

  IATF_ASSERT(out.size() == prog.size());
  return out;
}

} // namespace iatf::codegen
