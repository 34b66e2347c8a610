// Register accounting and static ILP estimation.
//
// MiniPTX registers are virtual, like PTX; "register allocation" here means
// measuring what a translator would need: the maximum number of 32-bit
// registers simultaneously live at any program point (64-bit values count
// twice, predicates are tracked in their own file, as on real hardware).
// This count feeds the occupancy calculator and is the number reported in the
// dissertation's Table 6.13-style results — specialization lowers it because
// folded parameters never occupy a register.
//
// The ILP estimate is instructions / critical-path-length per basic block;
// the interpreter weighs it by dynamic execution to drive the latency-hiding
// term of the cost model (register-blocked unrolled code has long independent
// chains and hides latency even at low occupancy, Section 2.3).
#pragma once

#include <vector>

#include "vgpu/isa.hpp"

namespace kspec::kcc {

struct AllocResult {
  int reg_count = 0;                 // peak live 32-bit registers per thread
  int pred_count = 0;                // peak live predicate registers
  std::vector<float> ilp_at_pc;      // per-pc block ILP estimate
};

// `vreg_types` must have an entry for every register `code` names.
AllocResult AllocateRegisters(const std::vector<vgpu::Instr>& code,
                              const std::vector<vgpu::Type>& vreg_types);

}  // namespace kspec::kcc
