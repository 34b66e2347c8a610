// MiniPTX optimization passes.
//
// These run after lowering and implement the back half of the optimizations
// the dissertation identifies as requiring fixed compile-time values
// (Section 2.4): constant folding and propagation, strength reduction of
// divisions/moduli/multiplies by powers of two, local common-subexpression
// elimination, dead-code elimination, constant-branch folding with
// unreachable-code removal, and final compaction. On a specialized kernel
// these passes collapse parameter-dependent arithmetic into immediates; on a
// run-time-evaluated kernel they mostly have nothing to do — which is exactly
// the performance gap the paper measures.
#pragma once

#include <vector>

#include "vgpu/isa.hpp"

namespace kspec::kcc {

struct PassStats {
  int folded_consts = 0;
  int strength_reduced = 0;
  int dce_removed = 0;
  int cse_hits = 0;
};

struct PassOptions {
  bool strength_reduction = true;
  bool cse = true;
};

// Optimizes `code` in place. `vreg_types` gives each virtual register's type
// and must have an entry for every register `code` names (it sizes the
// optimizer's per-register tables).
PassStats Optimize(std::vector<vgpu::Instr>& code,
                   const std::vector<vgpu::Type>& vreg_types,
                   const PassOptions& options = {});

}  // namespace kspec::kcc
