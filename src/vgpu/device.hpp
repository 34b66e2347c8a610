// Device profiles and the occupancy calculator.
//
// Two profiles model the GPUs used in the dissertation's evaluation
// (Section 6.1.1): the Tesla C1060 (compute capability 1.3) and the Tesla
// C2070 (Fermi, compute capability 2.0). The per-SM resource limits follow
// Tables 2.1 and 2.2 of the dissertation.
#pragma once

#include <cstdint>
#include <string>

#include "vgpu/types.hpp"

namespace kspec::vgpu {

struct DeviceProfile {
  std::string name;
  int compute_major = 1;
  int compute_minor = 3;

  // Grid/block limits.
  unsigned max_threads_per_block = 512;
  unsigned warp_size = 32;
  unsigned max_warps_per_sm = 32;
  unsigned max_blocks_per_sm = 8;

  // Per-SM resources (Table 2.2).
  unsigned registers_per_sm = 16 * 1024;  // 32-bit registers
  unsigned shared_mem_per_sm = 16 * 1024;  // bytes
  unsigned max_regs_per_thread = 124;
  unsigned shared_mem_banks = 16;

  // Register allocation granularity (registers are allocated per block in
  // units of `register_alloc_unit` per warp).
  unsigned register_alloc_unit = 512;

  // Chip-level resources.
  unsigned num_sms = 30;
  double clock_ghz = 1.3;
  std::uint64_t global_mem_bytes = 512ull << 20;
  unsigned const_mem_bytes = 64 * 1024;

  // Cost-model knobs (see cost.hpp).
  // Cycles charged per global-memory transaction (per 128-byte segment on
  // cc2.x, per half-warp segment on cc1.x).
  double cycles_per_global_tx = 36.0;
  // Pipeline latency of a dependent instruction; exposed when too few warps
  // are resident to hide it.
  double dependent_latency = 22.0;
  // Number of resident warps per SM needed to fully hide latency.
  double latency_hiding_warps = 20.0;
  // Extra issue cost multiplier for shared-memory accesses relative to
  // register operands (the C2070 derates shared memory relative to registers;
  // Section 2.4).
  double shared_access_cost = 1.0;

  // Watchdog: a launch whose blocks issue more warp-instructions than this
  // on one host thread is killed with DeviceError (the simulator's analogue
  // of the driver's kernel-timeout; catches accidentally non-terminating
  // kernels). Every tier counts a basic block's instructions when a warp
  // enters it, so the block that crosses the limit runs none of them.
  std::uint64_t watchdog_warp_instrs = 2000ull * 1000 * 1000;

  bool IsFermi() const { return compute_major >= 2; }
};

// The simulated Tesla C1060 (cc 1.3): 30 SMs, 16 K registers/SM, 16 KB shared
// memory, 16 banks, half-warp coalescing.
DeviceProfile TeslaC1060();

// The simulated Tesla C2070 (cc 2.0): 14 SMs, 32 K registers/SM, 48 KB shared
// memory, 32 banks, cache-line coalescing, larger register file.
DeviceProfile TeslaC2070();

DeviceProfile ProfileByName(const std::string& name);

// Occupancy for one kernel configuration, computed the way the CUDA occupancy
// calculator does: the binding resource among warps, registers, shared memory,
// and the block-count limit determines blocks/SM.
struct Occupancy {
  unsigned blocks_per_sm = 0;
  unsigned active_warps = 0;       // warps resident per SM
  double occupancy = 0.0;          // active_warps / max_warps_per_sm
  const char* limiter = "none";    // which resource bound the result
};

// `regs_per_thread` is the allocated register count; `smem_per_block` includes
// static + dynamic shared memory.
Occupancy ComputeOccupancy(const DeviceProfile& dev, Dim3 block, unsigned regs_per_thread,
                           unsigned smem_per_block);

}  // namespace kspec::vgpu
