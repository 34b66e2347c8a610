// Launch configuration and per-launch statistics.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "vgpu/device.hpp"
#include "vgpu/types.hpp"

namespace kspec::vgpu {

// How the interpreter maps thread blocks onto host threads.
//
//   kAuto      — parallel when the grid is large enough and the kernel has no
//                global-space atomics (whose *returned* old values are
//                schedule-dependent); serial otherwise.
//   kSerial    — one host thread, the reference schedule.
//   kParallel  — always use the worker pool, even for kernels with global
//                atomics. Integer reductions (atomicAdd/Min/Max) still sum
//                exactly; only the old-value *observations* may differ
//                between runs.
//
// The statistics contract is mode-independent: blocks are partitioned into
// chunks by a rule that depends only on the grid, each chunk accumulates its
// own partial counters in block order, and the partials are folded in chunk
// order — so LaunchStats (including the floating-point cycle sums and
// avg_ilp) are bit-identical for any worker count, serial included.
enum class ExecMode { kAuto, kSerial, kParallel };

struct ExecPolicy {
  ExecMode mode = ExecMode::kAuto;
  unsigned workers = 0;  // 0 = std::thread::hardware_concurrency()
};

struct LaunchConfig {
  Dim3 grid;
  Dim3 block;
  unsigned dynamic_smem_bytes = 0;
  // One 64-bit slot per kernel parameter, encoded per the parameter type.
  std::vector<std::uint64_t> args;
  // Texture slot bindings (indexed by the slot in Instr::target).
  std::vector<TextureBinding> textures;
  // Host execution policy (overridable process-wide via VGPU_WORKERS).
  ExecPolicy exec;
};

// Raw counters collected by the interpreter plus the modeled execution time.
struct LaunchStats {
  // Dynamic counts.
  std::uint64_t warp_instrs = 0;   // warp-level instruction issues
  std::uint64_t lane_instrs = 0;   // per-lane executed operations
  std::uint64_t global_instrs = 0; // warp-level global ld/st issues
  std::uint64_t mem_transactions = 0;
  std::uint64_t texture_fetches = 0;
  std::uint64_t shared_conflict_cycles = 0;
  std::uint64_t barriers = 0;

  // Cost-model inputs.
  double issue_cycles = 0;     // compute-pipe cycles (incl. bank conflicts)
  double memory_cycles = 0;    // memory-throughput cycles
  double avg_ilp = 2.0;        // dynamic-weighted static ILP estimate

  // Configuration echo.
  unsigned blocks = 0;
  unsigned threads_per_block = 0;
  unsigned regs_per_thread = 0;   // after clamping to the device limit
  unsigned spilled_regs = 0;      // registers demoted to local memory
  unsigned smem_per_block = 0;
  Occupancy occupancy;

  // Modeled result.
  double sim_cycles = 0;
  double sim_millis = 0;

  std::string ToString() const;
};

// Folds chunk partials (in index order) into `into`. avg_ilp is the
// dynamic-instruction-weighted average: total ilp_sum / total warp_instrs —
// NOT the mean of per-chunk averages, which would weight a one-instruction
// chunk the same as a million-instruction one. When no ILP metadata was
// recorded (ilp_sum == 0) the default avg_ilp is left untouched.
void FoldBlockStats(std::span<const BlockStats> parts, LaunchStats& into);

// True when every dynamic counter, cycle sum, and modeled result of the two
// stats is bit-identical (doubles compared exactly). The serial-vs-parallel
// determinism contract, as a testable predicate.
bool StatsBitIdentical(const LaunchStats& a, const LaunchStats& b);

}  // namespace kspec::vgpu
