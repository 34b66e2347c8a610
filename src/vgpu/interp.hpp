// The SIMT interpreter.
//
// Executes a CompiledKernel over a grid of thread blocks, warp by warp, with
// the classic reconvergence-stack treatment of divergent branches: every
// divergent branch carries its structured reconvergence pc (emitted by the
// kcc lowering), the taken side runs first, and the join continuation restores
// the full mask. Early `return` is implemented as lane retirement (the lane is
// removed from the current mask and every stack entry), which handles the
// ubiquitous `if (out_of_range) return;` guard pattern exactly.
//
// Execution engine (DESIGN.md section 8):
//   - Each kernel is pre-decoded once into a DecodedKernel: its vgpu::Cfg
//     blocks with one BlockIssueCost each, and per-pc handler function
//     pointers and static ILP. A warp runs a block the way a native TU's
//     run_warp does: one charge for the whole block at entry (the watchdog
//     counts the block there), the ILP adds in pc order, one indirect call
//     per straight-line instruction, and the block's control rule — so both
//     tiers charge, and stop, at the same points.
//   - Thread blocks are independent, so the grid is partitioned into chunks
//     and executed either serially or across a persistent host worker pool
//     (LaunchConfig::exec, overridable process-wide with VGPU_WORKERS).
//     Chunking depends only on the grid, each chunk folds its own partial
//     counters in block order, and partials merge in chunk order — LaunchStats
//     are bit-identical for any worker count. Global-space atomics execute as
//     real std::atomic RMW on the arena.
//   - Warps within a block are scheduled round-robin between barriers, which
//     makes producer/consumer warp specialization (Section 5.2) deterministic.
#pragma once

#include <memory>
#include <span>

#include "vgpu/device.hpp"
#include "vgpu/launch.hpp"
#include "vgpu/memory.hpp"
#include "vgpu/module.hpp"

namespace kspec::vgpu {

// A CompiledKernel pre-decoded for one device profile: its blocks with their
// issue costs, the handler and ILP rows, and the flag the auto execution
// policy consults. Opaque — produced by DecodeKernel, consumed by
// Interpreter::Launch. Decoding is cheap (one pass over the static code),
// but callers that launch the same kernel repeatedly should cache the result
// (vcuda::Module does).
struct DecodedKernel;

std::shared_ptr<const DecodedKernel> DecodeKernel(const CompiledKernel& kernel,
                                                  const DeviceProfile& dev);

// Process-wide execution-policy override for tests and tools: while set, it
// wins over both VGPU_WORKERS and LaunchConfig::exec. Pass nullptr to clear.
// The pointed-to policy is copied. Not thread-safe against concurrent
// launches — set it from the test main thread between runs.
void SetExecPolicyOverride(const ExecPolicy* policy);

class Interpreter {
 public:
  Interpreter(const DeviceProfile& dev, GlobalMemory* gmem)
      : dev_(dev), gmem_(gmem) {}

  // Runs the kernel to completion and returns the dynamic statistics with the
  // cost model applied. `const_mem` is the module's constant-memory segment.
  // Throws DeviceError on invalid configurations, out-of-bounds accesses,
  // barrier divergence, or the watchdog — including when the failing block ran
  // on a pool worker. The CompiledKernel overload decodes on the fly.
  LaunchStats Launch(const CompiledKernel& kernel, const LaunchConfig& cfg,
                     std::span<const unsigned char> const_mem = {});
  LaunchStats Launch(const DecodedKernel& kernel, const LaunchConfig& cfg,
                     std::span<const unsigned char> const_mem = {});

 private:
  const DeviceProfile& dev_;
  GlobalMemory* gmem_;
};

}  // namespace kspec::vgpu
