// The analytic execution-time model.
//
// The interpreter gathers exact dynamic counts (instruction issues, memory
// transactions after coalescing, bank-conflict cycles); this model turns them
// into simulated time for a device profile. It is intentionally simple but
// captures the performance mechanisms the dissertation's results depend on:
//
//  * dynamic instruction count — specialization removes loop overhead,
//    folded arithmetic, and parameter loads, directly shrinking issue cycles;
//  * occupancy — register usage and shared-memory footprint bound resident
//    warps per SM; too few warps expose pipeline and memory latency;
//  * ILP — register-blocked/unrolled code has more independent instructions
//    per thread, hiding latency even at low occupancy (Section 2.3);
//  * coalescing and bank conflicts — memory-system behaviour feeds the
//    throughput term.
#pragma once

#include "vgpu/device.hpp"
#include "vgpu/isa.hpp"
#include "vgpu/launch.hpp"

namespace kspec::vgpu {

// Issue cost in compute-pipe cycles of one vgpu::Cfg block of `code`, on a
// Fermi-class (cc 2.x) device when `fermi`, else on a cc 1.x one: the sum of
// its instructions' costs in pc order. Device dependent where the
// dissertation calls out generation differences (Section 2.4: the relative
// throughput of `*` and __[u]mul24() inverted between cc 1.3 and cc 2.0;
// double precision rates differ strongly). The one issue charge of every
// execution tier: a warp that enters the block charges it once, so the
// decoder stores it per block and the native emitter bakes it into the
// block's case (both generations' values, selected at run time).
double BlockIssueCost(bool fermi, const std::vector<Instr>& code, const Cfg::Block& block);

// Model constants shared by both device profiles.
struct CostModelConstants {
  double memory_latency = 320.0;  // cycles of exposed global-memory latency
  double min_ilp = 1.0;
  double max_ilp = 8.0;
};

// Fills stats.sim_cycles / stats.sim_millis from the raw counters. `stats`
// must already contain occupancy and configuration fields.
void ApplyCostModel(const DeviceProfile& dev, LaunchStats& stats,
                    const CostModelConstants& constants = {});

}  // namespace kspec::vgpu
