#include "vgpu/cost.hpp"

#include <algorithm>
#include <cmath>

#include "support/math.hpp"
#include "support/str.hpp"

namespace kspec::vgpu {

namespace {

double IssueCost(bool fermi, const Instr& i) {
  const bool f64 = i.type == Type::kF64;
  switch (i.op) {
    case Opcode::kMul:
    case Opcode::kMad:
      if (i.type == Type::kI32 || i.type == Type::kU32) return fermi ? 1.0 : 2.0;
      if (f64) return fermi ? 2.0 : 8.0;
      return 1.0;
    case Opcode::kMul24:
      return fermi ? 3.0 : 1.0;
    case Opcode::kDiv:
    case Opcode::kRem:
      if (IsIntType(i.type)) return 16.0;
      return f64 ? 24.0 : 8.0;
    case Opcode::kSqrt:
    case Opcode::kRsqrt:
    case Opcode::kExp:
    case Opcode::kLog:
    case Opcode::kSin:
    case Opcode::kCos:
      return f64 ? 24.0 : 8.0;
    case Opcode::kBarSync:
      return 2.0;
    case Opcode::kAdd:
    case Opcode::kSub:
      if (f64) return fermi ? 2.0 : 8.0;
      return 1.0;
    default:
      return 1.0;
  }
}

}  // namespace

double BlockIssueCost(bool fermi, const std::vector<Instr>& code, const Cfg::Block& block) {
  // Integer-valued, so the sum is exact in any order below 2^53.
  double cost = 0.0;
  for (std::int32_t pc = block.begin; pc < block.end; ++pc) {
    cost += IssueCost(fermi, code[static_cast<std::size_t>(pc)]);
  }
  return cost;
}

void ApplyCostModel(const DeviceProfile& dev, LaunchStats& stats,
                    const CostModelConstants& constants) {
  if (stats.blocks == 0) {
    stats.sim_cycles = 0;
    stats.sim_millis = 0;
    return;
  }

  // How much of the launch lands on the busiest SM (blocks are distributed
  // round-robin).
  const double max_blocks_on_sm =
      static_cast<double>(CeilDiv<unsigned>(stats.blocks, dev.num_sms));
  const double busiest_share = max_blocks_on_sm / static_cast<double>(stats.blocks);

  const double ilp =
      std::clamp(stats.avg_ilp, constants.min_ilp, constants.max_ilp);

  // Latency hiding: resident warps per SM relative to what the pipeline needs.
  const double active_warps = std::max(1u, stats.occupancy.active_warps);
  const double hide = std::min(1.0, active_warps / dev.latency_hiding_warps);

  // Compute pipe: when latency is not hidden by other warps, each issue from a
  // dependent chain stalls ~dependent_latency/ILP cycles.
  const double chain_stall = std::max(0.0, dev.dependent_latency / ilp - 1.0);
  const double compute_inflation = 1.0 + chain_stall * (1.0 - hide);
  const double compute = stats.issue_cycles * compute_inflation;

  // Exposed global-memory latency: charged per global warp-instruction when
  // occupancy is too low, amortized by memory-level parallelism (~ILP).
  const double mem_exposed = static_cast<double>(stats.global_instrs) *
                             constants.memory_latency * (1.0 - hide) / ilp;

  // Compute and memory pipes overlap, but not perfectly: the issue stage is
  // shared, so the shorter pipe still contributes a fraction of its cycles.
  constexpr double kOverlapLeak = 0.15;
  const double a = compute + mem_exposed;
  const double b = stats.memory_cycles;
  const double sm_cycles = (std::max(a, b) + kOverlapLeak * std::min(a, b)) * busiest_share;

  stats.sim_cycles = sm_cycles;
  stats.sim_millis = sm_cycles / (dev.clock_ghz * 1e6);
}

void FoldBlockStats(std::span<const BlockStats> parts, LaunchStats& into) {
  // Fold strictly in chunk-index order: the floating-point sums below are not
  // associative, and this fixed order is what makes LaunchStats bit-identical
  // regardless of which host thread produced which partial.
  std::uint64_t warp_instrs = 0;
  double ilp_sum = 0;
  for (const BlockStats& p : parts) {
    warp_instrs += p.warp_instrs;
    into.lane_instrs += p.lane_instrs;
    into.global_instrs += p.global_instrs;
    into.mem_transactions += p.mem_transactions;
    into.texture_fetches += p.texture_fetches;
    into.shared_conflict_cycles += p.shared_conflict_cycles;
    into.barriers += p.barriers;
    into.issue_cycles += p.issue_cycles;
    into.memory_cycles += p.memory_cycles;
    ilp_sum += p.ilp_sum;
  }
  into.warp_instrs += warp_instrs;
  // Dynamic-instruction-weighted average, not a mean of per-chunk means: each
  // warp issue contributes its pc's static ILP once, so the weight of a chunk
  // is exactly the number of instructions it issued.
  if (warp_instrs > 0 && ilp_sum > 0) {
    into.avg_ilp = ilp_sum / static_cast<double>(warp_instrs);
  }
}

bool StatsBitIdentical(const LaunchStats& a, const LaunchStats& b) {
  return a.warp_instrs == b.warp_instrs && a.lane_instrs == b.lane_instrs &&
         a.global_instrs == b.global_instrs && a.mem_transactions == b.mem_transactions &&
         a.texture_fetches == b.texture_fetches &&
         a.shared_conflict_cycles == b.shared_conflict_cycles && a.barriers == b.barriers &&
         a.issue_cycles == b.issue_cycles && a.memory_cycles == b.memory_cycles &&
         a.avg_ilp == b.avg_ilp && a.blocks == b.blocks &&
         a.threads_per_block == b.threads_per_block && a.regs_per_thread == b.regs_per_thread &&
         a.spilled_regs == b.spilled_regs && a.smem_per_block == b.smem_per_block &&
         a.sim_cycles == b.sim_cycles && a.sim_millis == b.sim_millis;
}

std::string LaunchStats::ToString() const {
  return Format(
      "blocks=%u threads=%u regs=%u smem=%u occ=%.2f (%s) warp_instrs=%llu "
      "tx=%llu ilp=%.2f sim=%.4f ms",
      blocks, threads_per_block, regs_per_thread, smem_per_block, occupancy.occupancy,
      occupancy.limiter, static_cast<unsigned long long>(warp_instrs),
      static_cast<unsigned long long>(mem_transactions), avg_ilp, sim_millis);
}

}  // namespace kspec::vgpu
