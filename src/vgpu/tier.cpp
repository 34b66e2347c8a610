#include "vgpu/tier.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "support/math.hpp"
#include "support/status.hpp"
#include "support/str.hpp"
#include "vgpu/cost.hpp"
#include "vgpu/exec_pool.hpp"

namespace kspec::vgpu {

namespace {

ExecutionTier g_tier_override = ExecutionTier::kAuto;
std::atomic<bool> g_has_tier_override{false};

ExecPolicy g_policy_override;
std::atomic<bool> g_has_policy_override{false};

ShapeMode g_shape_override = ShapeMode::kAuto;
std::atomic<bool> g_has_shape_override{false};

// VGPU_WORKERS: 1 = force serial, N > 1 = force parallel with N workers,
// 0/unset/garbage = no override. Parsed once.
const ExecPolicy& EnvPolicy() {
  static const ExecPolicy env = [] {
    ExecPolicy p;  // workers == 0 doubles as the "not set" sentinel
    if (const char* s = std::getenv("VGPU_WORKERS"); s && *s) {
      const long v = std::strtol(s, nullptr, 10);
      if (v == 1) {
        p.mode = ExecMode::kSerial;
        p.workers = 1;
      } else if (v > 1) {
        p.mode = ExecMode::kParallel;
        p.workers = static_cast<unsigned>(v);
      }
    }
    return p;
  }();
  return env;
}

}  // namespace

const char* TierName(ExecutionTier tier) {
  switch (tier) {
    case ExecutionTier::kAuto: return "auto";
    case ExecutionTier::kInterp: return "interp";
    case ExecutionTier::kDecoded: return "decoded";
    case ExecutionTier::kNative: return "native";
  }
  return "?";
}

bool ParseTier(std::string_view text, ExecutionTier* out) {
  if (text == "auto") *out = ExecutionTier::kAuto;
  else if (text == "interp") *out = ExecutionTier::kInterp;
  else if (text == "decoded") *out = ExecutionTier::kDecoded;
  else if (text == "native") *out = ExecutionTier::kNative;
  else return false;
  return true;
}

ExecutionTier EnvTier() {
  static const ExecutionTier env = [] {
    ExecutionTier t = ExecutionTier::kAuto;  // kAuto doubles as "not set"
    if (const char* s = std::getenv("VGPU_TIER"); s && *s) ParseTier(s, &t);
    return t;
  }();
  return env;
}

const char* ShapeModeName(ShapeMode mode) {
  switch (mode) {
    case ShapeMode::kOff: return "off";
    case ShapeMode::kAuto: return "auto";
    case ShapeMode::kEager: return "eager";
  }
  return "?";
}

bool ParseShapeMode(std::string_view text, ShapeMode* out) {
  if (text == "off") *out = ShapeMode::kOff;
  else if (text == "auto") *out = ShapeMode::kAuto;
  else if (text == "eager") *out = ShapeMode::kEager;
  else return false;
  return true;
}

ShapeMode EnvShapeMode() {
  static const ShapeMode env = [] {
    ShapeMode m = ShapeMode::kAuto;  // kAuto doubles as "not set"
    if (const char* s = std::getenv("KSPEC_NATIVE_SHAPE"); s && *s) ParseShapeMode(s, &m);
    return m;
  }();
  return env;
}

void SetShapeModeOverride(const ShapeMode* mode) {
  if (mode) {
    g_shape_override = *mode;
    g_has_shape_override.store(true, std::memory_order_release);
  } else {
    g_has_shape_override.store(false, std::memory_order_release);
  }
}

ShapeMode ResolveShapeMode(ShapeMode fallback) {
  if (g_has_shape_override.load(std::memory_order_acquire)) return g_shape_override;
  if (EnvShapeMode() != ShapeMode::kAuto) return EnvShapeMode();
  return fallback;
}

void SetTierOverride(const ExecutionTier* tier) {
  if (tier) {
    g_tier_override = *tier;
    g_has_tier_override.store(true, std::memory_order_release);
  } else {
    g_has_tier_override.store(false, std::memory_order_release);
  }
}

ExecutionTier ResolveTier(ExecutionTier request, ExecutionTier context_default) {
  if (g_has_tier_override.load(std::memory_order_acquire)) return g_tier_override;
  if (EnvTier() != ExecutionTier::kAuto) return EnvTier();
  if (request != ExecutionTier::kAuto) return request;
  return context_default;
}

void SetExecPolicyOverride(const ExecPolicy* policy) {
  if (policy) {
    g_policy_override = *policy;
    g_has_policy_override.store(true, std::memory_order_release);
  } else {
    g_has_policy_override.store(false, std::memory_order_release);
  }
}

ExecPolicy ResolveExecPolicy(const ExecPolicy& requested) {
  ExecPolicy pol = requested;
  if (EnvPolicy().workers > 0) pol = EnvPolicy();
  if (g_has_policy_override.load(std::memory_order_acquire)) pol = g_policy_override;
  return pol;
}

bool HasGlobalAtomic(const std::vector<Instr>& code) {
  return std::any_of(code.begin(), code.end(), [](const Instr& i) {
    return IsAtomicOp(i.op) && i.space == Space::kGlobal;
  });
}

LaunchShell PrepareLaunch(const DeviceProfile& dev, const LaunchConfig& cfg,
                          int reg_count, unsigned static_smem_bytes,
                          bool has_global_atomic) {
  if (cfg.block.Count() == 0 || cfg.grid.Count() == 0) {
    throw DeviceError("empty grid or block");
  }
  if (cfg.block.Count() > dev.max_threads_per_block) {
    throw DeviceError(Format("block of %llu threads exceeds device limit %u",
                             cfg.block.Count(), dev.max_threads_per_block));
  }
  const unsigned smem = static_smem_bytes + cfg.dynamic_smem_bytes;
  if (smem > dev.shared_mem_per_sm) {
    throw DeviceError(Format("shared memory per block %u exceeds device limit %u", smem,
                             dev.shared_mem_per_sm));
  }

  LaunchShell shell;
  // Register demand beyond the device limit spills to local memory, exactly
  // as nvcc would: the kernel still runs, but every spilled value pays
  // memory traffic (and the clamped count is what occupancy sees).
  shell.wanted_regs = std::max(reg_count, 1);
  unsigned regs = shell.wanted_regs;
  if (regs > dev.max_regs_per_thread) {
    shell.spilled = regs - dev.max_regs_per_thread;
    regs = dev.max_regs_per_thread;
  }

  shell.stats.spilled_regs = shell.spilled;
  shell.stats.blocks = static_cast<unsigned>(cfg.grid.Count());
  shell.stats.threads_per_block = static_cast<unsigned>(cfg.block.Count());
  shell.stats.regs_per_thread = regs;
  shell.stats.smem_per_block = smem;
  shell.stats.occupancy = ComputeOccupancy(dev, cfg.block, regs, smem);
  if (shell.stats.occupancy.blocks_per_sm == 0) {
    throw DeviceError(Format("kernel cannot be launched: zero occupancy (limited by %s)",
                             shell.stats.occupancy.limiter));
  }

  shell.consts.is_fermi = dev.IsFermi() ? 1 : 0;
  shell.consts.warp_size = dev.warp_size;
  shell.consts.shared_mem_banks = dev.shared_mem_banks;
  shell.consts.cycles_per_global_tx = dev.cycles_per_global_tx;
  shell.consts.shared_access_cost = dev.shared_access_cost;
  shell.consts.watchdog_warp_instrs = dev.watchdog_warp_instrs;

  BlockLayout& lay = shell.layout;
  lay.nthreads = static_cast<unsigned>(cfg.block.Count());
  lay.nwarps = CeilDiv(lay.nthreads, dev.warp_size);
  lay.stride = lay.nwarps * dev.warp_size;
  lay.tid_x.resize(lay.stride);
  lay.tid_y.resize(lay.stride);
  lay.tid_z.resize(lay.stride);
  for (unsigned t = 0; t < lay.stride; ++t) {
    const unsigned lin = std::min(t, lay.nthreads - 1);
    lay.tid_x[t] = lin % cfg.block.x;
    lay.tid_y[t] = (lin / cfg.block.x) % cfg.block.y;
    lay.tid_z[t] = lin / (cfg.block.x * cfg.block.y);
  }

  const ExecPolicy pol = ResolveExecPolicy(cfg.exec);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  shell.workers = pol.workers > 0 ? pol.workers : hw;
  shell.nblocks = cfg.grid.Count();
  switch (pol.mode) {
    case ExecMode::kSerial:
      break;
    case ExecMode::kParallel:
      shell.parallel = shell.workers > 1 && shell.nblocks > 1;
      break;
    case ExecMode::kAuto:
      // Global atomics return schedule-dependent old values; keep those
      // kernels on the reference serial schedule unless parallelism is
      // requested explicitly.
      shell.parallel = shell.workers > 1 && shell.nblocks >= 4 && !has_global_atomic;
      break;
  }

  // Chunking depends only on the grid — never on the worker count or mode —
  // so the per-chunk partial stats and their fold order are invariant.
  shell.chunk =
      CeilDiv<std::uint64_t>(shell.nblocks, std::min<std::uint64_t>(shell.nblocks, 256));
  shell.nparts = static_cast<std::size_t>(CeilDiv<std::uint64_t>(shell.nblocks, shell.chunk));
  return shell;
}

namespace {

// Linear block index -> CTA coordinates, row-major in x then y then z.
Dim3 LinearToCta(const Dim3& grid, std::uint64_t b) {
  return Dim3(static_cast<unsigned>(b % grid.x),
              static_cast<unsigned>((b / grid.x) % grid.y),
              static_cast<unsigned>(b / (static_cast<std::uint64_t>(grid.x) * grid.y)));
}

}  // namespace

LaunchStats ExecuteLaunch(const DeviceProfile& dev, LaunchShell& shell, const Dim3& grid,
                          const std::function<std::unique_ptr<BlockExecutor>()>& make_executor) {
  std::vector<BlockStats> parts(shell.nparts);
  auto run_chunk = [&](BlockExecutor& ex, std::size_t ci) {
    // Accumulate on the running thread's stack: neighbouring partials share
    // cache lines, and the memory charges update the partial per instruction.
    BlockStats part;
    const std::uint64_t b0 = static_cast<std::uint64_t>(ci) * shell.chunk;
    const std::uint64_t b1 = std::min<std::uint64_t>(shell.nblocks, b0 + shell.chunk);
    for (std::uint64_t b = b0; b < b1; ++b) ex.RunBlock(LinearToCta(grid, b), part);
    parts[ci] = part;
  };

  if (!shell.parallel) {
    std::unique_ptr<BlockExecutor> ex = make_executor();
    for (std::size_t ci = 0; ci < shell.nparts; ++ci) run_chunk(*ex, ci);
  } else {
    // Per-worker executors come from a free list so the pool reuses their
    // register files and shared-memory arrays across chunks.
    std::mutex mu;
    std::vector<std::unique_ptr<BlockExecutor>> idle;
    std::function<void(std::size_t)> fn = [&](std::size_t ci) {
      std::unique_ptr<BlockExecutor> ex;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (!idle.empty()) {
          ex = std::move(idle.back());
          idle.pop_back();
        }
      }
      if (!ex) ex = make_executor();
      run_chunk(*ex, ci);
      std::lock_guard<std::mutex> lk(mu);
      idle.push_back(std::move(ex));
    };
    ExecPool::Instance().ParallelFor(shell.workers, shell.nparts, fn);
  }

  FoldBlockStats(parts, shell.stats);
  if (shell.spilled > 0) {
    // Approximate spill traffic: the fraction of values living in local
    // memory forces a load+store round trip on roughly that fraction of
    // instructions (local accesses coalesce, so charge throughput cost).
    double spill_frac = std::min(1.0, 2.0 * static_cast<double>(shell.spilled) /
                                          static_cast<double>(shell.wanted_regs));
    shell.stats.memory_cycles += static_cast<double>(shell.stats.warp_instrs) * spill_frac *
                                 0.5 * dev.cycles_per_global_tx;
  }
  ApplyCostModel(dev, shell.stats);
  return shell.stats;
}

void RaiseFault(void* site, int code, std::uint64_t a, std::uint64_t b) {
  const FaultSite& fs = *static_cast<const FaultSite*>(site);
  switch (static_cast<Fault>(code)) {
    case Fault::kSharedOob:
      throw DeviceError(Format("shared-memory access out of bounds: 0x%llx (+%zu) of %zu bytes",
                               static_cast<unsigned long long>(a),
                               static_cast<std::size_t>(b), fs.shared_bytes));
    case Fault::kConstOob:
      throw DeviceError(Format("constant-memory access out of bounds: 0x%llx of %zu bytes",
                               static_cast<unsigned long long>(a), fs.const_bytes));
    case Fault::kConstStore:
      throw DeviceError("store to constant memory");
    case Fault::kBadSpace:
      throw DeviceError("unsupported memory space in ld/st");
    case Fault::kMisalignedAtomic:
      throw DeviceError(Format("misaligned %zu-byte atomic at 0x%llx",
                               static_cast<std::size_t>(a),
                               static_cast<unsigned long long>(b)));
    case Fault::kTexUnbound:
      throw DeviceError(Format("texture slot %d is not bound at launch",
                               static_cast<int>(static_cast<std::int64_t>(a))));
    case Fault::kTexInvalid:
      throw DeviceError(Format("texture slot %d has an invalid binding",
                               static_cast<int>(static_cast<std::int64_t>(a))));
    case Fault::kDivergentBarrier:
      throw DeviceError("__syncthreads() executed in divergent control flow");
    case Fault::kWatchdog:
      throw DeviceError(
          "kernel exceeded the simulator watchdog limit (likely a non-terminating loop); raise "
          "DeviceProfile::watchdog_warp_instrs if the workload is legitimately huge");
    case Fault::kBadOp: {
      const Instr& i = (*fs.code)[static_cast<std::size_t>(a)];
      if (IsFloatType(i.type)) {
        throw InternalError(Format("op %s invalid for %s", OpcodeName(i.op), TypeName(i.type)));
      }
      throw InternalError(
          Format("unhandled opcode %s for type %s", OpcodeName(i.op), TypeName(i.type)));
    }
    case Fault::kBadDispatch:
      throw InternalError(Format("native tier: branch to non-leader pc %llu",
                                 static_cast<unsigned long long>(a)));
    case Fault::kBadAtomic:
      throw InternalError("bad atomic opcode");
    case Fault::kNoReconv:
      throw InternalError("divergent branch without reconvergence point");
  }
  throw InternalError(Format("unknown kernel fault code %d", code));
}

}  // namespace kspec::vgpu
