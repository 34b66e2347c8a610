// Unit tests for the vgpu simulator: device profiles, occupancy, memory,
// SIMT divergence/reconvergence, barriers, coalescing and bank-conflict
// accounting, atomics, and the cost model's monotonicities.
#include <gtest/gtest.h>

#include <functional>

#include "support/str.hpp"

#include "kcc/compiler.hpp"
#include "vcuda/vcuda.hpp"
#include "vgpu/cost.hpp"
#include "vgpu/device.hpp"
#include "vgpu/interp.hpp"
#include "vgpu/isa.hpp"
#include "vgpu/memory.hpp"

namespace kspec::vgpu {
namespace {

// ---------------------------------------------------------------------------
// Occupancy (Table 2.1/2.2 rules)
// ---------------------------------------------------------------------------

TEST(Occupancy, WarpLimited) {
  DeviceProfile d = TeslaC1060();
  Occupancy occ = ComputeOccupancy(d, Dim3(128), /*regs=*/8, /*smem=*/256);
  // 128 threads = 4 warps; 32 warps/SM -> 8 blocks, but max_blocks_per_sm = 8.
  EXPECT_EQ(occ.blocks_per_sm, 8u);
  EXPECT_EQ(occ.active_warps, 32u);
  EXPECT_DOUBLE_EQ(occ.occupancy, 1.0);
}

TEST(Occupancy, RegisterLimited) {
  DeviceProfile d = TeslaC1060();  // 16K registers/SM
  Occupancy occ = ComputeOccupancy(d, Dim3(256), /*regs=*/32, /*smem=*/256);
  // 256 threads * 32 regs = 8192 regs/block -> 2 blocks/SM.
  EXPECT_EQ(occ.blocks_per_sm, 2u);
  EXPECT_STREQ(occ.limiter, "registers");
}

TEST(Occupancy, SharedMemoryLimited) {
  DeviceProfile d = TeslaC1060();  // 16 KB shared/SM
  Occupancy occ = ComputeOccupancy(d, Dim3(64), /*regs=*/8, /*smem=*/8192);
  EXPECT_EQ(occ.blocks_per_sm, 2u);
  EXPECT_STREQ(occ.limiter, "shared-mem");
}

TEST(Occupancy, FermiHasMoreHeadroom) {
  Dim3 block(256);
  Occupancy old_gen = ComputeOccupancy(TeslaC1060(), block, 30, 2048);
  Occupancy fermi = ComputeOccupancy(TeslaC2070(), block, 30, 2048);
  EXPECT_GT(fermi.active_warps, old_gen.active_warps);
}

TEST(Occupancy, OverLimitYieldsZero) {
  DeviceProfile d = TeslaC2070();
  EXPECT_EQ(ComputeOccupancy(d, Dim3(2048), 8, 0).blocks_per_sm, 0u);
  EXPECT_EQ(ComputeOccupancy(d, Dim3(64), 200, 0).blocks_per_sm, 0u);
  EXPECT_EQ(ComputeOccupancy(d, Dim3(64), 8, 1 << 20).blocks_per_sm, 0u);
}

// ---------------------------------------------------------------------------
// Global memory
// ---------------------------------------------------------------------------

TEST(Memory, AllocFreeReuse) {
  GlobalMemory mem(1 << 20);
  DevPtr a = mem.Alloc(1000);
  DevPtr b = mem.Alloc(1000);
  EXPECT_NE(a, b);
  mem.Free(a);
  DevPtr c = mem.Alloc(500);  // fits in the freed block
  EXPECT_EQ(c, a);
  EXPECT_THROW(mem.Free(12345), DeviceError);
}

TEST(Memory, BoundsChecked) {
  GlobalMemory mem(4096);
  DevPtr p = mem.Alloc(64);
  std::vector<unsigned char> buf(64);
  EXPECT_NO_THROW(mem.Write(p, buf.data(), 64));
  EXPECT_THROW(mem.Read(buf.data(), 0, 8), DeviceError);  // null guard region
  EXPECT_THROW(mem.Alloc(1 << 20), DeviceError);          // beyond capacity
}

TEST(Memory, RoundTrip) {
  GlobalMemory mem(1 << 16);
  std::vector<float> in = {1.5f, -2.0f, 3.25f};
  DevPtr p = mem.Alloc(in.size() * 4);
  mem.WriteSpan<float>(p, in);
  std::vector<float> out(3);
  mem.ReadSpan<float>(p, out);
  EXPECT_EQ(in, out);
}

// ---------------------------------------------------------------------------
// Execution semantics (via kcc-compiled kernels)
// ---------------------------------------------------------------------------

struct Runner {
  vcuda::Context ctx{TeslaC1060()};

  LaunchStats Run(const std::string& src, const std::string& kernel, Dim3 grid, Dim3 block,
                  const std::function<void(vcuda::ArgPack&, vcuda::Context&)>& bind,
                  std::vector<float>* out = nullptr, DevPtr* out_ptr = nullptr) {
    auto mod = ctx.LoadModule(src, {});
    vcuda::ArgPack args;
    bind(args, ctx);
    auto stats = ctx.Launch(*mod, kernel, grid, block, args);
    if (out && out_ptr) *out = vcuda::Download<float>(ctx, *out_ptr, out->size());
    return stats;
  }
};

TEST(Simt, NestedDivergenceReconverges) {
  Runner r;
  const char* src = R"(
__kernel void f(float* o) {
  unsigned int t = threadIdx.x;
  float v = 0.0f;
  if (t < 16u) {
    if (t < 8u) { v = 1.0f; } else { v = 2.0f; }
  } else {
    if (t % 2u == 0u) { v = 3.0f; }
    else { v = 4.0f; }
  }
  o[t] = v + 10.0f;  // executed by ALL threads after reconvergence
}
)";
  DevPtr out_ptr = 0;
  std::vector<float> out(32);
  r.Run(src, "f", Dim3(1), Dim3(32),
        [&](vcuda::ArgPack& a, vcuda::Context& c) {
          out_ptr = c.Malloc(32 * 4);
          a.Ptr(out_ptr);
        },
        &out, &out_ptr);
  for (unsigned t = 0; t < 32; ++t) {
    float expect = t < 8 ? 11.0f : t < 16 ? 12.0f : (t % 2 == 0 ? 13.0f : 14.0f);
    EXPECT_FLOAT_EQ(out[t], expect) << t;
  }
}

TEST(Simt, EarlyReturnRetiresLanes) {
  Runner r;
  const char* src = R"(
__kernel void f(float* o, int n) {
  int t = (int)threadIdx.x;
  if (t >= n) {
    return;
  }
  o[t] = 5.0f;
}
)";
  DevPtr out_ptr = 0;
  std::vector<float> out(32);
  r.Run(src, "f", Dim3(1), Dim3(32),
        [&](vcuda::ArgPack& a, vcuda::Context& c) {
          out_ptr = c.Malloc(32 * 4);
          c.Memset(out_ptr, 0, 32 * 4);
          a.Ptr(out_ptr).Int(10);
        },
        &out, &out_ptr);
  for (int t = 0; t < 32; ++t) EXPECT_FLOAT_EQ(out[t], t < 10 ? 5.0f : 0.0f) << t;
}

TEST(Simt, LoopTripCountVariesPerLane) {
  Runner r;
  const char* src = R"(
__kernel void f(float* o) {
  int t = (int)threadIdx.x;
  float acc = 0.0f;
  for (int i = 0; i < t; i++) { acc += 1.0f; }
  o[t] = acc;
}
)";
  DevPtr out_ptr = 0;
  std::vector<float> out(32);
  r.Run(src, "f", Dim3(1), Dim3(32),
        [&](vcuda::ArgPack& a, vcuda::Context& c) {
          out_ptr = c.Malloc(32 * 4);
          a.Ptr(out_ptr);
        },
        &out, &out_ptr);
  for (int t = 0; t < 32; ++t) EXPECT_FLOAT_EQ(out[t], static_cast<float>(t)) << t;
}

TEST(Simt, BarrierCoordinatesWarps) {
  Runner r;
  // 64 threads = 2 warps; warp 1 reads what warp 0 wrote before the barrier.
  const char* src = R"(
__kernel void f(float* o) {
  __shared float s[64];
  unsigned int t = threadIdx.x;
  s[t] = (float)t;
  __syncthreads();
  o[t] = s[63u - t];
}
)";
  DevPtr out_ptr = 0;
  std::vector<float> out(64);
  auto stats = r.Run(src, "f", Dim3(1), Dim3(64),
                     [&](vcuda::ArgPack& a, vcuda::Context& c) {
                       out_ptr = c.Malloc(64 * 4);
                       a.Ptr(out_ptr);
                     },
                     &out, &out_ptr);
  for (unsigned t = 0; t < 64; ++t) EXPECT_FLOAT_EQ(out[t], static_cast<float>(63 - t));
  EXPECT_EQ(stats.barriers, 1u);
}

TEST(Simt, DivergentBarrierIsAnError) {
  Runner r;
  const char* src = R"(
__kernel void f(float* o) {
  __shared float s[32];
  unsigned int t = threadIdx.x;
  if (t < 16u) {
    s[t] = 1.0f;
    __syncthreads();
  }
  o[t] = 0.0f;
}
)";
  EXPECT_THROW(r.Run(src, "f", Dim3(1), Dim3(32),
                     [&](vcuda::ArgPack& a, vcuda::Context& c) { a.Ptr(c.Malloc(32 * 4)); }),
               DeviceError);
}

TEST(Simt, AtomicsAccumulateAcrossBlocks) {
  Runner r;
  const char* src = R"(
__kernel void f(float* o, int* counter) {
  atomicAdd(o, 1.0f);
  atomicMax(counter, (int)threadIdx.x);
}
)";
  DevPtr sum_ptr = 0, max_ptr = 0;
  r.Run(src, "f", Dim3(4), Dim3(32), [&](vcuda::ArgPack& a, vcuda::Context& c) {
    sum_ptr = c.Malloc(4);
    max_ptr = c.Malloc(4);
    c.Memset(sum_ptr, 0, 4);
    c.Memset(max_ptr, 0, 4);
    a.Ptr(sum_ptr).Ptr(max_ptr);
  });
  float sum = vcuda::Download<float>(r.ctx, sum_ptr, 1)[0];
  int max_tid = vcuda::Download<int>(r.ctx, max_ptr, 1)[0];
  EXPECT_FLOAT_EQ(sum, 128.0f);
  EXPECT_EQ(max_tid, 31);
}

TEST(Simt, OutOfBoundsLoadDiagnosed) {
  Runner r;
  const char* src = R"(
__kernel void f(float* o) {
  o[1000000] = 1.0f;
}
)";
  EXPECT_THROW(r.Run(src, "f", Dim3(1), Dim3(1),
                     [&](vcuda::ArgPack& a, vcuda::Context& c) { a.Ptr(c.Malloc(64)); }),
               DeviceError);
}

// ---------------------------------------------------------------------------
// Memory-system accounting
// ---------------------------------------------------------------------------

LaunchStats RunAccessPattern(const char* src, const DeviceProfile& dev) {
  vcuda::Context ctx(dev);
  auto mod = ctx.LoadModule(src, {});
  auto buf = ctx.Malloc(1 << 16);
  vcuda::ArgPack args;
  args.Ptr(buf);
  return ctx.Launch(*mod, "f", Dim3(1), Dim3(32), args);
}

TEST(MemorySystem, CoalescedVsStridedTransactions) {
  const char* coalesced = R"(
__kernel void f(float* p) {
  unsigned int t = threadIdx.x;
  p[t] = 1.0f;
}
)";
  const char* strided = R"(
__kernel void f(float* p) {
  unsigned int t = threadIdx.x;
  p[t * 32u] = 1.0f;
}
)";
  auto c = RunAccessPattern(coalesced, TeslaC1060());
  auto s = RunAccessPattern(strided, TeslaC1060());
  EXPECT_LT(c.mem_transactions, s.mem_transactions);
  // 32 consecutive floats = 128 bytes: one segment per half-warp on cc1.x.
  EXPECT_EQ(c.mem_transactions, 2u);
  EXPECT_EQ(s.mem_transactions, 32u);

  // Fermi coalesces the full warp through one cache line.
  auto c2 = RunAccessPattern(coalesced, TeslaC2070());
  EXPECT_EQ(c2.mem_transactions, 1u);
}

TEST(MemorySystem, SharedBankConflictsCounted) {
  const char* conflict_free = R"(
__kernel void f(float* p) {
  __shared float s[1024];
  unsigned int t = threadIdx.x;
  s[t] = 1.0f;
  p[t] = s[t];
}
)";
  const char* conflicted = R"(
__kernel void f(float* p) {
  __shared float s[1024];
  unsigned int t = threadIdx.x;
  s[t * 16u] = 1.0f;   // 16-way conflict on a 16-bank device
  p[t] = s[t * 16u];
}
)";
  auto free_stats = RunAccessPattern(conflict_free, TeslaC1060());
  auto conf_stats = RunAccessPattern(conflicted, TeslaC1060());
  EXPECT_EQ(free_stats.shared_conflict_cycles, 0u);
  EXPECT_GT(conf_stats.shared_conflict_cycles, 20u);
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

LaunchStats BaseStats() {
  LaunchStats s;
  s.blocks = 60;
  s.threads_per_block = 128;
  s.warp_instrs = 100000;
  s.issue_cycles = 100000;
  s.memory_cycles = 40000;
  s.global_instrs = 5000;
  s.avg_ilp = 2.0;
  s.occupancy = ComputeOccupancy(TeslaC1060(), Dim3(128), 16, 1024);
  return s;
}

TEST(CostModel, MoreIssueCyclesCostMore) {
  DeviceProfile d = TeslaC1060();
  LaunchStats a = BaseStats();
  LaunchStats b = BaseStats();
  b.issue_cycles *= 2;
  ApplyCostModel(d, a);
  ApplyCostModel(d, b);
  EXPECT_GT(b.sim_millis, a.sim_millis);
}

TEST(CostModel, LowerOccupancyCostsMore) {
  DeviceProfile d = TeslaC1060();
  LaunchStats a = BaseStats();
  LaunchStats b = BaseStats();
  b.occupancy = ComputeOccupancy(d, Dim3(128), 60, 1024);  // register-starved
  ApplyCostModel(d, a);
  ApplyCostModel(d, b);
  EXPECT_LT(b.occupancy.active_warps, a.occupancy.active_warps);
  EXPECT_GT(b.sim_millis, a.sim_millis);
}

TEST(CostModel, HigherIlpHidesLatencyAtLowOccupancy) {
  DeviceProfile d = TeslaC1060();
  LaunchStats a = BaseStats();
  a.occupancy = ComputeOccupancy(d, Dim3(64), 60, 1024);
  LaunchStats b = a;
  b.avg_ilp = 6.0;
  ApplyCostModel(d, a);
  ApplyCostModel(d, b);
  EXPECT_LT(b.sim_millis, a.sim_millis);
}

TEST(CostModel, DeterministicAcrossCalls) {
  DeviceProfile d = TeslaC2070();
  LaunchStats a = BaseStats();
  LaunchStats b = BaseStats();
  ApplyCostModel(d, a);
  ApplyCostModel(d, b);
  EXPECT_DOUBLE_EQ(a.sim_millis, b.sim_millis);
}


TEST(Simt, DynamicSharedMemory) {
  // extern __shared__: the array is sized by the launch configuration and
  // based after any static shared arrays.
  vcuda::Context ctx(TeslaC1060());
  const char* src = R"(
__kernel void f(float* o, int n) {
  __shared float fixed[8];
  extern __shared float dyn[];
  unsigned int t = threadIdx.x;
  fixed[t % 8u] = 1.0f;
  dyn[t] = (float)t * 2.0f;
  __syncthreads();
  o[t] = dyn[(unsigned int)(n - 1) - t] + fixed[t % 8u];
}
)";
  auto mod = ctx.LoadModule(src, {});
  const unsigned n = 32;
  auto d_out = ctx.Malloc(n * 4);
  vcuda::ArgPack args;
  args.Ptr(d_out).Int(static_cast<int>(n));
  // Launch with n floats of dynamic shared memory.
  auto stats = ctx.Launch(*mod, "f", Dim3(1), Dim3(n), args, n * 4);
  EXPECT_EQ(stats.smem_per_block, mod->GetKernel("f").static_smem_bytes + n * 4);
  auto out = vcuda::Download<float>(ctx, d_out, n);
  for (unsigned t = 0; t < n; ++t) {
    EXPECT_FLOAT_EQ(out[t], 2.0f * (n - 1 - t) + 1.0f) << t;
  }
}

TEST(Simt, DynamicSharedOutOfBoundsCaught) {
  vcuda::Context ctx(TeslaC1060());
  const char* src = R"(
__kernel void f(float* o) {
  extern __shared float dyn[];
  dyn[threadIdx.x] = 1.0f;
  o[threadIdx.x] = dyn[threadIdx.x];
}
)";
  auto mod = ctx.LoadModule(src, {});
  auto d_out = ctx.Malloc(32 * 4);
  vcuda::ArgPack args;
  args.Ptr(d_out);
  // Only 16 floats of dynamic shared for 32 threads: lanes 16+ go OOB.
  EXPECT_THROW(ctx.Launch(*mod, "f", Dim3(1), Dim3(32), args, 16 * 4), DeviceError);
}


TEST(Simt, WatchdogKillsRunawayKernels) {
  DeviceProfile dev = TeslaC1060();
  dev.watchdog_warp_instrs = 10000;  // tiny budget
  vcuda::Context ctx(dev);
  const char* src = R"(
__kernel void f(float* o, int n) {
  float acc = 0.0f;
  unsigned int i = 0u;
  while (i < (unsigned int)n) {
    acc += 1.0f;
    // The "increment" never fires for n == 0x7fffffff lanes... emulate a
    // stuck loop by a condition the data keeps true.
    i = i + (unsigned int)(n > 100000000 ? 0 : 1);
  }
  o[threadIdx.x] = acc;
}
)";
  auto mod = ctx.LoadModule(src, {});
  auto d_out = ctx.Malloc(32 * 4);
  vcuda::ArgPack args;
  args.Ptr(d_out).Int(2000000000);  // i never advances
  try {
    ctx.Launch(*mod, "f", Dim3(1), Dim3(32), args);
    FAIL() << "watchdog should have fired";
  } catch (const DeviceError& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos);
  }
}


TEST(Simt, RegisterSpillingRunsCorrectlyButSlower) {
  // 100 accumulators exceed the VC2070's 63-register limit: the kernel must
  // still produce correct results, report spills, and model slower than a
  // fitting variant doing the same per-register work.
  auto make_src = [](int n) {
    // Loads (not foldable) held live across the whole second loop force a
    // peak register demand of ~n.
    return Format(R"(
__kernel void f(float* in, float* out) {
  unsigned int t = threadIdx.x;
  float acc[%d];
  for (int k = 0; k < %d; k++) { acc[k] = in[t + (unsigned int)k * 32u]; }
  float total = 0.0f;
  for (int k = 0; k < %d; k++) { total += acc[k]; }
  out[t] = total;
}
)", n, n, n);
  };
  vcuda::Context ctx(TeslaC2070());
  std::vector<float> input(32 * 128, 1.0f);
  auto d_in = vcuda::Upload<float>(ctx, std::span<const float>(input));
  auto run = [&](int n) {
    auto mod = ctx.LoadModule(make_src(n), {});
    auto d = ctx.Malloc(32 * 4);
    vcuda::ArgPack args;
    args.Ptr(d_in).Ptr(d);
    auto stats = ctx.Launch(*mod, "f", Dim3(1), Dim3(32), args);
    float v = vcuda::Download<float>(ctx, d, 1)[0];
    ctx.Free(d);
    return std::pair<LaunchStats, float>(stats, v);
  };
  auto [big_stats, big_v] = run(100);
  EXPECT_FLOAT_EQ(big_v, 100.0f);
  EXPECT_GT(big_stats.spilled_regs, 0u);
  EXPECT_EQ(big_stats.regs_per_thread, TeslaC2070().max_regs_per_thread);

  auto [small_stats, small_v] = run(8);
  EXPECT_FLOAT_EQ(small_v, 8.0f);
  EXPECT_EQ(small_stats.spilled_regs, 0u);
  // Per warp-instruction, the spilled kernel pays more.
  double big_per = big_stats.sim_millis / static_cast<double>(big_stats.warp_instrs);
  double small_per = small_stats.sim_millis / static_cast<double>(small_stats.warp_instrs);
  EXPECT_GT(big_per, small_per);
}

// ---------------------------------------------------------------------------
// Control-flow graph
// ---------------------------------------------------------------------------

// The block rule every consumer reads: blocks start at pc 0, at in-range
// branch targets and reconvergence pcs, and after bra, bra.pred, bar.sync and
// exit; a target past the last instruction has no block.
TEST(Cfg, LeadersAndSuccessors) {
  auto alu = [](int r) {
    return Instr::Make(Opcode::kAdd, Type::kI32, r, Operand::Reg(r), Operand::Imm(1));
  };
  auto bra = [](int target) {
    Instr i = Instr::Make(Opcode::kBra, Type::kI32, -1);
    i.target = target;
    return i;
  };
  auto bra_pred = [](int target, int reconv) {
    Instr i = Instr::Make(Opcode::kBraPred, Type::kPred, -1, Operand::Reg(0));
    i.target = target;
    i.reconv = reconv;
    return i;
  };
  const std::vector<Instr> code = {
      alu(1),            // 0  block 0
      bra_pred(4, 7),    // 1
      alu(1),            // 2  block 1: after a bra.pred
      bra(7),            // 3
      alu(1),            // 4  block 2: a branch target
      Instr::Make(Opcode::kBarSync, Type::kI32, -1),  // 5
      alu(1),            // 6  block 3: after a bar.sync only
      alu(1),            // 7  block 4: a reconvergence pc and a branch target
      bra_pred(20, 10),  // 8  the target is past the end
      Instr::Make(Opcode::kExit, Type::kI32, -1),  // 9  block 5
      alu(1),            // 10 block 6: a reconvergence pc; falls off the end
  };
  const Cfg cfg(code);
  struct Want {
    int begin, end;
    bool jump_entry;
    std::vector<int> succs;
  };
  const std::vector<Want> want = {
      {0, 2, false, {2, 1}}, {2, 4, false, {4}}, {4, 6, true, {3}}, {6, 7, false, {4}},
      {7, 9, true, {5}},     {9, 10, false, {}}, {10, 11, true, {}},
  };
  ASSERT_EQ(cfg.size(), static_cast<int>(want.size()));
  for (int b = 0; b < cfg.size(); ++b) {
    SCOPED_TRACE(b);
    EXPECT_EQ(cfg[b].begin, want[b].begin);
    EXPECT_EQ(cfg[b].end, want[b].end);
    EXPECT_EQ(cfg[b].jump_entry, want[b].jump_entry);
    const auto succs = cfg[b].succs();
    EXPECT_EQ(std::vector<int>(succs.begin(), succs.end()), want[b].succs);
    for (int pc = cfg[b].begin; pc < cfg[b].end; ++pc) EXPECT_EQ(cfg.block_of(pc), b);
  }
  EXPECT_EQ(Cfg({}).size(), 0);
}

// Block liveness, the one analysis kcc's register allocator and the native
// emitter's fused lane runs read: a loop whose back edge keeps its counter
// and bound live, a vreg dead after its last use, and a divergent if/else
// whose two sides each define the value the join reads.
TEST(Liveness, LoopBackEdgeDeadAfterLastUseAndIfElse) {
  auto R = [](int r) { return Operand::Reg(r); };
  auto I = [](std::uint64_t v) { return Operand::Imm(v); };
  auto setp = [](CmpOp cmp, int p, Operand a, Operand b) {
    Instr i = Instr::Make(Opcode::kSetp, Type::kU32, p, a, b);
    i.cmp = cmp;
    return i;
  };
  auto bra_pred = [](int p, int target, int reconv) {
    Instr i = Instr::Make(Opcode::kBraPred, Type::kPred, -1, Operand::Reg(p));
    i.target = target;
    i.reconv = reconv;
    return i;
  };
  Instr bra = Instr::Make(Opcode::kBra, Type::kI32, -1);
  bra.target = 10;
  const std::vector<Instr> code = {
      Instr::Make(Opcode::kMov, Type::kU32, 1, I(0)),         // 0  block 0
      Instr::Make(Opcode::kMov, Type::kU32, 2, I(10)),        // 1
      Instr::Make(Opcode::kAdd, Type::kU32, 1, R(1), I(1)),   // 2  block 1: loop body
      setp(CmpOp::kLt, 3, R(1), R(2)),                        // 3  r2's last use
      bra_pred(3, 2, 5),                                      // 4  the back edge
      setp(CmpOp::kEq, 4, R(1), I(10)),                       // 5  block 2: r1's last use
      bra_pred(4, 9, 10),                                     // 6
      Instr::Make(Opcode::kMov, Type::kU32, 5, I(1)),         // 7  block 3: else
      bra,                                                    // 8
      Instr::Make(Opcode::kMov, Type::kU32, 5, I(2)),         // 9  block 4: then
      Instr::Make(Opcode::kSt, Type::kU32, -1, R(0), I(0), R(5)),  // 10 block 5: the join
      Instr::Make(Opcode::kExit, Type::kI32, -1),             // 11
  };
  const Cfg cfg(code);
  ASSERT_EQ(cfg.size(), 6);
  const Liveness live(code, cfg);
  EXPECT_EQ(live.num_regs(), 6u);
  struct Want {
    std::vector<int> in, out;
  };
  const std::vector<Want> want = {
      {{0}, {0, 1, 2}},        // r1 and r2 enter the loop
      {{0, 1, 2}, {0, 1, 2}},  // the back edge keeps r1 and r2 live through the body
      {{0, 1}, {0}},           // r2 is dead after the loop; r1 after pc 5
      {{0}, {0, 5}},           // each side defines r5 for the join
      {{0}, {0, 5}},
      {{0, 5}, {}},            // nothing is live after exit
  };
  for (int b = 0; b < cfg.size(); ++b) {
    SCOPED_TRACE(b);
    EXPECT_EQ(live.live_in(b), want[b].in);
    EXPECT_EQ(live.live_out(b), want[b].out);
  }
}

}  // namespace
}  // namespace kspec::vgpu
