// Tests for the kcc middle/back end: constant folding, loop unrolling,
// scalarization, strength reduction, DCE/CSE, register accounting, and the
// MiniPTX structure of compiled kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <set>

#include "apps/backproj/gpu.hpp"
#include "apps/backproj/problem.hpp"
#include "apps/matching/gpu.hpp"
#include "apps/matching/problem.hpp"
#include "apps/piv/gpu.hpp"
#include "apps/piv/problem.hpp"
#include "apps/rowfilter/rowfilter.hpp"
#include "kcc/compiler.hpp"
#include "kcc/passes.hpp"
#include "kcc/serialize.hpp"
#include "support/serialize.hpp"
#include "support/status.hpp"
#include "support/str.hpp"
#include "support/temp_dir.hpp"
#include "vcuda/vcuda.hpp"
#include "vgpu/asm.hpp"
#include "vgpu/device.hpp"
#include "vgpu/isa.hpp"

namespace kspec::kcc {
namespace {

using vgpu::Opcode;

const vgpu::CompiledKernel& CompileOne(CompiledModule& storage, const std::string& src,
                                       const CompileOptions& opts = {}) {
  storage = CompileModule(src, opts);
  KSPEC_CHECK(!storage.kernels.empty());
  return storage.kernels[0];
}

int CountOp(const vgpu::CompiledKernel& k, Opcode op) {
  int n = 0;
  for (const auto& i : k.code) {
    if (i.op == op) ++n;
  }
  return n;
}

bool HasBranches(const vgpu::CompiledKernel& k) {
  return CountOp(k, Opcode::kBra) + CountOp(k, Opcode::kBraPred) > 0;
}

TEST(Unroll, ConstantTripLoopFullyUnrolls) {
  CompiledModule m;
  const auto& k = CompileOne(m, R"(
__kernel void f(float* o) {
  float acc = 0.0f;
  for (int i = 0; i < 8; i++) { acc += (float)i; }
  o[threadIdx.x] = acc;
}
)");
  EXPECT_FALSE(HasBranches(k));
  EXPECT_EQ(k.stats.unrolled_loops, 1);
}

TEST(Unroll, RuntimeBoundStaysRolled) {
  CompiledModule m;
  const auto& k = CompileOne(m, R"(
__kernel void f(float* o, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; i++) { acc += (float)i; }
  o[threadIdx.x] = acc;
}
)");
  EXPECT_TRUE(HasBranches(k));
  EXPECT_EQ(k.stats.unrolled_loops, 0);
}

TEST(Unroll, DefineTurnsRuntimeIntoUnrolled) {
  const char* src = R"(
#ifndef N
#define N n
#endif
__kernel void f(float* o, int n) {
  float acc = 0.0f;
  for (int i = 0; i < N; i++) { acc += (float)i; }
  o[threadIdx.x] = acc;
}
)";
  CompiledModule m1, m2;
  const auto& re = CompileOne(m1, src);
  CompileOptions opts;
  opts.defines["N"] = "6";
  const auto& sk = CompileOne(m2, src, opts);
  EXPECT_TRUE(HasBranches(re));
  EXPECT_FALSE(HasBranches(sk));
}

TEST(Unroll, GeometricReductionLoopUnrolls) {
  CompiledModule m;
  const auto& k = CompileOne(m, R"(
__kernel void f(float* o) {
  float acc = 0.0f;
  for (unsigned int step = 16; step > 0; step = step >> 1) { acc += (float)step; }
  o[0] = acc;
}
)");
  EXPECT_FALSE(HasBranches(k));
  // 16+8+4+2+1 = 31 folds into a single constant store.
  EXPECT_GE(k.stats.folded_consts, 1);
}

TEST(Unroll, NestedLoopsUnrollInsideOut) {
  CompiledModule m;
  const auto& k = CompileOne(m, R"(
__kernel void f(float* o) {
  float acc = 0.0f;
  for (int y = 0; y < 3; y++) {
    for (int x = 0; x < y + 2; x++) { acc += 1.0f; }
  }
  o[0] = acc;
}
)");
  // Inner bound depends on the outer induction variable: both unroll once the
  // outer is expanded.
  EXPECT_FALSE(HasBranches(k));
}

TEST(Unroll, OverBudgetLoopStaysRolled) {
  CompiledModule m;
  CompileOptions opts;
  opts.max_unroll = 16;
  const auto& k = CompileOne(m, R"(
__kernel void f(float* o) {
  float acc = 0.0f;
  for (int i = 0; i < 100; i++) { acc += 1.0f; }
  o[0] = acc;
}
)", opts);
  EXPECT_TRUE(HasBranches(k));
}

TEST(Scalarize, RegisterArrayBecomesRegisters) {
  CompiledModule m;
  const auto& k = CompileOne(m, R"(
__kernel void f(float* o) {
  float acc[4];
  for (int i = 0; i < 4; i++) { acc[i] = (float)i; }
  float total = 0.0f;
  for (int i = 0; i < 4; i++) { total += acc[i]; }
  o[threadIdx.x] = total;
}
)");
  // No local-memory traffic: the only memory op is the final global store.
  EXPECT_EQ(CountOp(k, Opcode::kSt), 1);
  EXPECT_EQ(CountOp(k, Opcode::kLd), 0);
}

TEST(Scalarize, DynamicIndexDiagnosed) {
  try {
    CompiledModule m;
    CompileOne(m, R"(
__kernel void f(float* o, int j) {
  float acc[4];
  acc[j] = 1.0f;
  o[0] = acc[0];
}
)");
    FAIL() << "expected CompileError";
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("indirectly addressed"), std::string::npos);
  }
}

TEST(Scalarize, OutOfBoundsConstantIndexDiagnosed) {
  CompiledModule m;
  EXPECT_THROW(CompileOne(m, R"(
__kernel void f(float* o) {
  float acc[2];
  acc[5] = 1.0f;
  o[0] = acc[0];
}
)"),
               CompileError);
}

TEST(Passes, StrengthReductionOnSpecializedValues) {
  const char* src = R"(
#ifndef W
#define W w
#endif
__kernel void f(float* o, unsigned int w) {
  unsigned int i = threadIdx.x;
  o[i / W] = (float)(i % W);
}
)";
  CompiledModule m1, m2;
  const auto& re = CompileOne(m1, src);
  CompileOptions opts;
  opts.defines["W"] = "16";  // power of two -> shift/mask
  const auto& sk = CompileOne(m2, src, opts);
  EXPECT_EQ(CountOp(re, Opcode::kDiv) + CountOp(re, Opcode::kRem), 2);
  EXPECT_EQ(CountOp(sk, Opcode::kDiv) + CountOp(sk, Opcode::kRem), 0);
  EXPECT_GE(sk.stats.strength_reduced, 2);

  // A non-power-of-two constant cannot be strength-reduced this way.
  CompiledModule m3;
  opts.defines["W"] = "12";
  const auto& sk12 = CompileOne(m3, src, opts);
  EXPECT_GE(CountOp(sk12, Opcode::kDiv) + CountOp(sk12, Opcode::kRem), 1);
}

TEST(Passes, ConstantBranchElimination) {
  CompiledModule m;
  CompileOptions opts;
  opts.defines["FLAG"] = "0";
  const auto& k = CompileOne(m, R"(
__kernel void f(float* o) {
  if (FLAG) {
    o[0] = 1.0f;
  } else {
    o[0] = 2.0f;
  }
}
)", opts);
  EXPECT_FALSE(HasBranches(k));
  EXPECT_EQ(CountOp(k, Opcode::kSt), 1);
}

TEST(Passes, DeadCodeEliminated) {
  CompiledModule m;
  const auto& k = CompileOne(m, R"(
__kernel void f(float* o) {
  float unused = 3.0f * 4.0f + 1.0f;
  float kept = 2.0f;
  o[0] = kept;
}
)");
  // Everything except the store's operands must be gone.
  EXPECT_LE(k.stats.static_instrs, 3);
}

TEST(Passes, CseDeduplicatesAddressMath) {
  CompiledModule m;
  const auto& k = CompileOne(m, R"(
__kernel void f(float* a, float* b, int i) {
  b[i * 4 + 1] = a[i * 4 + 1] + 1.0f;
}
)");
  // The i*4 computation appears once thanks to local CSE (mul or shl).
  EXPECT_LE(CountOp(k, Opcode::kMul) + CountOp(k, Opcode::kShl), 2);
}

TEST(Regalloc, SpecializationReducesRegisterCount) {
  const char* src = R"(
#ifndef N
#define N n
#endif
#ifndef S
#define S s
#endif
__kernel void f(float* in, float* out, int n, int s) {
  float acc = 0.0f;
  unsigned int base = blockIdx.x * blockDim.x + threadIdx.x;
  for (int i = 0; i < N; i++) { acc += in[base + i * S]; }
  out[base] = acc;
}
)";
  CompiledModule m1, m2;
  const auto& re = CompileOne(m1, src);
  CompileOptions opts;
  opts.defines["N"] = "4";
  opts.defines["S"] = "8";
  const auto& sk = CompileOne(m2, src, opts);
  EXPECT_LT(sk.stats.reg_count, re.stats.reg_count);
}

TEST(Regalloc, RegisterBlockingIncreasesRegisterCount) {
  auto compile_rb = [](int rb) {
    std::string src = Format(R"(
__kernel void f(float* in, float* out) {
  float acc[%d];
  unsigned int t = threadIdx.x;
  for (int k = 0; k < %d; k++) { acc[k] = in[t + (unsigned int)k * 32u]; }
  float total = 0.0f;
  for (int k = 0; k < %d; k++) { total += acc[k] * acc[k]; }
  out[t] = total;
}
)", rb, rb, rb);
    return CompileModule(src, {}).kernels[0].stats.reg_count;
  };
  EXPECT_LT(compile_rb(2), compile_rb(8));
}

TEST(Regalloc, IlpGrowsWithUnrolledIndependentWork) {
  auto avg_ilp = [](const vgpu::CompiledKernel& k) {
    double sum = 0;
    for (float v : k.ilp_at_pc) sum += v;
    return sum / static_cast<double>(k.ilp_at_pc.size());
  };
  CompiledModule m1, m2;
  // Serial dependency chain vs independent accumulators.
  const auto& serial = CompileOne(m1, R"(
__kernel void f(float* o, float x) {
  float a = x;
  a = a * a + 1.0f;
  a = a * a + 1.0f;
  a = a * a + 1.0f;
  a = a * a + 1.0f;
  o[0] = a;
}
)");
  const auto& parallel = CompileOne(m2, R"(
__kernel void f(float* o, float x) {
  float a = x * 2.0f;
  float b = x * 3.0f;
  float c = x * 4.0f;
  float d = x * 5.0f;
  o[0] = a + b + c + d;
}
)");
  EXPECT_GT(avg_ilp(parallel), avg_ilp(serial));
}

// INT64_MIN / -1 overflows the quotient. Folded from -D values at compile
// time (where the host's idiv would trap and kill the compiler) it must give
// what the run time gives: the quotient wraps to INT64_MIN, the remainder is 0.
TEST(Passes, SignedDivisionOverflowFoldsLikeRuntime) {
  const char* src = R"(
#ifndef A
#define A a
#endif
#ifndef B
#define B b
#endif
__kernel void f(long long* out, long long a, long long b) {
  long long x = A, y = B;
  out[0] = x / y;
  out[1] = x % y;
}
)";
  CompileOptions folded;
  folded.defines["A"] = "(-9223372036854775807LL-1LL)";
  folded.defines["B"] = "-1";
  CompiledModule storage;
  const vgpu::CompiledKernel& k = CompileOne(storage, src, folded);
  for (const vgpu::Instr& i : k.code) {
    EXPECT_NE(i.op, Opcode::kDiv) << "the quotient should fold";
    EXPECT_NE(i.op, Opcode::kRem) << "the remainder should fold";
  }
  auto run = [&](const CompileOptions& opts) {
    vcuda::Context ctx(vgpu::TeslaC2070());
    auto mod = ctx.LoadModule(src, opts);
    vcuda::DevPtr d_out = ctx.Malloc(2 * sizeof(std::int64_t));
    vcuda::ArgPack args;
    args.Ptr(d_out).Long(INT64_MIN).Long(-1);
    ctx.Launch(*mod, "f", vgpu::Dim3(1), vgpu::Dim3(1), args);
    std::vector<std::int64_t> out = vcuda::Download<std::int64_t>(ctx, d_out, 2);
    ctx.Free(d_out);
    return out;
  };
  const std::vector<std::int64_t> at_runtime = run({});
  EXPECT_EQ(at_runtime, (std::vector<std::int64_t>{INT64_MIN, 0}));
  EXPECT_EQ(run(folded), at_runtime);
}

// A specialized (SK) kernel computes what the run-time-evaluated (RE) kernel
// computes. Each case folds at compile time — its instruction is gone from
// the SK kernel, or its loop is unrolled — and the decoded-tier result is
// bit-identical to the RE run, which takes the same values as arguments
// (the loop case: the same kernel with unrolling off).
TEST(Passes, FoldsLikeRuntime) {
  auto kernel = [](const char* out_type, const char* params, const char* expr) {
    return Format(R"(
#ifndef A
#define A a
#endif
#ifndef B
#define B b
#endif
#ifndef C
#define C c
#endif
__kernel void f(%s* out, %s) { out[0] = %s; }
)",
                  out_type, params, expr);
  };
  CompileOptions rolled;
  rolled.enable_unroll = false;
  struct Case {
    std::string src;
    std::map<std::string, std::string> sk_defines;
    std::function<void(vcuda::ArgPack&)> args;  // the SK values, at run time
    Opcode folded;  // absent from the SK kernel, present in the RE one
    CompileOptions re = {};
  };
  const Case cases[] = {
      // Float literals multiply in float, not double.
      {kernel("float", "float a, float b", "A * B"),
       {{"A", "9.600f"}, {"B", "54.593f"}},
       [](vcuda::ArgPack& p) { p.Float(9.6f).Float(54.593f); },
       Opcode::kMul},
      // __mul24 sign-extends its 24-bit operands.
      {kernel("int", "int a, int b", "__mul24(A, B)"),
       {{"A", "-1"}, {"B", "2"}},
       [](vcuda::ArgPack& p) { p.Int(-1).Int(2); },
       Opcode::kMul24},
      // A float above INT64_MAX converts to u64 directly.
      {kernel("unsigned long long", "float a", "(unsigned long long)A"),
       {{"A", "1e19f"}},
       [](vcuda::ArgPack& p) { p.Float(1e19f); },
       Opcode::kCvt},
      // rsqrt divides in float.
      {kernel("float", "float a", "rsqrtf(A)"),
       {{"A", "1.24f"}},
       [](vcuda::ArgPack& p) { p.Float(1.24f); },
       Opcode::kRsqrt},
      // fmaf is the run time's unfused float mad.
      {kernel("float", "float a, float b, float c", "fmaf(A, B, C)"),
       {{"A", "6.42f"}, {"B", "6.42f"}, {"C", "1.1f"}},
       [](vcuda::ArgPack& p) { p.Float(6.42f).Float(6.42f).Float(1.1f); },
       Opcode::kMad},
      // The induction variable shifts at its 32-bit width: 32 trips.
      {"__kernel void f(int* out) {\n"
       "  int n = 0;\n"
       "  for (int i = 1; i != 0; i <<= 1) n += 1;\n"
       "  out[0] = n;\n"
       "}\n",
       {},
       [](vcuda::ArgPack&) {},
       Opcode::kBraPred,
       rolled},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.src);
    CompileOptions sk;
    sk.defines = c.sk_defines;
    CompiledModule sk_storage, re_storage;
    EXPECT_EQ(CountOp(CompileOne(sk_storage, c.src, sk), c.folded), 0);
    EXPECT_GT(CountOp(CompileOne(re_storage, c.src, c.re), c.folded), 0);
    auto run = [&](const CompileOptions& opts) {
      vcuda::Context ctx(vgpu::TeslaC2070());
      auto mod = ctx.LoadModule(c.src, opts);
      vcuda::DevPtr d_out = vcuda::Upload<std::uint64_t>(ctx, std::vector<std::uint64_t>(1));
      vcuda::ArgPack args;
      args.Ptr(d_out);
      c.args(args);
      ctx.Launch(*mod, "f", vgpu::Dim3(1), vgpu::Dim3(1), args);
      const std::uint64_t bits = vcuda::Download<std::uint64_t>(ctx, d_out, 1)[0];
      ctx.Free(d_out);
      return bits;
    };
    EXPECT_EQ(run(sk), run(c.re));
  }
}

TEST(Listing, ContainsEntryAndDefines) {
  CompileOptions opts;
  opts.defines["N"] = "4";
  CompiledModule m = CompileModule(
      "__kernel void k(float* o) { for (int i = 0; i < N; i++) { o[i] = 0.0f; } }", opts);
  const std::string& listing = m.kernels[0].listing;
  EXPECT_NE(listing.find(".entry k"), std::string::npos);
  EXPECT_NE(listing.find("-D N=4"), std::string::npos);
}

TEST(Compiler, MultipleKernelsPerModule) {
  CompiledModule m = CompileModule(R"(
__kernel void a(float* o) { o[0] = 1.0f; }
__kernel void b(float* o) { o[0] = 2.0f; }
)");
  EXPECT_EQ(m.kernels.size(), 2u);
  EXPECT_NE(m.FindKernel("a"), nullptr);
  EXPECT_NE(m.FindKernel("b"), nullptr);
  EXPECT_EQ(m.FindKernel("c"), nullptr);
}

TEST(Compiler, ConstantLayout) {
  CompiledModule m = CompileModule(R"(
__constant float table[8];
__constant double wide[2];
__kernel void k(float* o) { o[0] = table[3] + (float)wide[1]; }
)");
  ASSERT_EQ(m.constants.size(), 2u);
  EXPECT_EQ(m.constants[0].offset, 0u);
  EXPECT_EQ(m.constants[0].bytes, 32u);
  EXPECT_EQ(m.constants[1].offset % 8, 0u);
  EXPECT_EQ(m.const_bytes, m.constants[1].offset + 16u);
}

// ---- Optimizer edge paths, run through Optimize on hand-written MiniPTX ----

// Assembles `text`, optimizes it (every register typed u64: the types only
// size the optimizer's tables) and returns the optimized listing.
std::string OptimizeText(const std::string& text, PassStats* stats = nullptr) {
  std::vector<vgpu::Instr> code = vgpu::Assemble(text);
  int max_reg = 0;
  for (const auto& i : code) {
    max_reg = std::max({max_reg, i.dst, i.a.reg, i.b.reg, i.c.reg});
  }
  const std::vector<vgpu::Type> types(static_cast<std::size_t>(max_reg) + 1, vgpu::Type::kU64);
  const PassStats s = Optimize(code, types);
  if (stats) *stats = s;
  return vgpu::Disassemble(code);
}

TEST(Passes, RedefinitionKillsDependentFacts) {
  // r0..r9 are live-in values. Each fact below (a copy, an address base, a
  // cvt source, a CSE operand, a CSE result) loses what it read to a load
  // before the fact's use, so the use must stay as written. The second half
  // repeats each pattern without the redefinition, where the fact applies.
  const std::string listing = OptimizeText(R"(
    mov.u64 %r10, %r1
    ld.global.u64 %r1, [%r0+0]
    st.global.u64 [%r0+8], %r10
    st.global.u64 [%r0+16], %r1
    add.u64 %r11, %r2, 16
    ld.global.u64 %r2, [%r0+24]
    ld.global.u32 %r12, [%r11+0]
    st.global.u32 [%r2+0], %r12
    cvt.s64.s32 %r13, %r3
    ld.global.s32 %r3, [%r0+32]
    cvt.u64.s64 %r14, %r13
    st.global.u64 [%r0+40], %r14
    st.global.s32 [%r0+48], %r3
    mul.u32 %r15, %r4, %r5
    ld.global.u32 %r4, [%r0+56]
    mul.u32 %r16, %r4, %r5
    st.global.u32 [%r0+64], %r15
    st.global.u32 [%r0+68], %r16
    mul.u32 %r17, %r8, %r5
    ld.global.u32 %r17, [%r0+72]
    mul.u32 %r18, %r8, %r5
    st.global.u32 [%r0+76], %r17
    st.global.u32 [%r0+80], %r18
    mov.u64 %r20, %r6
    st.global.u64 [%r0+88], %r20
    add.u64 %r21, %r6, 16
    ld.global.u32 %r22, [%r21+0]
    st.global.u32 [%r0+96], %r22
    cvt.s64.s32 %r23, %r7
    cvt.u64.s64 %r24, %r23
    st.global.u64 [%r0+104], %r24
    mul.u32 %r25, %r8, %r9
    mul.u32 %r26, %r8, %r9
    st.global.u32 [%r0+112], %r25
    st.global.u32 [%r0+116], %r26
    exit
)");
  // Stale facts are not applied in the first half; every fact applies in
  // the second (recorded from the optimizer before its fact tables were
  // made vreg-indexed).
  EXPECT_EQ(listing,
            "   0:  mov.u64 %r10, %r1\n"
            "   1:  ld.global.u64 %r1, [%r0+0]\n"
            "   2:  st.global.u64 [%r0+8], %r10\n"
            "   3:  st.global.u64 [%r0+16], %r1\n"
            "   4:  add.u64 %r11, %r2, 16\n"
            "   5:  ld.global.u64 %r2, [%r0+24]\n"
            "   6:  ld.global.u32 %r12, [%r11+0]\n"
            "   7:  st.global.u32 [%r2+0], %r12\n"
            "   8:  cvt.s64.s32 %r13, %r3\n"
            "   9:  ld.global.s32 %r3, [%r0+32]\n"
            "  10:  cvt.u64.s64 %r14, %r13\n"
            "  11:  st.global.u64 [%r0+40], %r14\n"
            "  12:  st.global.s32 [%r0+48], %r3\n"
            "  13:  mul.u32 %r15, %r4, %r5\n"
            "  14:  ld.global.u32 %r4, [%r0+56]\n"
            "  15:  mul.u32 %r16, %r4, %r5\n"
            "  16:  st.global.u32 [%r0+64], %r15\n"
            "  17:  st.global.u32 [%r0+68], %r16\n"
            "  18:  mul.u32 %r17, %r8, %r5\n"
            "  19:  ld.global.u32 %r17, [%r0+72]\n"
            "  20:  mul.u32 %r18, %r8, %r5\n"
            "  21:  st.global.u32 [%r0+76], %r17\n"
            "  22:  st.global.u32 [%r0+80], %r18\n"
            "  23:  st.global.u64 [%r0+88], %r6\n"
            "  24:  ld.global.u32 %r22, [%r6+16]\n"
            "  25:  st.global.u32 [%r0+96], %r22\n"
            "  26:  cvt.u64.s32 %r24, %r7\n"
            "  27:  st.global.u64 [%r0+104], %r24\n"
            "  28:  mul.u32 %r25, %r8, %r9\n"
            "  29:  st.global.u32 [%r0+112], %r25\n"
            "  30:  st.global.u32 [%r0+116], %r25\n"
            "  31:  exit\n");
}

// A straight-line block that overflows every fact table's cap (kFactCap
// copies, address bases and cvts; 4 * kFactCap constants), reads the facts
// back after the clear, then repeats three expressions 95, 96 and 97
// instructions after their first computation (the CSE reuse window is 96).
std::string FactCapProgram() {
  std::string text;
  int pc = 0;
  auto emit = [&](const std::string& line) {
    text += line;
    text += "\n";
    ++pc;
  };
  int next = 100;  // r0..r9 are live-in values; r100 up are fresh
  auto fresh = [&](int n) {
    std::vector<int> regs;
    for (int k = 0; k < n; ++k) regs.push_back(next++);
    return regs;
  };
  int slot = 0;  // distinct store offsets
  auto store = [&](const char* type, int reg) {
    emit(Format("st.global.%s [%%r0+%d], %%r%d", type, 8 * slot++, reg));
  };

  const std::vector<int> consts = fresh(3100);
  for (std::size_t k = 0; k < consts.size(); ++k) emit(Format("mov.u32 %%r%d, %zu", consts[k], k));
  for (int r : consts) store("u32", r);

  const std::vector<int> copies = fresh(800);
  for (int r : copies) emit(Format("mov.u64 %%r%d, %%r1", r));
  for (int r : copies) store("u64", r);

  const std::vector<int> addrs = fresh(800), loaded = fresh(800);
  for (std::size_t k = 0; k < addrs.size(); ++k) {
    emit(Format("add.u64 %%r%d, %%r2, %zu", addrs[k], 16 * k));
  }
  for (std::size_t k = 0; k < addrs.size(); ++k) {
    emit(Format("ld.global.u32 %%r%d, [%%r%d+0]", loaded[k], addrs[k]));
  }
  for (int r : loaded) store("u32", r);

  const std::vector<int> narrow = fresh(800), wide = fresh(800), widest = fresh(800);
  for (std::size_t k = 0; k < narrow.size(); ++k) {
    emit(Format("ld.global.s32 %%r%d, [%%r3+%zu]", narrow[k], 4 * k));
  }
  for (std::size_t k = 0; k < wide.size(); ++k) {
    emit(Format("cvt.s64.s32 %%r%d, %%r%d", wide[k], narrow[k]));
  }
  // Collapsing a chain records a cvt fact too, so only a sample is read back
  // (too few to reach the cap again): the first ten, whose facts the clear
  // dropped, and the last forty, which straddle the clear. Storing every
  // widened value keeps all 800 cvts alive, so each optimizer round clears
  // at the same instruction.
  auto sampled = [&](std::size_t k) { return k < 10 || k + 40 >= wide.size(); };
  for (std::size_t k = 0; k < widest.size(); ++k) {
    if (sampled(k)) emit(Format("cvt.u64.s64 %%r%d, %%r%d", widest[k], wide[k]));
  }
  for (std::size_t k = 0; k < widest.size(); ++k) {
    if (sampled(k)) store("u64", widest[k]);
  }
  for (int r : wide) store("s64", r);

  const int window_start = pc;
  const std::vector<int> first = fresh(3), again = fresh(3);
  for (int k = 0; k < 3; ++k) emit(Format("mul.u32 %%r%d, %%r4, %d", first[k], 3 + 2 * k));
  // The k-th repeat lands 95 + k instructions after the k-th first
  // computation, i.e. at window_start + 95 + 2k.
  for (int k = 0; k < 3; ++k) {
    while (pc < window_start + 95 + 2 * k) store("u32", 5);
    emit(Format("mul.u32 %%r%d, %%r4, %d", again[k], 3 + 2 * k));
  }
  for (int k = 0; k < 3; ++k) {
    store("u32", first[k]);
    store("u32", again[k]);
  }
  emit("exit");
  return text;
}

TEST(Passes, FactCapsAndReuseWindowMatchGolden) {
  PassStats stats;
  const std::string listing = OptimizeText(FactCapProgram(), &stats);
  // The first two repeats (%r8003 95 apart, %r8004 96 apart) reuse the
  // earlier value and are propagated away; the third (%r8005, 97 apart)
  // recomputes.
  EXPECT_EQ(listing.find("%r8003"), std::string::npos);
  EXPECT_EQ(listing.find("%r8004"), std::string::npos);
  EXPECT_NE(listing.find("mul.u32 %r8005, %r4, 7"), std::string::npos);
  EXPECT_EQ(stats.cse_hits, 2);
  // Which facts each cap clear dropped shows in the listing; the golden was
  // recorded before the fact tables were made vreg-indexed.
  EXPECT_EQ(stats.dce_removed, 91);
  EXPECT_EQ(std::count(listing.begin(), listing.end(), '\n'), 12716);
  EXPECT_EQ(Format("%016llx", static_cast<unsigned long long>(Fnv1a(listing))), "825795c6c24c825a");
}

// ---- Listing goldens over every application kernel ----

// `line(kernel)` for every kernel of every module `run` compiles on a fresh
// context, sorted; kernels `line` renders empty are left out.
std::vector<std::string> CompiledKernels(
    const std::function<void(vcuda::Context&)>& run,
    const std::function<std::string(const vgpu::CompiledKernel&)>& line) {
  ScopedTempDir dir("kspec_listing_golden_");
  KSPEC_CHECK(dir.valid());
  {
    vcuda::Context ctx(vgpu::TeslaC2070());
    ctx.set_cache_dir(dir.path());
    run(ctx);
  }
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().extension() != ".kmod") continue;
    std::vector<std::uint8_t> bytes;
    KSPEC_CHECK(ReadFileBytes(entry.path().string(), &bytes));
    for (const auto& k : Deserialize(bytes).kernels) {
      if (std::string l = line(k); !l.empty()) out.push_back(std::move(l));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// "<kernel> <instrs> <FNV-1a-64 of the listing>".
std::vector<std::string> CompiledListings(const std::function<void(vcuda::Context&)>& run) {
  return CompiledKernels(run, [](const vgpu::CompiledKernel& k) {
    return Format("%s %zu %016llx", k.name.c_str(), k.code.size(),
                  static_cast<unsigned long long>(Fnv1a(k.listing)));
  });
}

// Whether some bar.sync in `k` is followed by a pc that no branch targets and
// no divergent branch reconverges at: the barrier sits inside a straight run
// of code, which ends a basic block but not an ILP window.
bool HasMidBlockBarrier(const vgpu::CompiledKernel& k) {
  std::vector<bool> entered(k.code.size() + 1, false);
  for (const vgpu::Instr& i : k.code) {
    if (i.op != Opcode::kBra && i.op != Opcode::kBraPred) continue;
    for (int pc : {i.target, i.reconv}) {
      if (pc >= 0 && pc <= static_cast<int>(k.code.size())) entered[pc] = true;
    }
  }
  for (std::size_t pc = 0; pc + 1 < k.code.size(); ++pc) {
    if (k.code[pc].op == Opcode::kBarSync && !entered[pc + 1]) return true;
  }
  return false;
}

// "<kernel> <reg_count> <FNV-1a-64 of ilp_at_pc>" for the kernels with a
// mid-block barrier.
std::vector<std::string> CompiledAllocations(const std::function<void(vcuda::Context&)>& run) {
  return CompiledKernels(run, [](const vgpu::CompiledKernel& k) {
    if (!HasMidBlockBarrier(k)) return std::string();
    return Format("%s %d %016llx", k.name.c_str(), k.stats.reg_count,
                  static_cast<unsigned long long>(
                      Fnv1aBytes(k.ilp_at_pc.data(), k.ilp_at_pc.size() * sizeof(float))));
  });
}

struct ListingCase {
  std::string name;
  std::function<void(vcuda::Context&)> run;
};

const char* SkRe(bool sk) { return sk ? "SK" : "RE"; }

// Every application kernel, RE and SK, at the respecialize benchmark's small
// sizes and at the bench_native sizes (the steady benchmark's SK modules).
std::vector<ListingCase> ListingCases() {
  namespace bp = apps::backproj;
  namespace mt = apps::matching;
  namespace pv = apps::piv;
  namespace rf = apps::rowfilter;
  std::vector<ListingCase> cases;
  for (bool sk : {true, false}) {
    cases.push_back({Format("matching/small/%s", SkRe(sk)), [sk](vcuda::Context& ctx) {
                       mt::MatcherConfig cfg;
                       cfg.tile_h = 4;
                       cfg.tile_w = 8;
                       cfg.threads = 32;
                       cfg.specialize = sk;
                       GpuMatch(ctx, mt::Generate("small", 16, 16, 9, 7, 11), cfg);
                     }});
  }
  for (pv::Variant v : {pv::Variant::kBasic, pv::Variant::kRegBlock, pv::Variant::kWarpSpec,
                        pv::Variant::kMultiMask}) {
    for (bool sk : {true, false}) {
      if (v == pv::Variant::kRegBlock && !sk) continue;  // register blocking needs SK
      cases.push_back({Format("piv/small/%s/%s", pv::VariantName(v), SkRe(sk)),
                       [v, sk](vcuda::Context& ctx) {
                         pv::PivConfig cfg;
                         cfg.variant = v;
                         cfg.threads = 128;
                         cfg.specialize = sk;
                         GpuPiv(ctx, pv::Generate("small", 96, 13, 2, 13, 12), cfg);
                       }});
    }
  }
  bp::Geometry small;
  small.vol_n = 32;
  small.vol_z = 8;
  small.det_u = 48;
  small.det_v = 32;
  small.n_angles = 9;
  for (int zpt : {1, 2, 4}) {
    for (bool tex : {false, true}) {
      cases.push_back({Format("backproj/small/zpt%d%s/SK", zpt, tex ? "/tex" : ""),
                       [=](vcuda::Context& ctx) {
                         bp::BackprojConfig cfg;
                         cfg.threads = 96;
                         cfg.zpt = zpt;
                         cfg.use_texture = tex;
                         GpuBackproject(ctx, bp::Generate("small", small, 2, 13), cfg);
                       }});
    }
  }
  cases.push_back({"backproj/small/RE", [=](vcuda::Context& ctx) {
                     bp::BackprojConfig cfg;
                     cfg.specialize = false;
                     GpuBackproject(ctx, bp::Generate("small", small, 2, 13), cfg);
                   }});
  for (int border = 0; border < 3; ++border) {
    for (bool sk : {true, false}) {
      const auto b = static_cast<rf::Border>(border);
      cases.push_back({Format("rowfilter/small/%s/%s", rf::BorderName(b), SkRe(sk)),
                       [=](vcuda::Context& ctx) {
                         rf::FilterSpec spec = rf::BoxFilter(11, b);
                         spec.anchor = 2;
                         rf::RowFilterConfig cfg;
                         cfg.threads = 128;
                         cfg.specialize = sk;
                         GpuRowFilter(ctx, rf::MakeTestImage(512, 128, 14), spec, cfg);
                       }});
    }
  }
  for (bool sk : {true, false}) {
    cases.push_back({Format("matching/bench/%s", SkRe(sk)), [sk](vcuda::Context& ctx) {
                       mt::MatcherConfig cfg;
                       cfg.specialize = sk;
                       GpuMatch(ctx, mt::Generate("bench", 32, 24, 32, 32, 7), cfg);
                     }});
    cases.push_back({Format("piv/bench/%s", SkRe(sk)), [sk](vcuda::Context& ctx) {
                       pv::PivConfig cfg;
                       cfg.specialize = sk;
                       GpuPiv(ctx, pv::Generate("bench", 192, 16, 4, 12, 11), cfg);
                     }});
    cases.push_back({Format("backproj/bench/%s", SkRe(sk)), [sk](vcuda::Context& ctx) {
                       bp::Geometry g;
                       g.vol_n = 64;
                       g.vol_z = 12;
                       g.det_u = 32;
                       g.det_v = 24;
                       g.n_angles = 12;
                       bp::BackprojConfig cfg;
                       cfg.specialize = sk;
                       GpuBackproject(ctx, bp::Generate("bench", g, 3, 51), cfg);
                     }});
    cases.push_back({Format("rowfilter/bench/%s", SkRe(sk)), [sk](vcuda::Context& ctx) {
                       rf::RowFilterConfig cfg;
                       cfg.specialize = sk;
                       GpuRowFilter(ctx, rf::MakeTestImage(512, 192, 7), rf::BoxFilter(9), cfg);
                     }});
  }
  return cases;
}

// "<case> <kernel> <instrs> <listing hash>", recorded from the compiler before
// the optimizer's fact tables were made vreg-indexed: any change to the
// emitted MiniPTX (or to the register count in its header) shows up here.
const char* const kListingGoldens[] = {
    "matching/small/SK numeratorTiles 388 4a9cf4d64c749193",
    "matching/small/SK scorePeak 155 6dcfd59dfd972196",
    "matching/small/SK sumPartials 59 93cafe4fd109109a",
    "matching/small/SK windowStats 2369 86a15a44c27c65e8",
    "matching/small/RE numeratorTiles 81 daf62ee886a01927",
    "matching/small/RE scorePeak 80 df7fbd7585754d6d",
    "matching/small/RE sumPartials 27 4c3a7dd8fe1b96f3",
    "matching/small/RE windowStats 41 ba4384e6d23c97f6",
    "piv/small/basic/SK pivBasic 3121 c83239fba36c9ff6",
    "piv/small/basic/RE pivBasic 88 213c6a4610f1f17d",
    "piv/small/regblock/SK pivRegBlock 3426 e8aedf003c94387c",
    "piv/small/warpspec/SK pivWarpSpec 169 94a14aa9957e2736",
    "piv/small/warpspec/RE pivWarpSpec 172 a1c6af50c9180144",
    "piv/small/multimask/SK pivMultiMask 2428 6c35cbbe66c847d9",
    "piv/small/multimask/RE pivMultiMask 133 740f2ba0aa018e90",
    "backproj/small/zpt1/SK backproject 4906 a2e81e7a7ce440aa",
    "backproj/small/zpt1/tex/SK backprojectTex 2166 78156345fb7a2ce2",
    "backproj/small/zpt2/SK backproject 4147 b294d8d0aff11848",
    "backproj/small/zpt2/tex/SK backprojectTex 1471 3d4398f76bf8273d",
    "backproj/small/zpt4/SK backproject 3729 080b1c99c718f2d0",
    "backproj/small/zpt4/tex/SK backprojectTex 1151 0b664f42455c53a0",
    "backproj/small/RE backproject 123 ab011f3dab38c499",
    "rowfilter/small/clamp/SK rowFilter 155 6fba5573bacf73ca",
    "rowfilter/small/clamp/RE rowFilter 60 3f160aa79b53352b",
    "rowfilter/small/reflect/SK rowFilter 228 2a74cdbfe8c92234",
    "rowfilter/small/reflect/RE rowFilter 60 3f160aa79b53352b",
    "rowfilter/small/wrap/SK rowFilter 175 982fde2a68da8cb3",
    "rowfilter/small/wrap/RE rowFilter 60 3f160aa79b53352b",
    "matching/bench/SK numeratorTiles 728 c36e68dcf7c36843",
    "matching/bench/SK scorePeak 197 d7bc53248827831c",
    "matching/bench/SK sumPartials 83 c8ee3dc20b5e34ae",
    "matching/bench/SK windowStats 7088 64f599b356d41604",
    "piv/bench/SK pivWarpSpec 169 387db37e3a3a1b14",
    "backproj/bench/SK backproject 9754 ed907682a2a9762a",
    "rowfilter/bench/SK rowFilter 131 d8d7de67d2fb80ae",
    "matching/bench/RE numeratorTiles 81 daf62ee886a01927",
    "matching/bench/RE scorePeak 80 df7fbd7585754d6d",
    "matching/bench/RE sumPartials 27 4c3a7dd8fe1b96f3",
    "matching/bench/RE windowStats 41 ba4384e6d23c97f6",
    "piv/bench/RE pivWarpSpec 172 a1c6af50c9180144",
    "backproj/bench/RE backproject 123 ab011f3dab38c499",
    "rowfilter/bench/RE rowFilter 60 3f160aa79b53352b",
};

TEST(Listing, AppKernelsMatchGoldens) {
  std::vector<std::string> got;
  for (const ListingCase& c : ListingCases()) {
    for (const std::string& line : CompiledListings(c.run)) got.push_back(c.name + " " + line);
  }
  const std::vector<std::string> want(std::begin(kListingGoldens), std::end(kListingGoldens));
  EXPECT_EQ(got, want);
}

// "<case> <kernel> <reg_count> <ilp_at_pc hash>" for every kernel of
// ListingCases() with a mid-block barrier, recorded from the register
// allocator that built its own blocks, which did not split at bar.sync: the
// split the shared control-flow graph makes there must move neither the
// register count nor any ILP value.
const char* const kAllocationGoldens[] = {
    "matching/small/SK numeratorTiles 17 3c88ae98ddfdfe55",
    "matching/small/SK scorePeak 18 22ce3178c5411ca8",
    "matching/small/RE numeratorTiles 21 c99126255a7b0c7e",
    "matching/small/RE scorePeak 19 ac68d6c05fc3b6ff",
    "piv/small/basic/SK pivBasic 25 83ece6e32f881d12",
    "piv/small/basic/RE pivBasic 30 5949bac95aba9cdd",
    "piv/small/regblock/SK pivRegBlock 22 27694343bd1884c0",
    "piv/small/warpspec/SK pivWarpSpec 26 e0ac708f2c982b08",
    "piv/small/warpspec/RE pivWarpSpec 30 e1630f022bc979a3",
    "matching/bench/SK numeratorTiles 17 1f04d5b0cac705d5",
    "matching/bench/SK scorePeak 18 46b28ed3e5882d70",
    "piv/bench/SK pivWarpSpec 26 e0ac708f2c982b08",
    "matching/bench/RE numeratorTiles 21 c99126255a7b0c7e",
    "matching/bench/RE scorePeak 19 ac68d6c05fc3b6ff",
    "piv/bench/RE pivWarpSpec 30 e1630f022bc979a3",
};

TEST(Regalloc, MidBlockBarrierKernelsMatchGoldens) {
  std::vector<std::string> got;
  for (const ListingCase& c : ListingCases()) {
    for (const std::string& line : CompiledAllocations(c.run)) got.push_back(c.name + " " + line);
  }
  const std::vector<std::string> want(std::begin(kAllocationGoldens), std::end(kAllocationGoldens));
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace kspec::kcc
