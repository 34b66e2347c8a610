// Second battery of end-to-end Kernel-C semantics tests: multi-dimensional
// thread geometry, double precision, 64-bit integers, pointer walking,
// ternaries, logical operators, the static-vs-dynamic shared memory
// equivalence of Section 4.1, and driver-level diagnostics.
#include <gtest/gtest.h>

#include <cmath>

#include "vcuda/vcuda.hpp"
#include "vgpu/tier.hpp"

namespace kspec {
namespace {

using vcuda::ArgPack;
using vcuda::Context;
using vgpu::Dim3;

struct Gpu {
  Context ctx{vgpu::TeslaC2070()};

  template <typename T>
  std::vector<T> Run(const char* src, Dim3 grid, Dim3 block, std::size_t out_count,
                     const std::function<void(ArgPack&, vcuda::DevPtr)>& bind,
                     const kcc::CompileOptions& opts = {}) {
    auto mod = ctx.LoadModule(src, opts);
    auto d_out = ctx.Malloc(out_count * sizeof(T));
    ctx.Memset(d_out, 0, out_count * sizeof(T));
    ArgPack args;
    bind(args, d_out);
    ctx.Launch(*mod, "f", grid, block, args);
    auto out = vcuda::Download<T>(ctx, d_out, out_count);
    ctx.Free(d_out);
    return out;
  }
};

TEST(KernelC, TwoDimensionalBlocksAndGrids) {
  Gpu g;
  const char* src = R"(
__kernel void f(int* out, int w) {
  unsigned int x = blockIdx.x * blockDim.x + threadIdx.x;
  unsigned int y = blockIdx.y * blockDim.y + threadIdx.y;
  out[y * (unsigned int)w + x] = (int)(y * 100u + x);
}
)";
  const int w = 8, h = 6;
  auto out = g.Run<int>(src, Dim3(2, 3), Dim3(4, 2), static_cast<std::size_t>(w) * h,
                        [&](ArgPack& a, vcuda::DevPtr d) { a.Ptr(d).Int(w); });
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      EXPECT_EQ(out[y * w + x], y * 100 + x) << x << "," << y;
    }
  }
}

TEST(KernelC, ThreeDimensionalThreadIndexing) {
  Gpu g;
  const char* src = R"(
__kernel void f(int* out) {
  unsigned int i = (threadIdx.z * blockDim.y + threadIdx.y) * blockDim.x + threadIdx.x;
  out[i] = (int)(threadIdx.z * 100u + threadIdx.y * 10u + threadIdx.x);
}
)";
  auto out = g.Run<int>(src, Dim3(1), Dim3(4, 3, 2), 24,
                        [&](ArgPack& a, vcuda::DevPtr d) { a.Ptr(d); });
  for (int z = 0; z < 2; ++z) {
    for (int y = 0; y < 3; ++y) {
      for (int x = 0; x < 4; ++x) {
        EXPECT_EQ(out[(z * 3 + y) * 4 + x], z * 100 + y * 10 + x);
      }
    }
  }
}

TEST(KernelC, DoublePrecisionArithmetic) {
  Gpu g;
  const char* src = R"(
__kernel void f(double* out, double a, double b) {
  int t = (int)threadIdx.x;
  double x = a * (double)t + b;
  out[t] = sqrt(x * x) + fabs(-b);
}
)";
  auto out = g.Run<double>(src, Dim3(1), Dim3(16), 16, [&](ArgPack& a, vcuda::DevPtr d) {
    a.Ptr(d).Double(1.5).Double(0.25);
  });
  for (int t = 0; t < 16; ++t) {
    double x = 1.5 * t + 0.25;
    EXPECT_DOUBLE_EQ(out[t], std::sqrt(x * x) + 0.25) << t;
  }
}

TEST(KernelC, LongLongArithmetic) {
  Gpu g;
  const char* src = R"(
__kernel void f(long long* out, long long base) {
  int t = (int)threadIdx.x;
  long long v = base + (long long)t * 1000000000LL;
  out[t] = v * 3LL - 7LL;
}
)";
  auto out = g.Run<std::int64_t>(src, Dim3(1), Dim3(8), 8, [&](ArgPack& a, vcuda::DevPtr d) {
    a.Ptr(d).Long(5000000000LL);
  });
  for (int t = 0; t < 8; ++t) {
    std::int64_t v = 5000000000LL + static_cast<std::int64_t>(t) * 1000000000LL;
    EXPECT_EQ(out[t], v * 3 - 7) << t;
  }
}

// INT_MIN / -1 overflows the quotient: with run-time operands, every tier
// wraps it to INT_MIN with remainder 0 (the host's idiv would trap), for
// 32- and 64-bit operands alike.
TEST(KernelC, SignedDivisionOverflowWraps) {
  const char* src = R"(
__kernel void f(long long* out, int a, int b, long long c, long long d) {
  out[0] = (long long)(a / b);
  out[1] = (long long)(a % b);
  out[2] = c / d;
  out[3] = c % d;
}
)";
  for (const vgpu::ExecutionTier tier :
       {vgpu::ExecutionTier::kInterp, vgpu::ExecutionTier::kDecoded}) {
    SCOPED_TRACE(vgpu::TierName(tier));
    Gpu g;
    auto mod = g.ctx.LoadModule(src);
    auto d_out = g.ctx.Malloc(4 * sizeof(std::int64_t));
    ArgPack args;
    args.Ptr(d_out).Int(INT32_MIN).Int(-1).Long(INT64_MIN).Long(-1);
    vcuda::LaunchExecution exec;
    exec.request = tier;
    g.ctx.Launch(*mod, "f", Dim3(1), Dim3(1), args, 0, &exec);
    auto out = vcuda::Download<std::int64_t>(g.ctx, d_out, 4);
    g.ctx.Free(d_out);
    EXPECT_EQ(out, (std::vector<std::int64_t>{INT32_MIN, 0, INT64_MIN, 0}));
  }
}

// A loop that assigns a variable declared outside it (`for (i = ...)`) leaves
// that variable at the value its failing test saw, unrolled or not: the
// second loop runs no trip and still assigns 10.
TEST(KernelC, UnrolledLoopLeavesInductionVariableAtExitValue) {
  const char* src = R"(
__kernel void f(int* out) {
  int i = 7;
  for (i = 0; i < 4; i++) { out[i] = i; }
  out[4] = i;
  int j = 7;
  for (j = 10; j < 4; j++) { out[5] = j; }
  out[6] = j;
}
)";
  kcc::CompileOptions rolled;
  rolled.max_unroll = 0;
  for (const vgpu::ExecutionTier tier :
       {vgpu::ExecutionTier::kInterp, vgpu::ExecutionTier::kDecoded}) {
    SCOPED_TRACE(vgpu::TierName(tier));
    std::vector<std::vector<int>> outs;
    for (const kcc::CompileOptions& opts : {kcc::CompileOptions{}, rolled}) {
      Gpu g;
      auto mod = g.ctx.LoadModule(src, opts);
      EXPECT_EQ(mod->compiled().kernels[0].stats.unrolled_loops, opts.max_unroll > 0 ? 2 : 1);
      auto d_out = g.ctx.Malloc(7 * sizeof(int));
      g.ctx.Memset(d_out, 0, 7 * sizeof(int));
      ArgPack args;
      args.Ptr(d_out);
      vcuda::LaunchExecution exec;
      exec.request = tier;
      g.ctx.Launch(*mod, "f", Dim3(1), Dim3(1), args, 0, &exec);
      outs.push_back(vcuda::Download<int>(g.ctx, d_out, 7));
    }
    EXPECT_EQ(outs[0], outs[1]);
    EXPECT_EQ(outs[0], (std::vector<int>{0, 1, 2, 3, 4, 0, 10}));
  }
}

TEST(KernelC, PointerWalking) {
  Gpu g;
  // Pointers are mutable: walk a row pointer down a matrix.
  const char* src = R"(
__kernel void f(float* m, float* out, int rows, int cols) {
  int t = (int)threadIdx.x;
  if (t < cols) {
    float* p = m + t;
    float acc = 0.0f;
    for (int r = 0; r < rows; r++) {
      acc += *p;
      p += cols;
    }
    out[t] = acc;
  }
}
)";
  const int rows = 5, cols = 8;
  std::vector<float> matrix(rows * cols);
  for (int i = 0; i < rows * cols; ++i) matrix[i] = static_cast<float>(i % 11);
  auto d_m = vcuda::Upload<float>(g.ctx, std::span<const float>(matrix));
  auto out = g.Run<float>(src, Dim3(1), Dim3(32), cols, [&](ArgPack& a, vcuda::DevPtr d) {
    a.Ptr(d_m).Ptr(d).Int(rows).Int(cols);
  });
  for (int c = 0; c < cols; ++c) {
    float expect = 0;
    for (int r = 0; r < rows; ++r) expect += matrix[r * cols + c];
    EXPECT_FLOAT_EQ(out[c], expect) << c;
  }
}

TEST(KernelC, TernaryAndLogicalOperators) {
  Gpu g;
  const char* src = R"(
__kernel void f(int* out, int lo, int hi) {
  int t = (int)threadIdx.x;
  bool in_range = t >= lo && t < hi;
  bool edge = t == lo || t == hi - 1;
  out[t] = in_range ? (edge ? 2 : 1) : 0;
}
)";
  auto out = g.Run<int>(src, Dim3(1), Dim3(32), 32, [&](ArgPack& a, vcuda::DevPtr d) {
    a.Ptr(d).Int(5).Int(20);
  });
  for (int t = 0; t < 32; ++t) {
    int expect = (t >= 5 && t < 20) ? ((t == 5 || t == 19) ? 2 : 1) : 0;
    EXPECT_EQ(out[t], expect) << t;
  }
}

// Section 4.1: specialization lets kernels keep the simpler static shared
// syntax yet size it per problem like dynamic allocation would — the two
// must behave identically.
TEST(KernelC, StaticSpecializedSharedEqualsDynamicShared) {
  Gpu g;
  const char* dynamic_src = R"(
__kernel void f(float* out, int n) {
  extern __shared float buf[];
  unsigned int t = threadIdx.x;
  buf[t] = (float)t;
  __syncthreads();
  out[t] = buf[(t + 1u) % (unsigned int)n];
}
)";
  const char* static_src = R"(
__kernel void f(float* out, int n) {
  __shared float buf[BUF_N];
  unsigned int t = threadIdx.x;
  buf[t] = (float)t;
  __syncthreads();
  out[t] = buf[(t + 1u) % (unsigned int)n];
}
)";
  const int n = 64;
  auto out_dyn = [&] {
    auto mod = g.ctx.LoadModule(dynamic_src, {});
    auto d = g.ctx.Malloc(n * 4);
    ArgPack a;
    a.Ptr(d).Int(n);
    g.ctx.Launch(*mod, "f", Dim3(1), Dim3(n), a, n * 4);
    return vcuda::Download<float>(g.ctx, d, n);
  }();
  kcc::CompileOptions opts;
  opts.defines["BUF_N"] = std::to_string(n);
  auto out_static = g.Run<float>(static_src, Dim3(1), Dim3(n), n,
                                 [&](ArgPack& a, vcuda::DevPtr d) { a.Ptr(d).Int(n); }, opts);
  EXPECT_EQ(out_dyn, out_static);
  for (int t = 0; t < n; ++t) EXPECT_FLOAT_EQ(out_static[t], static_cast<float>((t + 1) % n));
}

TEST(KernelC, SharedAtomicsWithinBlock) {
  Gpu g;
  const char* src = R"(
__kernel void f(int* out) {
  __shared int counter[1];
  unsigned int t = threadIdx.x;
  if (t == 0u) {
    counter[0] = 0;
  }
  __syncthreads();
  atomicAdd(counter, 1);
  __syncthreads();
  if (t == 0u) {
    out[blockIdx.x] = counter[0];
  }
}
)";
  auto out = g.Run<int>(src, Dim3(3), Dim3(96), 3,
                        [&](ArgPack& a, vcuda::DevPtr d) { a.Ptr(d); });
  for (int b = 0; b < 3; ++b) EXPECT_EQ(out[b], 96) << b;
}

TEST(Driver, ArgumentTypeMismatchDiagnosed) {
  Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule("__kernel void f(float* p, float x) { p[0] = x; }");
  auto d = ctx.Malloc(16);
  ArgPack wrong_count;
  wrong_count.Ptr(d);
  EXPECT_THROW(ctx.Launch(*mod, "f", Dim3(1), Dim3(1), wrong_count), DeviceError);
  ArgPack wrong_type;
  wrong_type.Ptr(d).Int(3);  // float argument given an int
  EXPECT_THROW(ctx.Launch(*mod, "f", Dim3(1), Dim3(1), wrong_type), DeviceError);
  ArgPack ok;
  ok.Ptr(d).Float(3.0f);
  EXPECT_NO_THROW(ctx.Launch(*mod, "f", Dim3(1), Dim3(1), ok));
}

TEST(Driver, MissingKernelAndOversizedBlockDiagnosed) {
  Context ctx(vgpu::TeslaC1060());  // max 512 threads/block
  auto mod = ctx.LoadModule("__kernel void f(float* p) { p[0] = 1.0f; }");
  auto d = ctx.Malloc(16);
  ArgPack args;
  args.Ptr(d);
  EXPECT_THROW(ctx.Launch(*mod, "nosuch", Dim3(1), Dim3(1), args), DeviceError);
  EXPECT_THROW(ctx.Launch(*mod, "f", Dim3(1), Dim3(1024), args), DeviceError);
}

TEST(Driver, GridDimensionsVisibleToKernels) {
  Gpu g;
  const char* src = R"(
__kernel void f(int* out) {
  if (threadIdx.x == 0u && blockIdx.x == 0u && blockIdx.y == 0u) {
    out[0] = (int)gridDim.x;
    out[1] = (int)gridDim.y;
    out[2] = (int)blockDim.x;
  }
}
)";
  auto out = g.Run<int>(src, Dim3(5, 3), Dim3(32), 3,
                        [&](ArgPack& a, vcuda::DevPtr d) { a.Ptr(d); });
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[1], 3);
  EXPECT_EQ(out[2], 32);
}

}  // namespace
}  // namespace kspec
