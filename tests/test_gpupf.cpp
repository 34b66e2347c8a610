// GPU-PF framework tests: parameter semantics, the refresh phase's selective
// re-derivation (including kernel re-specialization on parameter change),
// copy/kernel/user/file actions, subset windows, schedules, timing, and the
// StageRunner accounting behind module loads and kernel launches.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "gpupf/pipeline.hpp"
#include "vgpu/device.hpp"

namespace kspec::gpupf {
namespace {

using vcuda::Context;
using vgpu::Dim3;

// ---------------------------------------------------------------------------
// Parameters
// ---------------------------------------------------------------------------

TEST(Params, VersionBumpsOnChangeOnly) {
  IntParam p("n", 5);
  auto v0 = p.version();
  p.Set(5);
  EXPECT_EQ(p.version(), v0);
  p.Set(6);
  EXPECT_GT(p.version(), v0);
}

TEST(Params, ScheduleFiring) {
  ScheduleParam s("sched", 3, 2);
  EXPECT_FALSE(s.FiresAt(0));
  EXPECT_FALSE(s.FiresAt(1));
  EXPECT_TRUE(s.FiresAt(2));
  EXPECT_FALSE(s.FiresAt(3));
  EXPECT_TRUE(s.FiresAt(5));
}

TEST(Params, StepWrapsAndTouches) {
  StepParam s("sweep", 2, 8, 2);
  EXPECT_EQ(s.value(), 2);
  EXPECT_FALSE(s.Advance());
  EXPECT_EQ(s.value(), 4);
  s.Advance();
  s.Advance();
  EXPECT_EQ(s.value(), 8);
  EXPECT_TRUE(s.Advance());  // wraps
  EXPECT_EQ(s.value(), 2);
}

TEST(Params, ExtentGeometry) {
  ExtentParam e("buf", sizeof(float), 8, 4, 2);
  EXPECT_EQ(e.count(), 64u);
  EXPECT_EQ(e.bytes(), 256u);
  e.Set(16);
  EXPECT_EQ(e.bytes(), 64u);
}

// ---------------------------------------------------------------------------
// Pipeline: refresh semantics
// ---------------------------------------------------------------------------

constexpr const char* kScaleKernel = R"(
#ifndef SCALE
#define SCALE scale
#endif
__kernel void scaleBuf(float* data, float scale, int n) {
  int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
  if (i < n) {
    data[i] = data[i] * SCALE;
  }
}
)";

TEST(Pipeline, RefreshOnlyTouchesStaleResources) {
  Context ctx(vgpu::TeslaC1060());
  Pipeline pipe(&ctx);
  auto* n = pipe.AddInt("n", 64);
  auto* extent = pipe.AddExtent("extent", sizeof(float), 64);
  auto* mod = pipe.AddModule("mod", kScaleKernel);
  auto* mem = pipe.AddGlobalMemory("buf", extent);
  (void)n;
  (void)mem;
  (void)mod;

  EXPECT_EQ(pipe.Refresh(), 2);  // module + memory
  EXPECT_EQ(pipe.Refresh(), 0);  // nothing stale
  extent->Set(128);
  EXPECT_EQ(pipe.Refresh(), 1);  // only the memory
}

TEST(Pipeline, ParameterChangeTriggersRespecialization) {
  Context ctx(vgpu::TeslaC1060());
  Pipeline pipe(&ctx);
  auto* scale = pipe.AddInt("scale_const", 3);
  auto* mod = pipe.AddModule("mod", kScaleKernel);
  mod->BindDefine("SCALE", scale);
  pipe.Refresh();
  auto misses0 = ctx.cache_stats().misses;
  scale->Set(5);
  pipe.Refresh();
  EXPECT_EQ(ctx.cache_stats().misses, misses0 + 1);  // recompiled
  scale->Set(3);
  pipe.Refresh();
  EXPECT_EQ(ctx.cache_stats().misses, misses0 + 1);  // back to a cached binary
  EXPECT_GE(ctx.cache_stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// Full pipeline execution
// ---------------------------------------------------------------------------

TEST(Pipeline, EndToEndScalePipeline) {
  Context ctx(vgpu::TeslaC1060());
  Pipeline pipe(&ctx);

  const int n = 64;
  auto* extent = pipe.AddExtent("extent", sizeof(float), n);
  auto* host = pipe.AddHostMemory("host", extent);
  auto* dev = pipe.AddGlobalMemory("dev", extent);
  auto* mod = pipe.AddModule("mod", kScaleKernel);
  auto* kernel = pipe.AddKernel("scale", mod, "scaleBuf");
  auto* scale = pipe.AddFloat("scale", 2.0f);
  auto* count = pipe.AddInt("n", n);
  auto* grid = pipe.AddTriplet("grid", Dim3(2));
  auto* block = pipe.AddTriplet("block", Dim3(32));
  auto* every = pipe.AddSchedule("every", 1);

  pipe.AddCopy("upload", every, host, dev);
  pipe.AddKernelExec("scale", every, kernel, grid, block,
                     {dev, scale, count});
  pipe.AddCopy("download", every, dev, host);

  pipe.Refresh();
  auto span = host->host_span<float>();
  for (int i = 0; i < n; ++i) span[i] = static_cast<float>(i);

  pipe.Run(1);
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(span[i], 2.0f * i);

  // Change the scale parameter and run again: same buffers, new value.
  scale->Set(10.0);
  pipe.Run(1);
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(span[i], 20.0f * i);

  EXPECT_GT(pipe.TotalSimMillis(), 0.0);
  std::string report = pipe.TimingReport();
  EXPECT_NE(report.find("upload"), std::string::npos);
  EXPECT_NE(report.find("TOTAL"), std::string::npos);
}

// Kernel actions launch through the pipeline's StageRunner: its launch counts
// equal the actions' invocations, each action's stage folds the same sim ms as
// its timing row, and a module's compile ms is charged to the module's stage
// once per binary per breakdown.
TEST(Pipeline, KernelActionsReportThroughRunner) {
  Context ctx(vgpu::TeslaC1060());
  Pipeline pipe(&ctx);
  auto* scale_const = pipe.AddInt("scale_const", 3);
  auto* mod = pipe.AddModule("mod", kScaleKernel);
  mod->BindDefine("SCALE", scale_const);
  auto* kernel = pipe.AddKernel("k", mod, "scaleBuf");
  auto* ext = pipe.AddExtent("ext", sizeof(float), 64);
  auto* dev = pipe.AddGlobalMemory("dev", ext);
  auto* scale = pipe.AddFloat("scale", 3.0);
  auto* n = pipe.AddInt("n", 64);
  auto* grid = pipe.AddTriplet("grid", Dim3(1));
  auto* block = pipe.AddTriplet("block", Dim3(64));
  auto* every = pipe.AddSchedule("every", 1);
  auto* second = pipe.AddSchedule("second", 2);
  auto* a = pipe.AddKernelExec("scale-a", every, kernel, grid, block, {dev, scale, n});
  auto* b = pipe.AddKernelExec("scale-b", second, kernel, grid, block, {dev, scale, n});

  auto expect_launches_match = [&] {
    const launch::LaunchBreakdown& bd = pipe.runner().breakdown();
    EXPECT_EQ(bd.launches_interp + bd.launches_decoded + bd.launches_native,
              a->timing().invocations + b->timing().invocations);
    EXPECT_DOUBLE_EQ(bd.Stage("scale-a")->sim_millis, a->timing().sim_millis);
    EXPECT_DOUBLE_EQ(bd.Stage("scale-b")->sim_millis, b->timing().sim_millis);
  };
  auto module_compile = [&] { return pipe.runner().breakdown().Stage("mod")->compile_millis; };

  pipe.Run(4);
  EXPECT_EQ(a->timing().invocations, 4u);
  EXPECT_EQ(b->timing().invocations, 2u);
  expect_launches_match();
  const double sk3 = mod->module().compiled().compile_millis;
  EXPECT_GT(sk3, 0.0);
  EXPECT_DOUBLE_EQ(module_compile(), sk3);  // four iterations, one charge

  scale_const->Set(5);  // a new binary: charged
  pipe.Run(1);
  const double sk5 = mod->module().compiled().compile_millis;
  EXPECT_DOUBLE_EQ(module_compile(), sk3 + sk5);
  scale_const->Set(3);  // back to the cached SCALE=3 binary: already charged
  pipe.Run(1);
  EXPECT_DOUBLE_EQ(module_compile(), sk3 + sk5);
  EXPECT_DOUBLE_EQ(pipe.runner().breakdown().compile_millis, sk3 + sk5);
  expect_launches_match();

  // ResetTiming starts a fresh breakdown: the SCALE=5 binary is charged anew.
  pipe.ResetTiming();
  EXPECT_TRUE(pipe.runner().breakdown().stages.empty());
  scale_const->Set(5);
  pipe.Run(1);
  EXPECT_DOUBLE_EQ(module_compile(), sk5);
  expect_launches_match();
}

TEST(Pipeline, SubsetWindowAdvancesPerIteration) {
  Context ctx(vgpu::TeslaC1060());
  Pipeline pipe(&ctx);

  // An 8-frame host buffer streamed one 16-element frame per iteration.
  const int frame = 16, frames = 8;
  auto* full = pipe.AddExtent("full", sizeof(float), frame * frames);
  auto* window = pipe.AddExtent("window", sizeof(float), frame);
  auto* host = pipe.AddHostMemory("host", full);
  auto* dev = pipe.AddGlobalMemory("dev", window);
  auto* sub = pipe.AddSubset("stream", host, window, frame, frames);
  auto* every = pipe.AddSchedule("every", 1);
  pipe.AddCopy("upload", every, sub, dev);

  std::vector<float> seen;
  pipe.AddUserFn("check", every, [&](Pipeline& p, std::uint64_t) {
    float v = 0;
    p.ctx().MemcpyDtoH(&v, dev->dev_ptr(), sizeof(float));
    seen.push_back(v);
  });

  pipe.Refresh();
  auto span = host->host_span<float>();
  for (int f = 0; f < frames; ++f) {
    for (int i = 0; i < frame; ++i) span[f * frame + i] = static_cast<float>(f);
  }
  pipe.Run(frames + 2);  // wraps past the end

  ASSERT_EQ(seen.size(), static_cast<std::size_t>(frames + 2));
  for (int f = 0; f < frames; ++f) EXPECT_FLOAT_EQ(seen[f], static_cast<float>(f));
  EXPECT_FLOAT_EQ(seen[frames], 0.0f);  // wrapped
  EXPECT_FLOAT_EQ(seen[frames + 1], 1.0f);
}

TEST(Pipeline, ScheduledActionsFireOnTheirPeriod) {
  Context ctx(vgpu::TeslaC1060());
  Pipeline pipe(&ctx);
  auto* every = pipe.AddSchedule("every", 1);
  auto* third = pipe.AddSchedule("third", 3, 1);
  int every_count = 0, third_count = 0;
  pipe.AddUserFn("always", every, [&](Pipeline&, std::uint64_t) { ++every_count; });
  pipe.AddUserFn("sometimes", third, [&](Pipeline&, std::uint64_t) { ++third_count; });
  pipe.Run(9);
  EXPECT_EQ(every_count, 9);
  EXPECT_EQ(third_count, 3);  // iterations 1, 4, 7
}

TEST(Pipeline, ConstantMemoryCopyEndpoint) {
  Context ctx(vgpu::TeslaC1060());
  Pipeline pipe(&ctx);
  const char* src = R"(
__constant float coeffs[4];
__kernel void apply(float* out) {
  unsigned int t = threadIdx.x;
  out[t] = coeffs[t % 4u] * 2.0f;
}
)";
  auto* mod = pipe.AddModule("mod", src);
  auto* kernel = pipe.AddKernel("apply", mod, "apply");
  auto* cext = pipe.AddExtent("cext", sizeof(float), 4);
  auto* chost = pipe.AddHostMemory("chost", cext);
  auto* cmem = pipe.AddConstantMemory("coeffs", cext, mod, "coeffs");
  auto* oext = pipe.AddExtent("oext", sizeof(float), 32);
  auto* dev = pipe.AddGlobalMemory("out", oext);
  auto* ohost = pipe.AddHostMemory("outh", oext);
  auto* every = pipe.AddSchedule("every", 1);
  auto* grid = pipe.AddTriplet("grid", Dim3(1));
  auto* block = pipe.AddTriplet("block", Dim3(32));

  pipe.AddCopy("set-coeffs", every, chost, cmem);
  pipe.AddKernelExec("apply", every, kernel, grid, block, {dev});
  pipe.AddCopy("download", every, dev, ohost);

  pipe.Refresh();
  auto cspan = chost->host_span<float>();
  for (int i = 0; i < 4; ++i) cspan[i] = static_cast<float>(i + 1);
  pipe.Run(1);
  auto ospan = ohost->host_span<float>();
  for (int t = 0; t < 32; ++t) EXPECT_FLOAT_EQ(ospan[t], 2.0f * (t % 4 + 1));

  // Constant memory is a destination only: a constant source is diagnosed
  // against the action, whatever the destination.
  auto* cmem2 = pipe.AddConstantMemory("coeffs-2", cext, mod, "coeffs");
  pipe.AddCopy("const-to-const", every, cmem, cmem2);
  try {
    pipe.Run(1);
    ADD_FAILURE() << "a constant-memory copy source must be rejected";
  } catch (const PipelineError& e) {
    EXPECT_NE(std::string(e.what()).find("const-to-const"), std::string::npos) << e.what();
  }
}

TEST(Pipeline, FileIoRoundTrip) {
  Context ctx(vgpu::TeslaC1060());
  std::string path = std::filesystem::temp_directory_path() / "gpupf_io_test.bin";

  {
    Pipeline writer(&ctx);
    auto* ext = writer.AddExtent("ext", sizeof(float), 8);
    auto* host = writer.AddHostMemory("host", ext);
    auto* every = writer.AddSchedule("every", 1);
    writer.AddFileIO("save", every, host, path, FileIOAction::Dir::kWrite);
    writer.Refresh();
    auto span = host->host_span<float>();
    for (int i = 0; i < 8; ++i) span[i] = static_cast<float>(i * i);
    writer.Run(1);
  }
  {
    Pipeline reader(&ctx);
    auto* ext = reader.AddExtent("ext", sizeof(float), 8);
    auto* host = reader.AddHostMemory("host", ext);
    auto* every = reader.AddSchedule("every", 1);
    reader.AddFileIO("load", every, host, path, FileIOAction::Dir::kRead);
    reader.Run(1);
    auto span = host->host_span<float>();
    for (int i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(span[i], static_cast<float>(i * i));
  }
  std::remove(path.c_str());
}

TEST(Pipeline, KernelArgMismatchDiagnosed) {
  Context ctx(vgpu::TeslaC1060());
  Pipeline pipe(&ctx);
  auto* mod = pipe.AddModule("mod", kScaleKernel);
  auto* kernel = pipe.AddKernel("k", mod, "scaleBuf");
  auto* grid = pipe.AddTriplet("grid", Dim3(1));
  auto* block = pipe.AddTriplet("block", Dim3(32));
  auto* every = pipe.AddSchedule("every", 1);
  auto* ext = pipe.AddExtent("ext", sizeof(float), 32);
  auto* dev = pipe.AddGlobalMemory("dev", ext);
  // Missing the scale and n arguments.
  pipe.AddKernelExec("bad", every, kernel, grid, block, {dev});
  EXPECT_THROW(pipe.Run(1), PipelineError);
}


TEST(Pipeline, TextureResourceRebindsOnRespecialization) {
  Context ctx(vgpu::TeslaC1060());
  Pipeline pipe(&ctx);
  const char* src = R"(
#ifndef GAIN
#define GAIN 1
#endif
__texture float img;
__kernel void sampleRow(float* out, int w) {
  int i = (int)threadIdx.x;
  if (i < w) {
    out[i] = tex2D(img, (float)i, 0.0f) * (float)GAIN;
  }
}
)";
  const int w = 16;
  auto* gain = pipe.AddInt("gain", 2);
  auto* mod = pipe.AddModule("mod", src);
  mod->BindDefine("GAIN", gain);
  auto* kernel = pipe.AddKernel("k", mod, "sampleRow");
  auto* tex_ext = pipe.AddExtent("tex-ext", sizeof(float), w);
  auto* tex_host = pipe.AddHostMemory("tex-host", tex_ext);
  auto* tex_dev = pipe.AddGlobalMemory("tex-dev", tex_ext);
  pipe.AddTexture("tex", mod, "img", tex_dev, tex_ext);
  auto* out_dev = pipe.AddGlobalMemory("out-dev", tex_ext);
  auto* out_host = pipe.AddHostMemory("out-host", tex_ext);
  auto* every = pipe.AddSchedule("every", 1);
  auto* grid = pipe.AddTriplet("grid", Dim3(1));
  auto* block = pipe.AddTriplet("block", Dim3(32));
  auto* width = pipe.AddInt("w", w);

  pipe.AddCopy("upload", every, tex_host, tex_dev);
  pipe.AddKernelExec("sample", every, kernel, grid, block, {out_dev, width});
  pipe.AddCopy("download", every, out_dev, out_host);

  pipe.Refresh();
  auto in = tex_host->host_span<float>();
  for (int i = 0; i < w; ++i) in[i] = static_cast<float>(i + 1);

  pipe.Run(1);
  auto out = out_host->host_span<float>();
  for (int i = 0; i < w; ++i) EXPECT_FLOAT_EQ(out[i], 2.0f * (i + 1)) << i;

  // Changing the bound define recompiles the module — a NEW module instance
  // whose texture binding must be re-established by the TextureRes.
  gain->Set(5);
  pipe.Run(1);
  for (int i = 0; i < w; ++i) EXPECT_FLOAT_EQ(out[i], 5.0f * (i + 1)) << i;
}

}  // namespace
}  // namespace kspec::gpupf
