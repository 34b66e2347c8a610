// Launch-layer tests: SpecBuilder stringification and validation, RAII device
// buffers, StageRunner accounting, bit-identical statistics across contexts of
// one device profile, MakeRegions tiling edge cases, and tiered / async
// promotion through a shared runner (exercised by an actual app driver).
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "apps/matching/gpu.hpp"
#include "apps/matching/problem.hpp"
#include "apps/piv/cpu_ref.hpp"
#include "apps/piv/gpu.hpp"
#include "apps/piv/problem.hpp"
#include "launch/spec_builder.hpp"
#include "launch/stage_runner.hpp"
#include "launch/transfer_model.hpp"
#include "serve/compile_executor.hpp"
#include "vcuda/device_buffer.hpp"
#include "vcuda/vcuda.hpp"

namespace kspec {
namespace {

using launch::LoadPolicy;
using launch::ParamTable;
using launch::SpecBuilder;
using launch::SpecError;
using launch::StageRunner;
using launch::TransferModel;

// ---------------------------------------------------------------- SpecBuilder

TEST(SpecBuilder, StringificationRules) {
  SpecBuilder spec;
  spec.Flag("CT_FLAG")
      .Value("K_INT", 7)
      .Value("K_NEG", -3)
      .Value("K_BIG", 0xFFFFFFFFFFFFull)
      .Value("K_BOOL_T", true)
      .Value("K_BOOL_F", false)
      .Value("K_HALF", 0.5)
      .Value("K_QUARTER", 0.25f)
      .Value("SRC_T", "float")
      .Pointer("K_TABLE", 0xdeadbeefull);
  const auto& d = spec.defines();
  EXPECT_EQ(d.at("CT_FLAG"), "1");
  EXPECT_EQ(d.at("K_INT"), "7");
  EXPECT_EQ(d.at("K_NEG"), "-3");
  EXPECT_EQ(d.at("K_BIG"), "281474976710655");
  EXPECT_EQ(d.at("K_BOOL_T"), "1");
  EXPECT_EQ(d.at("K_BOOL_F"), "0");
  EXPECT_EQ(d.at("K_HALF"), "0.5f");     // %.9g + 'f' suffix
  EXPECT_EQ(d.at("K_QUARTER"), "0.25f");
  EXPECT_EQ(d.at("SRC_T"), "float");     // verbatim text
  EXPECT_EQ(d.at("K_TABLE"), "0xdeadbeef");
}

TEST(SpecBuilder, DuplicateDefineRejected) {
  SpecBuilder spec;
  spec.Value("K_N", 4);
  EXPECT_THROW(spec.Value("K_N", 4), SpecError);

  // RE mode emits nothing but still rejects duplicates: the misuse is in the
  // call sites, not the define set.
  SpecBuilder re(/*specialize=*/false);
  re.Value("K_N", 4);
  EXPECT_THROW(re.Value("K_N", 5), SpecError);
}

TEST(SpecBuilder, ReuseDocumentsAnExistingDefineOnly) {
  SpecBuilder spec;
  spec.Value("K_N_SHIFTS", 48);
  EXPECT_NO_THROW(spec.Reuse("K_N_SHIFTS"));        // intentional cross-stage read
  EXPECT_THROW(spec.Reuse("K_UNDEFINED"), SpecError);  // the reuse must be real
  EXPECT_EQ(spec.defines().size(), 1u);             // Reuse never adds defines
}

TEST(SpecBuilder, ReModeProducesEmptyDefineSet) {
  SpecBuilder re(/*specialize=*/false);
  re.Flag("CT_SHIFT").Value("K_SHIFT_W", 8).Value("K_F", 1.5);
  EXPECT_FALSE(re.specializing());
  EXPECT_TRUE(re.defines().empty());
  EXPECT_TRUE(re.Build().defines.empty());
}

TEST(SpecBuilder, ParamTableValidation) {
  ParamTable table("demo");
  table.Flag("CT_CAP", "capability flag").Value("K_N", "element count");
  EXPECT_TRUE(table.Knows("CT_CAP"));
  EXPECT_TRUE(table.IsFlag("CT_CAP"));
  EXPECT_FALSE(table.IsFlag("K_N"));
  EXPECT_NE(table.Describe().find("CT_CAP"), std::string::npos);

  SpecBuilder spec(/*specialize=*/true, &table);
  EXPECT_NO_THROW(spec.Flag("CT_CAP"));
  EXPECT_NO_THROW(spec.Value("K_N", 16));
  SpecBuilder bad1(true, &table);
  EXPECT_THROW(bad1.Value("K_TYPO", 1), SpecError);  // undeclared macro
  SpecBuilder bad2(true, &table);
  EXPECT_THROW(bad2.Value("CT_CAP", 3), SpecError);  // flag used as value
  SpecBuilder bad3(true, &table);
  EXPECT_THROW(bad3.Flag("K_N"), SpecError);         // value used as flag
}

TEST(SpecBuilder, BuildPreservesBaseOptions) {
  SpecBuilder spec;
  spec.Value("K_N", 4);
  kcc::CompileOptions base;
  base.max_unroll = 7;
  base.optimize = false;
  kcc::CompileOptions built = spec.Build(base);
  EXPECT_EQ(built.max_unroll, 7);
  EXPECT_FALSE(built.optimize);
  EXPECT_EQ(built.defines.at("K_N"), "4");
}

TEST(SpecBuilder, AppTablesValidateTheirOwnDrivers) {
  // The declared tables (Table 4.1 analogues) know the macros the drivers use.
  EXPECT_TRUE(apps::matching::MatcherParams().Knows("K_N_SHIFTS"));
  EXPECT_TRUE(apps::matching::MatcherParams().IsFlag("CT_SUM"));
  EXPECT_TRUE(apps::piv::PivParams().Knows("K_RB"));
}

// --------------------------------------------------------------- DeviceBuffer

TEST(DeviceBuffer, FreesOnDestruction) {
  vcuda::Context ctx(vgpu::TeslaC2070());
  {
    vcuda::DeviceBuffer b(ctx, 256);
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_EQ(ctx.memory().allocation_count(), 1u);
  }
  EXPECT_EQ(ctx.memory().allocation_count(), 0u);
  EXPECT_EQ(ctx.memory().bytes_in_use(), 0u);
}

TEST(DeviceBuffer, MoveTransfersOwnership) {
  vcuda::Context ctx(vgpu::TeslaC2070());
  vcuda::DeviceBuffer a(ctx, 64);
  vgpu::DevPtr p = a.get();
  vcuda::DeviceBuffer b(std::move(a));
  EXPECT_EQ(b.get(), p);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_EQ(ctx.memory().allocation_count(), 1u);
  vcuda::DeviceBuffer c(ctx, 32);
  c = std::move(b);  // move-assign frees c's old allocation
  EXPECT_EQ(c.get(), p);
  EXPECT_EQ(ctx.memory().allocation_count(), 1u);
  c.Reset();
  EXPECT_EQ(ctx.memory().allocation_count(), 0u);
}

TEST(DeviceBuffer, ZeroBytesAllocatesNothing) {
  vcuda::Context ctx(vgpu::TeslaC2070());
  vcuda::DeviceBuffer b(ctx, 0);
  EXPECT_FALSE(static_cast<bool>(b));
  EXPECT_EQ(ctx.memory().allocation_count(), 0u);
}

TEST(DeviceBuffer, TypedRoundTrip) {
  vcuda::Context ctx(vgpu::TeslaC2070());
  std::vector<float> host = {1.0f, 2.5f, -3.0f, 0.0f};
  auto buf = vcuda::UploadBuffer<float>(ctx, std::span<const float>(host));
  EXPECT_EQ(buf.count(), host.size());
  EXPECT_EQ(buf.Download(), host);
  EXPECT_THROW(buf.Upload(std::span<const float>(host.data(), 2)), Error);
}

// ---------------------------------------------------------------- StageRunner

// A single-source RE/SK kernel (Appendix B shape) for runner tests.
constexpr const char* kScaleKernel = R"(
#ifndef K_SCALE
#define K_SCALE scale
#endif

__kernel void scaleK(float* in, float* out, float scale, int n) {
  unsigned int t = blockIdx.x * blockDim.x + threadIdx.x;
  if ((int)t < n) out[t] = in[t] * K_SCALE;
}
)";

TEST(StageRunner, UploadChargesTheSharedTransferModel) {
  vcuda::Context ctx(vgpu::TeslaC2070());
  StageRunner runner(ctx);
  std::vector<float> host(1000, 1.0f);
  auto d_in = runner.Upload<float>(std::span<const float>(host));
  TransferModel model;
  EXPECT_DOUBLE_EQ(runner.breakdown().transfer_millis, model.HtoDMillis(host.size() * 4));
  auto back = runner.Download(d_in);
  EXPECT_DOUBLE_EQ(runner.breakdown().transfer_millis,
                   model.HtoDMillis(host.size() * 4) + model.DtoHMillis(host.size() * 4));
  EXPECT_EQ(back, host);
}

TEST(StageRunner, RecordsStagesAndTakeBreakdownResets) {
  vcuda::Context ctx(vgpu::TeslaC2070());
  StageRunner runner(ctx);
  std::vector<float> host(64, 2.0f);
  auto d_in = runner.Upload<float>(std::span<const float>(host));
  auto d_out = runner.Alloc<float>(host.size());

  SpecBuilder spec;
  spec.Value("K_SCALE", 3.0f);
  vcuda::ArgPack args;
  args.Ptr(d_in.get()).Ptr(d_out.get()).Float(3.0f).Int(64);
  runner.Run("scale", kScaleKernel, spec, "scaleK", vgpu::Dim3(1), vgpu::Dim3(64), args);
  runner.Run("scale", kScaleKernel, spec, "scaleK", vgpu::Dim3(1), vgpu::Dim3(64), args);

  const auto& bd = runner.breakdown();
  ASSERT_EQ(bd.stages.size(), 1u);  // same-name launches merge into one record
  const launch::StageRecord* rec = bd.Stage("scale");
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->reg_count, 0);
  EXPECT_GT(rec->sim_millis, 0.0);
  EXPECT_DOUBLE_EQ(bd.sim_millis, rec->sim_millis);
  EXPECT_EQ(runner.Download(d_out), std::vector<float>(64, 6.0f));

  launch::LaunchBreakdown taken = runner.TakeBreakdown();
  EXPECT_EQ(taken.stages.size(), 1u);
  EXPECT_TRUE(runner.breakdown().stages.empty());
  EXPECT_EQ(runner.breakdown().transfer_millis, 0.0);
  EXPECT_EQ(runner.breakdown().sim_millis, 0.0);
}

TEST(StageRunner, InlinePolicyAlwaysSpecialized) {
  vcuda::Context ctx(vgpu::TeslaC2070());
  StageRunner runner(ctx);
  SpecBuilder spec;
  spec.Value("K_SCALE", 2.0f);
  EXPECT_TRUE(runner.IsSpecialized(kScaleKernel, spec));
}

TEST(StageRunner, TieredPolicyPromotesAtThreshold) {
  vcuda::Context ctx(vgpu::TeslaC2070());
  StageRunner runner(ctx, {.policy = LoadPolicy::kTiered, .hot_threshold = 2});
  std::vector<float> host(64, 2.0f);
  auto d_in = runner.Upload<float>(std::span<const float>(host));
  auto d_out = runner.Alloc<float>(host.size());
  SpecBuilder spec;
  spec.Value("K_SCALE", 3.0f);
  vcuda::ArgPack args;
  args.Ptr(d_in.get()).Ptr(d_out.get()).Float(3.0f).Int(64);

  runner.Run("scale", kScaleKernel, spec, "scaleK", vgpu::Dim3(1), vgpu::Dim3(64), args);
  EXPECT_FALSE(runner.IsSpecialized(kScaleKernel, spec));  // cold: served RE
  EXPECT_EQ(runner.tiered_stats().re_served, 1u);

  // No async service attached: the threshold promotion blocks and serves SK.
  runner.Run("scale", kScaleKernel, spec, "scaleK", vgpu::Dim3(1), vgpu::Dim3(64), args);
  EXPECT_TRUE(runner.IsSpecialized(kScaleKernel, spec));
  EXPECT_EQ(runner.tiered_stats().sk_served, 1u);
  EXPECT_EQ(runner.tiered_stats().specializations, 1u);
  EXPECT_EQ(runner.Download(d_out), std::vector<float>(64, 6.0f));
}

// A launch the device rejects (VC1060 caps blocks at 512 threads) throws from
// that launch alone, after the load succeeded: it is not counted, and the
// runner and its context keep serving.
TEST(StageRunner, RejectedLaunchLeavesTheRunnerServing) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  StageRunner runner(ctx);
  std::vector<float> host(1024, 2.0f);
  auto d_in = runner.Upload<float>(std::span<const float>(host));
  auto d_out = runner.Alloc<float>(host.size());
  SpecBuilder spec;
  spec.Value("K_SCALE", 3.0f);
  vcuda::ArgPack args;
  args.Ptr(d_in.get()).Ptr(d_out.get()).Float(3.0f).Int(1024);

  EXPECT_THROW(runner.Run("scale", kScaleKernel, spec, "scaleK", vgpu::Dim3(1),
                          vgpu::Dim3(1024), args),
               Error);
  runner.Run("scale", kScaleKernel, spec, "scaleK", vgpu::Dim3(2), vgpu::Dim3(512), args);
  const launch::LaunchBreakdown& bd = runner.breakdown();
  EXPECT_EQ(bd.launches_interp + bd.launches_decoded + bd.launches_native, 1u);
  EXPECT_EQ(runner.Download(d_out), std::vector<float>(1024, 6.0f));
}

// The same specialization on two contexts of one device profile simulates
// bit-identically; a different profile changes the simulated execution. Each
// context loads through a tiered runner at threshold 1, which specializes on
// first use.
TEST(StageRunner, SameProfileContextsProduceBitIdenticalLaunchStats) {
  auto run = [](const vgpu::DeviceProfile& profile) {
    vcuda::Context ctx(profile);
    StageRunner runner(ctx, {.policy = LoadPolicy::kTiered, .hot_threshold = 1});
    std::vector<float> host(64, 2.0f);
    auto d_in = runner.Upload<float>(std::span<const float>(host));
    auto d_out = runner.Alloc<float>(host.size());
    SpecBuilder spec;
    spec.Value("K_SCALE", 3.0f);
    vcuda::ArgPack args;
    args.Ptr(d_in.get()).Ptr(d_out.get()).Float(3.0f).Int(64);
    const vgpu::LaunchStats st = runner.Run("scale", kScaleKernel, spec, "scaleK",
                                            vgpu::Dim3(1), vgpu::Dim3(64), args);
    EXPECT_TRUE(runner.IsSpecialized(kScaleKernel, spec));
    EXPECT_EQ(runner.Download(d_out), std::vector<float>(64, 6.0f));
    return st;
  };
  const vgpu::LaunchStats first = run(vgpu::TeslaC1060());
  const vgpu::LaunchStats mirror = run(vgpu::TeslaC1060());
  const vgpu::LaunchStats other = run(vgpu::TeslaC2070());
  EXPECT_TRUE(vgpu::StatsBitIdentical(first, mirror))
      << "the same launch on two same-profile contexts must simulate identically";
  EXPECT_FALSE(vgpu::StatsBitIdentical(first, other))
      << "a different device profile must change the simulated execution";
}

// The acceptance-criterion demo as a test: a repeated-problem app run under
// the tiered policy shows promotion stats advancing — the RE build answers
// while the specialized build compiles on the background executor.
TEST(StageRunnerTiered, AppRunServesReWhileSpecializationCompiles) {
  serve::CompileExecutor executor({.workers = 1, .max_queue = 16});
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_async_service(&executor);
  StageRunner runner(ctx, {.policy = LoadPolicy::kTiered, .hot_threshold = 2});

  apps::piv::Problem p = apps::piv::Generate("hot", 32, 8, 2, 4, 7);
  apps::piv::PivConfig cfg;
  cfg.variant = apps::piv::Variant::kWarpSpec;  // single-source: RE fallback is valid
  cfg.threads = 32;

  // Call 1: cold — the RE build answers, nothing scheduled.
  apps::piv::PivGpuResult r1 = GpuPiv(runner, p, cfg);
  auto s = runner.tiered_stats();
  EXPECT_EQ(s.re_served, 1u);
  EXPECT_EQ(s.background_compiles, 0u);
  EXPECT_EQ(s.sk_served, 0u);

  // Call 2: the heat threshold schedules the specialized compile on the
  // executor and this call is still answered RE — no stall.
  apps::piv::PivGpuResult r2 = GpuPiv(runner, p, cfg);
  s = runner.tiered_stats();
  EXPECT_EQ(s.re_served, 2u);
  EXPECT_EQ(s.background_compiles, 1u);
  EXPECT_GE(s.re_served_while_compiling, 1u);
  EXPECT_EQ(s.sk_served, 0u);

  // Once the background build lands, the next call swaps it in.
  executor.Drain();
  apps::piv::PivGpuResult r3 = GpuPiv(runner, p, cfg);
  s = runner.tiered_stats();
  EXPECT_EQ(s.sk_served, 1u);
  EXPECT_EQ(s.specializations, 1u);
  EXPECT_EQ(s.promotions_pending, 0u);

  // The tier that answered must not change the numbers (RE == SK).
  EXPECT_EQ(r1.field.best_offset, r3.field.best_offset);
  ASSERT_EQ(r1.field.best_score.size(), r3.field.best_score.size());
  for (std::size_t i = 0; i < r1.field.best_score.size(); ++i) {
    EXPECT_FLOAT_EQ(r1.field.best_score[i], r3.field.best_score[i]) << "mask " << i;
  }
  EXPECT_EQ(r2.field.best_offset, r3.field.best_offset);
  executor.Shutdown();
}

// ---------------------------------------------------------------- MakeRegions

namespace matching = apps::matching;

int CoveredArea(const std::vector<matching::TileRegion>& regions) {
  int area = 0;
  for (const auto& r : regions) area += r.th * r.tw * r.tiles();
  return area;
}

TEST(MakeRegions, TemplateExactlyOneTile) {
  matching::Problem p = matching::Generate("one", 8, 8, 2, 2, 1);
  matching::MatcherConfig cfg;
  cfg.tile_h = 8;
  cfg.tile_w = 8;
  auto regions = matching::MakeRegions(p, cfg);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].th, 8);
  EXPECT_EQ(regions[0].tw, 8);
  EXPECT_EQ(regions[0].tiles(), 1);
  EXPECT_EQ(CoveredArea(regions), p.tpl_h * p.tpl_w);
}

TEST(MakeRegions, FourRegionDecompositionCoversTemplate) {
  // 11x13 with 4x8 tiles: main 2x1, right edge (w=5), bottom (h=3), corner.
  matching::Problem p = matching::Generate("edges", 11, 13, 3, 3, 1);
  matching::MatcherConfig cfg;
  cfg.tile_h = 4;
  cfg.tile_w = 8;
  auto regions = matching::MakeRegions(p, cfg);
  ASSERT_EQ(regions.size(), 4u);
  EXPECT_EQ(CoveredArea(regions), p.tpl_h * p.tpl_w);
}

TEST(MakeRegions, RemainderOnlyColumns) {
  // Template narrower than one tile: the full width is a single remainder
  // column, tiled down the rows.
  matching::Problem p = matching::Generate("cols", 8, 3, 2, 2, 1);
  matching::MatcherConfig cfg;
  cfg.tile_h = 4;
  cfg.tile_w = 8;
  auto regions = matching::MakeRegions(p, cfg);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].th, 4);
  EXPECT_EQ(regions[0].tw, 3);
  EXPECT_EQ(regions[0].tiles_y, 2);
  EXPECT_EQ(CoveredArea(regions), p.tpl_h * p.tpl_w);
}

TEST(MakeRegions, RemainderOnlyRows) {
  matching::Problem p = matching::Generate("rows", 3, 8, 2, 2, 1);
  matching::MatcherConfig cfg;
  cfg.tile_h = 8;
  cfg.tile_w = 4;
  auto regions = matching::MakeRegions(p, cfg);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].th, 3);
  EXPECT_EQ(regions[0].tiles_x, 2);
  EXPECT_EQ(CoveredArea(regions), p.tpl_h * p.tpl_w);
}

TEST(MakeRegions, TemplateSmallerThanOneTileThrows) {
  matching::Problem p = matching::Generate("tiny", 4, 4, 2, 2, 1);
  matching::MatcherConfig cfg;
  cfg.tile_h = 8;
  cfg.tile_w = 8;
  EXPECT_THROW(matching::MakeRegions(p, cfg), Error);
}

}  // namespace
}  // namespace kspec
