// Native execution tier: bit-identical LaunchStats against the decoded tier
// (serial and parallel), warm-cache cross-engine reuse with zero recompiles,
// corrupt/stale/version-bump artifact degradation, store round-trips,
// background promotion through NativeBuildExecutor, tier-selection precedence,
// cross-tier identity over all four applications, and the shape-specialized
// variant ladder: eager/auto variant serving, variant-vs-generic cache-key
// separation, per-variant corruption quarantine, and the per-module variant
// cap with LRU eviction.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>

#include "apps/backproj/gpu.hpp"
#include "apps/backproj/problem.hpp"
#include "apps/matching/gpu.hpp"
#include "apps/matching/problem.hpp"
#include "apps/piv/gpu.hpp"
#include "apps/piv/problem.hpp"
#include "apps/rowfilter/rowfilter.hpp"
#include "kcc/cache_key.hpp"
#include "kcc/serialize.hpp"
#include "native/build.hpp"
#include "native/build_executor.hpp"
#include "native/engine.hpp"
#include "netd/artifact_store.hpp"
#include "support/serialize.hpp"
#include "vcuda/vcuda.hpp"
#include "vgpu/interp.hpp"
#include "vgpu/tier.hpp"

namespace kspec {
namespace {

namespace fs = std::filesystem;
using vgpu::ExecutionTier;

// This suite exercises every level of the tier-precedence chain itself, so a
// VGPU_TIER forced in the environment (the CI native leg runs the rest of the
// suite that way) would invalidate the request-level assertions. Drop it
// before any launch — EnvTier() parses lazily on first use.
const bool kEnvTierNeutralized = [] {
  ::unsetenv("VGPU_TIER");
  return true;
}();

// A nontrivial kernel exercising the features the emitter must get right:
// data-dependent divergence, a strided loop, shared memory, an in-block
// reduction with barriers, and a specializable bound.
constexpr const char* kKernel = R"(
#ifndef SCALE
#define SCALE scale
#endif
__kernel void reduce(float* out, float* in, int n, int scale) {
  __shared float sums[64];
  int t = threadIdx.x;
  float acc = 0.0f;
  for (int i = t; i < n; i += 64) {
    float v = in[i + blockIdx.x * n];
    if (v > 0.5f) {
      acc += v * 2.0f;
    } else {
      acc -= v;
    }
  }
  sums[t] = acc;
  __syncthreads();
  for (int s = 32; s > 0; s = s / 2) {
    if (t < s) {
      sums[t] = sums[t] + sums[t + s];
    }
    __syncthreads();
  }
  out[blockIdx.x * 64 + t] = sums[0] + acc * (float)SCALE;
}
)";

kcc::CompileOptions OptsFor(int scale) {
  kcc::CompileOptions opts;
  opts.defines["SCALE"] = std::to_string(scale);
  return opts;
}

// A scratch cache directory, fresh per test, removed on destruction. The tag
// keeps multiple directories within one test distinct.
struct TempCacheDir {
  explicit TempCacheDir(const std::string& tag = "") {
    dir = fs::temp_directory_path() /
          ("kspec_native_test_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TempCacheDir() { fs::remove_all(dir); }
  std::string str() const { return dir.string(); }
  fs::path dir;
};

// RAII guards for the process-wide overrides so a failing test cannot leak
// its tier or worker policy into the next one.
struct TierGuard {
  explicit TierGuard(ExecutionTier t) { vgpu::SetTierOverride(&t); }
  ~TierGuard() { vgpu::SetTierOverride(nullptr); }
};
struct PolicyGuard {
  explicit PolicyGuard(vgpu::ExecPolicy p) { vgpu::SetExecPolicyOverride(&p); }
  ~PolicyGuard() { vgpu::SetExecPolicyOverride(nullptr); }
};
struct ShapeGuard {
  explicit ShapeGuard(vgpu::ShapeMode m) { vgpu::SetShapeModeOverride(&m); }
  ~ShapeGuard() { vgpu::SetShapeModeOverride(nullptr); }
};

vgpu::ExecPolicy Parallel4() {
  vgpu::ExecPolicy p;
  p.mode = vgpu::ExecMode::kParallel;
  p.workers = 4;
  return p;
}

struct LaunchOutcome {
  vgpu::LaunchStats stats;
  std::vector<float> out;
  vcuda::LaunchExecution exec;
};

// One launch of kKernel's reduce over `blocks` blocks on the given tier.
LaunchOutcome RunReduce(vcuda::Context& ctx, vcuda::Module& mod, ExecutionTier request,
                        int blocks = 4, int n = 256, int scale = 3) {
  std::vector<float> in(static_cast<std::size_t>(blocks) * n);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>((i * 37 % 100)) / 100.0f;
  }
  vcuda::DevPtr d_in = vcuda::Upload<float>(ctx, in);
  vcuda::DevPtr d_out = ctx.Malloc(static_cast<std::uint64_t>(blocks) * 64 * sizeof(float));
  vcuda::ArgPack args;
  args.Ptr(d_out).Ptr(d_in).Int(n).Int(scale);
  LaunchOutcome r;
  r.exec.request = request;
  r.stats = ctx.Launch(mod, "reduce", vgpu::Dim3(static_cast<unsigned>(blocks)),
                       vgpu::Dim3(64), args, 0, &r.exec);
  r.out = vcuda::Download<float>(ctx, d_out, static_cast<std::size_t>(blocks) * 64);
  ctx.Free(d_out);
  ctx.Free(d_in);
  return r;
}

#define SKIP_WITHOUT_TOOLCHAIN()                                          \
  if (!native::ToolchainAvailable()) {                                    \
    GTEST_SKIP() << "no host C++ toolchain; native tier disabled";        \
  }

// ---------------------------------------------------------------------------
// Tier selection plumbing (no toolchain needed).
// ---------------------------------------------------------------------------

TEST(TierSelection, ParseAndNameRoundTrip) {
  for (ExecutionTier t : {ExecutionTier::kAuto, ExecutionTier::kInterp,
                          ExecutionTier::kDecoded, ExecutionTier::kNative}) {
    ExecutionTier parsed = ExecutionTier::kAuto;
    EXPECT_TRUE(vgpu::ParseTier(vgpu::TierName(t), &parsed));
    EXPECT_EQ(parsed, t);
  }
  ExecutionTier parsed = ExecutionTier::kDecoded;
  EXPECT_FALSE(vgpu::ParseTier("warp-drive", &parsed));
  EXPECT_EQ(parsed, ExecutionTier::kDecoded) << "failed parse must not touch out";
  EXPECT_FALSE(vgpu::ParseTier("", &parsed));
}

TEST(TierSelection, ResolvePrecedence) {
  // Request beats context default; kAuto request defers to the default.
  EXPECT_EQ(vgpu::ResolveTier(ExecutionTier::kInterp, ExecutionTier::kNative),
            ExecutionTier::kInterp);
  EXPECT_EQ(vgpu::ResolveTier(ExecutionTier::kAuto, ExecutionTier::kDecoded),
            ExecutionTier::kDecoded);
  EXPECT_EQ(vgpu::ResolveTier(ExecutionTier::kAuto, ExecutionTier::kAuto),
            ExecutionTier::kAuto);
  // The test override beats everything.
  {
    TierGuard g(ExecutionTier::kInterp);
    EXPECT_EQ(vgpu::ResolveTier(ExecutionTier::kNative, ExecutionTier::kDecoded),
              ExecutionTier::kInterp);
  }
  EXPECT_EQ(vgpu::ResolveTier(ExecutionTier::kNative), ExecutionTier::kNative);
}

TEST(TierSelection, ContextCountsServedTiers) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  LaunchOutcome interp = RunReduce(ctx, *mod, ExecutionTier::kInterp);
  LaunchOutcome decoded = RunReduce(ctx, *mod, ExecutionTier::kDecoded);
  EXPECT_EQ(interp.exec.served, ExecutionTier::kInterp);
  EXPECT_EQ(decoded.exec.served, ExecutionTier::kDecoded);
  EXPECT_TRUE(vgpu::StatsBitIdentical(interp.stats, decoded.stats));
  EXPECT_EQ(interp.out, decoded.out);
  vcuda::TierStats ts = ctx.tier_stats();
  EXPECT_EQ(ts.launches_interp, 1u);
  EXPECT_EQ(ts.launches_decoded, 1u);
  EXPECT_EQ(ts.launches_native, 0u);
}

TEST(TierSelection, NativeRequestWithoutServiceFallsBack) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  LaunchOutcome native = RunReduce(ctx, *mod, ExecutionTier::kNative);
  EXPECT_EQ(native.exec.served, ExecutionTier::kDecoded);
  EXPECT_TRUE(native.exec.native_fallback);
  EXPECT_EQ(ctx.tier_stats().native_fallbacks, 1u);
}

// ---------------------------------------------------------------------------
// The native tier proper.
// ---------------------------------------------------------------------------

TEST(NativeTier, ForcedNativeBitIdenticalToDecoded) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine(nopts);
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine);
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));

  LaunchOutcome decoded = RunReduce(ctx, *mod, ExecutionTier::kDecoded);
  LaunchOutcome native = RunReduce(ctx, *mod, ExecutionTier::kNative);

  EXPECT_EQ(native.exec.served, ExecutionTier::kNative);
  EXPECT_FALSE(native.exec.native_fallback);
  EXPECT_TRUE(vgpu::StatsBitIdentical(decoded.stats, native.stats))
      << "decoded vs native LaunchStats diverged";
  EXPECT_EQ(decoded.out, native.out);

  native::NativeEngineStats es = engine.stats();
  EXPECT_EQ(es.builds_started, 1u);
  EXPECT_EQ(es.builds_completed, 1u);
  EXPECT_EQ(es.build_failures, 0u);
  EXPECT_EQ(es.served_launches, 1u);
  // The artifact landed on disk under the content-addressed name.
  kcc::ModuleCacheKey key =
      kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
  EXPECT_TRUE(fs::exists(cache.dir / native::NativeEngine::ArtifactFileName(key)));

  vcuda::TierStats ts = ctx.tier_stats();
  EXPECT_EQ(ts.launches_native, 1u);
  EXPECT_EQ(ts.native_fallbacks, 0u);
}

TEST(NativeTier, ParallelWorkersBitIdentical) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine(nopts);
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine);
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));

  // Enough blocks for several chunks so the parallel path genuinely shards.
  LaunchOutcome serial = RunReduce(ctx, *mod, ExecutionTier::kNative, /*blocks=*/32);
  LaunchOutcome decoded_par = [&] {
    PolicyGuard g(Parallel4());
    return RunReduce(ctx, *mod, ExecutionTier::kDecoded, /*blocks=*/32);
  }();
  LaunchOutcome native_par = [&] {
    PolicyGuard g(Parallel4());
    return RunReduce(ctx, *mod, ExecutionTier::kNative, /*blocks=*/32);
  }();

  EXPECT_EQ(serial.exec.served, ExecutionTier::kNative);
  EXPECT_EQ(native_par.exec.served, ExecutionTier::kNative);
  EXPECT_TRUE(vgpu::StatsBitIdentical(serial.stats, decoded_par.stats));
  EXPECT_TRUE(vgpu::StatsBitIdentical(serial.stats, native_par.stats));
  EXPECT_EQ(serial.out, native_par.out);
}

TEST(NativeTier, AutoServesOnlyAfterEnsureReady) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine(nopts);
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine);
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  kcc::ModuleCacheKey key =
      kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);

  // kAuto with nothing built: the launch must not block on a build.
  LaunchOutcome cold = RunReduce(ctx, *mod, ExecutionTier::kAuto);
  EXPECT_EQ(cold.exec.served, ExecutionTier::kDecoded);
  EXPECT_EQ(engine.stats().builds_started, 0u);
  EXPECT_FALSE(engine.IsReady(key));

  ASSERT_TRUE(engine.EnsureReady(key, mod->compiled()));
  EXPECT_TRUE(engine.IsReady(key));

  LaunchOutcome warm = RunReduce(ctx, *mod, ExecutionTier::kAuto);
  EXPECT_EQ(warm.exec.served, ExecutionTier::kNative);
  EXPECT_TRUE(vgpu::StatsBitIdentical(cold.stats, warm.stats));
  EXPECT_EQ(cold.out, warm.out);
}

TEST(NativeTier, SecondEngineServesFromWarmDiskCacheWithZeroRebuilds) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  kcc::ModuleCacheKey key;
  {
    native::NativeEngine::Options nopts;
    nopts.cache_dir = cache.str();
    native::NativeEngine engine(nopts);
    vcuda::Context ctx(vgpu::TeslaC1060());
    ctx.set_native_service(&engine);
    auto mod = ctx.LoadModule(kKernel, OptsFor(3));
    key = kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
    ASSERT_TRUE(engine.EnsureReady(key, mod->compiled()));
    EXPECT_EQ(engine.stats().builds_started, 1u);
  }
  // A fresh engine (standing in for a second process) over the same cache
  // directory: served from disk, no compiler invocation.
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine2(nopts);
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine2);
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  LaunchOutcome r = RunReduce(ctx, *mod, ExecutionTier::kNative);
  EXPECT_EQ(r.exec.served, ExecutionTier::kNative);
  native::NativeEngineStats es = engine2.stats();
  EXPECT_EQ(es.disk_hits, 1u);
  EXPECT_EQ(es.builds_started, 0u);
  EXPECT_EQ(es.served_launches, 1u);
}

TEST(NativeTier, CorruptArtifactDegradesThenRebuilds) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  kcc::ModuleCacheKey key;
  {
    native::NativeEngine::Options nopts;
    nopts.cache_dir = cache.str();
    native::NativeEngine engine(nopts);
    vcuda::Context ctx(vgpu::TeslaC1060());
    ctx.set_native_service(&engine);
    auto mod = ctx.LoadModule(kKernel, OptsFor(3));
    key = kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
    ASSERT_TRUE(engine.EnsureReady(key, mod->compiled()));
  }
  const fs::path artifact = cache.dir / native::NativeEngine::ArtifactFileName(key);
  ASSERT_TRUE(fs::exists(artifact));

  // Flip a byte deep in the payload: the checksum catches it.
  {
    std::fstream f(artifact, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(artifact) / 2));
    char c = 0;
    f.seekg(f.tellp());
    f.read(&c, 1);
    f.seekp(-1, std::ios::cur);
    c = static_cast<char>(c ^ 0x5a);
    f.write(&c, 1);
  }

  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine2(nopts);
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine2);
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));

  // kAuto: the corrupt artifact is quarantined and the launch quietly runs
  // decoded — never an error.
  LaunchOutcome degraded = RunReduce(ctx, *mod, ExecutionTier::kAuto);
  EXPECT_EQ(degraded.exec.served, ExecutionTier::kDecoded);
  native::NativeEngineStats es = engine2.stats();
  EXPECT_EQ(es.corrupt_quarantined, 1u);
  EXPECT_EQ(es.builds_started, 0u);
  EXPECT_FALSE(fs::exists(artifact)) << "corrupt artifact must be renamed aside";
  const std::string aside = artifact.filename().string() + ".bad.";
  EXPECT_TRUE(std::any_of(fs::directory_iterator(cache.dir), fs::directory_iterator(),
                          [&](const fs::directory_entry& e) {
                            return e.path().filename().string().starts_with(aside);
                          }))
      << "expected the quarantined <name>.bad.<pid>.<n> beside " << artifact;

  // A forced native launch may build, and the rebuild replaces the artifact.
  LaunchOutcome forced = RunReduce(ctx, *mod, ExecutionTier::kNative);
  EXPECT_EQ(forced.exec.served, ExecutionTier::kNative);
  EXPECT_EQ(engine2.stats().builds_completed, 1u);
  EXPECT_TRUE(fs::exists(artifact));
  EXPECT_TRUE(vgpu::StatsBitIdentical(degraded.stats, forced.stats));
  EXPECT_EQ(degraded.out, forced.out);
}

TEST(NativeTier, FormatVersionBumpQuarantines) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  kcc::ModuleCacheKey key;
  {
    native::NativeEngine::Options nopts;
    nopts.cache_dir = cache.str();
    native::NativeEngine engine(nopts);
    vcuda::Context ctx(vgpu::TeslaC1060());
    ctx.set_native_service(&engine);
    auto mod = ctx.LoadModule(kKernel, OptsFor(3));
    key = kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
    ASSERT_TRUE(engine.EnsureReady(key, mod->compiled()));
  }
  const fs::path artifact = cache.dir / native::NativeEngine::ArtifactFileName(key);
  {
    // Pretend a future writer produced this file.
    std::fstream f(artifact, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kcc::kNativeFormatVersionOffset));
    const std::uint32_t bumped = kcc::kNativeFormatVersion + 1;
    f.write(reinterpret_cast<const char*>(&bumped), sizeof(bumped));
  }
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine2(nopts);
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine2);
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  LaunchOutcome r = RunReduce(ctx, *mod, ExecutionTier::kAuto);
  EXPECT_EQ(r.exec.served, ExecutionTier::kDecoded);
  EXPECT_EQ(engine2.stats().corrupt_quarantined, 1u);
  EXPECT_FALSE(fs::exists(artifact));
}

TEST(NativeTier, HashCollisionArtifactLeftInPlace) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  vcuda::Context ctx(vgpu::TeslaC1060());
  kcc::ModuleCacheKey key3 =
      kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
  kcc::ModuleCacheKey key5 =
      kcc::ModuleCacheKey::Make(kKernel, OptsFor(5), ctx.device().name);
  {
    native::NativeEngine::Options nopts;
    nopts.cache_dir = cache.str();
    native::NativeEngine engine(nopts);
    vcuda::Context build_ctx(vgpu::TeslaC1060());
    build_ctx.set_native_service(&engine);
    auto mod = build_ctx.LoadModule(kKernel, OptsFor(3));
    ASSERT_TRUE(engine.EnsureReady(key3, mod->compiled()));
  }
  // Plant key3's (valid) artifact under key5's file name — a simulated hash
  // collision. It is someone else's artifact, not corruption: discarded as a
  // miss but left on disk.
  const fs::path planted = cache.dir / native::NativeEngine::ArtifactFileName(key5);
  fs::copy_file(cache.dir / native::NativeEngine::ArtifactFileName(key3), planted);

  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine2(nopts);
  ctx.set_native_service(&engine2);
  auto mod5 = ctx.LoadModule(kKernel, OptsFor(5));
  LaunchOutcome r = RunReduce(ctx, *mod5, ExecutionTier::kAuto, 4, 256, /*scale=*/5);
  EXPECT_EQ(r.exec.served, ExecutionTier::kDecoded);
  EXPECT_EQ(engine2.stats().stale_discarded, 1u);
  EXPECT_EQ(engine2.stats().corrupt_quarantined, 0u);
  EXPECT_TRUE(fs::exists(planted));
}

TEST(NativeTier, KeylessModuleDegrades) {
  SKIP_WITHOUT_TOOLCHAIN();
  native::NativeEngine engine;
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine);
  auto keyed = ctx.LoadModule(kKernel, OptsFor(3));
  // A directly constructed Module has no specialization identity; the
  // content-addressed native tier cannot serve it.
  vcuda::Module keyless(keyed->compiled_ptr());
  std::vector<float> in(1024, 0.25f);
  vcuda::DevPtr d_in = vcuda::Upload<float>(ctx, in);
  vcuda::DevPtr d_out = ctx.Malloc(4 * 64 * sizeof(float));
  vcuda::ArgPack args;
  args.Ptr(d_out).Ptr(d_in).Int(256).Int(3);
  vcuda::LaunchExecution exec;
  exec.request = ExecutionTier::kNative;
  ctx.Launch(keyless, "reduce", vgpu::Dim3(4), vgpu::Dim3(64), args, 0, &exec);
  EXPECT_EQ(exec.served, ExecutionTier::kDecoded);
  EXPECT_TRUE(exec.native_fallback);
  EXPECT_EQ(engine.stats().builds_started, 0u);
  ctx.Free(d_out);
  ctx.Free(d_in);
}

TEST(NativeTier, ArtifactStoreRoundTripWithWriteThrough) {
  SKIP_WITHOUT_TOOLCHAIN();
  // kAuto leaves the shape variant unbuilt; kEager also sends it through the
  // store's named-variant path.
  for (const vgpu::ShapeMode mode : {vgpu::ShapeMode::kAuto, vgpu::ShapeMode::kEager}) {
    SCOPED_TRACE(mode == vgpu::ShapeMode::kEager ? "eager" : "auto");
    const bool eager = mode == vgpu::ShapeMode::kEager;
    ShapeGuard g(mode);
    TempCacheDir store_dir("_store");
    TempCacheDir disk1("_disk1");
    TempCacheDir disk2("_disk2");
    netd::ArtifactStore store(store_dir.str());
    kcc::ModuleCacheKey key;
    {
      native::NativeEngine::Options nopts;
      nopts.cache_dir = disk1.str();
      nopts.store = &store;
      native::NativeEngine engine(nopts);
      vcuda::Context ctx(vgpu::TeslaC1060());
      ctx.set_native_service(&engine);
      auto mod = ctx.LoadModule(kKernel, OptsFor(3));
      key = kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
      ASSERT_TRUE(engine.EnsureReady(key, mod->compiled()));
      if (eager) EXPECT_TRUE(RunReduce(ctx, *mod, ExecutionTier::kNative).exec.native_shape);
      EXPECT_EQ(store.stats().native_publishes, eager ? 2u : 1u);
      EXPECT_TRUE(store.ContainsNative(native::NativeEngine::ArtifactFileName(key)));
    }
    // Engine 2 has a cold private disk cache but shares the store: the
    // artifacts come from the store and are written through to the local
    // disk tier.
    native::NativeEngine::Options nopts;
    nopts.cache_dir = disk2.str();
    nopts.store = &store;
    native::NativeEngine engine2(nopts);
    vcuda::Context ctx(vgpu::TeslaC1060());
    ctx.set_native_service(&engine2);
    auto mod = ctx.LoadModule(kKernel, OptsFor(3));
    LaunchOutcome r = RunReduce(ctx, *mod, ExecutionTier::kNative);
    EXPECT_EQ(r.exec.served, ExecutionTier::kNative);
    EXPECT_EQ(r.exec.native_shape, eager);
    native::NativeEngineStats es = engine2.stats();
    EXPECT_EQ(es.store_hits, 1u);
    EXPECT_EQ(es.disk_hits, 0u);
    EXPECT_EQ(es.builds_started, 0u);
    EXPECT_EQ(es.shape_store_hits, eager ? 1u : 0u);
    EXPECT_EQ(es.shape_builds_started, 0u);
    EXPECT_EQ(store.stats().native_hits, eager ? 2u : 1u);
    EXPECT_TRUE(fs::exists(disk2.dir / native::NativeEngine::ArtifactFileName(key)));
    native::ShapeSpec shape;
    shape.block_x = 64;
    shape.grid_x = 4;
    EXPECT_EQ(fs::exists(disk2.dir / native::NativeEngine::VariantFileName(key, shape)), eager);
  }
}

// The store directory is a plain cache_dir: an engine pointed at it serves a
// store-published .nso as a disk hit with zero builds.
TEST(NativeTier, EngineCacheDirReadsTheStore) {
  SKIP_WITHOUT_TOOLCHAIN();
  ShapeGuard g(vgpu::ShapeMode::kOff);
  TempCacheDir store_dir("_store");
  netd::ArtifactStore store(store_dir.str());
  {
    native::NativeEngine::Options nopts;
    nopts.store = &store;
    native::NativeEngine engine(nopts);
    vcuda::Context ctx(vgpu::TeslaC1060());
    auto mod = ctx.LoadModule(kKernel, OptsFor(3));
    ASSERT_TRUE(engine.EnsureReady(
        kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name), mod->compiled()));
    ASSERT_EQ(store.stats().native_publishes, 1u);
  }
  native::NativeEngine::Options nopts;
  nopts.cache_dir = store.dir();
  native::NativeEngine engine2(nopts);
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine2);
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  LaunchOutcome r = RunReduce(ctx, *mod, ExecutionTier::kNative);
  EXPECT_EQ(r.exec.served, ExecutionTier::kNative);
  const native::NativeEngineStats es = engine2.stats();
  EXPECT_EQ(es.disk_hits, 1u);
  EXPECT_EQ(es.builds_started, 0u);
}

TEST(NativeTier, BuildExecutorPromotesInBackground) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine(nopts);
  native::NativeBuildExecutor exec(&engine);
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine);
  ctx.set_async_service(&exec);
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  kcc::ModuleCacheKey key =
      kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
  EXPECT_FALSE(engine.IsReady(key));

  // The compile flight completes, then hands the module to the engine so the
  // native artifact is ready before any launch forced a build.
  vcuda::SubmitResult sr = ctx.LoadModuleAsync(kKernel, OptsFor(3));
  ASSERT_TRUE(sr.future.valid());
  exec.Drain();
  EXPECT_TRUE(engine.IsReady(key));
  EXPECT_EQ(engine.stats().builds_completed, 1u);

  LaunchOutcome r = RunReduce(ctx, *mod, ExecutionTier::kAuto);
  EXPECT_EQ(r.exec.served, ExecutionTier::kNative);
}

TEST(NativeTier, RuntimeDeviceTweaksFlowThroughCostConstants) {
  SKIP_WITHOUT_TOOLCHAIN();
  // The cache key only carries the device *name* — per-launch cost constants
  // (transaction cycles, bank count, watchdog budget) must reach the SO at
  // run time, not be baked in at emit time.
  vgpu::DeviceProfile dev = vgpu::TeslaC1060();
  dev.cycles_per_global_tx *= 3;
  dev.shared_access_cost += 2;
  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine(nopts);
  vcuda::Context ctx(dev);
  ctx.set_native_service(&engine);
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  LaunchOutcome decoded = RunReduce(ctx, *mod, ExecutionTier::kDecoded);
  LaunchOutcome native = RunReduce(ctx, *mod, ExecutionTier::kNative);
  ASSERT_EQ(native.exec.served, ExecutionTier::kNative);
  EXPECT_TRUE(vgpu::StatsBitIdentical(decoded.stats, native.stats));
  EXPECT_EQ(decoded.out, native.out);
}

TEST(NativeTier, KernelFaultsKeepInterpreterErrorText) {
  SKIP_WITHOUT_TOOLCHAIN();
  constexpr const char* kDivergentBarrier = R"(
__kernel void bad(float* out) {
  if (threadIdx.x < 16u) {
    __syncthreads();
  }
  out[threadIdx.x] = 1.0f;
}
)";
  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine(nopts);
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine);
  auto mod = ctx.LoadModule(kDivergentBarrier);
  vcuda::DevPtr d_out = ctx.Malloc(32 * sizeof(float));
  vcuda::ArgPack args;
  args.Ptr(d_out);
  auto run = [&](ExecutionTier request) -> std::string {
    vcuda::LaunchExecution exec;
    exec.request = request;
    try {
      ctx.Launch(*mod, "bad", vgpu::Dim3(1), vgpu::Dim3(32), args, 0, &exec);
    } catch (const DeviceError& e) {
      return e.what();
    }
    return "<no error>";
  };
  const std::string decoded_msg = run(ExecutionTier::kDecoded);
  const std::string native_msg = run(ExecutionTier::kNative);
  EXPECT_NE(decoded_msg, "<no error>");
  EXPECT_EQ(decoded_msg, native_msg)
      << "a native-tier kernel fault must raise the interpreter's exact text";
  ctx.Free(d_out);
}

// ---------------------------------------------------------------------------
// Cross-tier identity over the four applications: decoded-serial,
// decoded-parallel(4), interp, native-generic and native-shape runs of the
// same problem must agree on every LaunchStats bit and every output element.
// ---------------------------------------------------------------------------

struct AppRun {
  vgpu::LaunchStats stats;
  std::vector<float> out;
  std::size_t native_launches = 0;
  std::size_t shape_launches = 0;
};

template <typename Fn>
void ExpectCrossTierIdentity(Fn run_app) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine(nopts);

  AppRun serial = run_app(nullptr, ExecutionTier::kAuto);
  AppRun parallel = [&] {
    PolicyGuard g(Parallel4());
    return run_app(nullptr, ExecutionTier::kAuto);
  }();
  AppRun itp = [&] {
    TierGuard g(ExecutionTier::kInterp);
    return run_app(nullptr, ExecutionTier::kInterp);
  }();
  AppRun nat = [&] {
    TierGuard g(ExecutionTier::kNative);
    ShapeGuard s(vgpu::ShapeMode::kOff);  // generic artifacts only
    return run_app(&engine, ExecutionTier::kNative);
  }();
  AppRun shaped = [&] {
    TierGuard g(ExecutionTier::kNative);
    ShapeGuard s(vgpu::ShapeMode::kEager);  // every launch shape specialized
    return run_app(&engine, ExecutionTier::kNative);
  }();

  EXPECT_TRUE(vgpu::StatsBitIdentical(serial.stats, parallel.stats))
      << "decoded-serial vs decoded-parallel stats diverged";
  EXPECT_TRUE(vgpu::StatsBitIdentical(serial.stats, itp.stats))
      << "decoded vs interp stats diverged";
  EXPECT_TRUE(vgpu::StatsBitIdentical(serial.stats, nat.stats))
      << "decoded vs native-generic stats diverged";
  EXPECT_TRUE(vgpu::StatsBitIdentical(serial.stats, shaped.stats))
      << "decoded vs native-shape stats diverged";
  EXPECT_EQ(serial.out, parallel.out);
  EXPECT_EQ(serial.out, itp.out);
  EXPECT_EQ(serial.out, nat.out);
  EXPECT_EQ(serial.out, shaped.out);
  EXPECT_GT(nat.native_launches, 0u) << "the native run never hit the native tier";
  EXPECT_GT(shaped.shape_launches, 0u)
      << "the shape run was never served by a shape-specialized variant";
  EXPECT_EQ(engine.stats().build_failures, 0u);
  EXPECT_EQ(engine.stats().shape_build_failures, 0u);
}

AppRun WithContext(native::NativeEngine* engine,
                   const std::function<AppRun(vcuda::Context&)>& body) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  if (engine) ctx.set_native_service(engine);
  AppRun r = body(ctx);
  r.native_launches = ctx.tier_stats().launches_native;
  r.shape_launches = ctx.tier_stats().launches_native_shape;
  return r;
}

TEST(NativeTierApps, RowFilter) {
  ExpectCrossTierIdentity([](native::NativeEngine* engine, ExecutionTier) {
    return WithContext(engine, [](vcuda::Context& ctx) {
      apps::rowfilter::Image img = apps::rowfilter::MakeTestImage(64, 24, 42);
      apps::rowfilter::FilterSpec spec = apps::rowfilter::BinomialFilter(7);
      apps::rowfilter::RowFilterConfig cfg;
      auto res = apps::rowfilter::GpuRowFilter(ctx, img, spec, cfg);
      return AppRun{res.stats, std::move(res.out)};
    });
  });
}

TEST(NativeTierApps, Piv) {
  ExpectCrossTierIdentity([](native::NativeEngine* engine, ExecutionTier) {
    return WithContext(engine, [](vcuda::Context& ctx) {
      apps::piv::Problem p = apps::piv::Generate("native", 48, 8, 2, 8, 99);
      apps::piv::PivConfig cfg;
      auto res = apps::piv::GpuPiv(ctx, p, cfg);
      std::vector<float> out;
      for (std::size_t i = 0; i < res.field.best_offset.size(); ++i) {
        out.push_back(static_cast<float>(res.field.best_offset[i]));
        out.push_back(res.field.best_score[i]);
      }
      return AppRun{res.stats, std::move(out)};
    });
  });
}

TEST(NativeTierApps, Matching) {
  ExpectCrossTierIdentity([](native::NativeEngine* engine, ExecutionTier) {
    return WithContext(engine, [](vcuda::Context& ctx) {
      apps::matching::Problem p = apps::matching::Generate("native", 12, 10, 6, 8, 77);
      apps::matching::MatcherConfig cfg;
      auto res = apps::matching::GpuMatch(ctx, p, cfg);
      std::vector<float> out = std::move(res.scores);
      out.push_back(static_cast<float>(res.best_idx));
      out.push_back(res.best_score);
      // Multi-stage pipeline: fold every stage's stats bit-relevant counters
      // through the last stage's record; stage-level identity is implied by
      // identical outputs + the final stage stats below.
      vgpu::LaunchStats last{};
      if (!res.breakdown.stages.empty()) last = res.breakdown.stages.back().launch;
      return AppRun{last, std::move(out)};
    });
  });
}

TEST(NativeTierApps, Backproj) {
  ExpectCrossTierIdentity([](native::NativeEngine* engine, ExecutionTier) {
    return WithContext(engine, [](vcuda::Context& ctx) {
      apps::backproj::Geometry g;
      g.vol_n = 12;
      g.vol_z = 8;
      g.det_u = 24;
      g.det_v = 16;
      g.n_angles = 8;
      apps::backproj::Problem p = apps::backproj::Generate("native", g, 2, 77);
      apps::backproj::BackprojConfig cfg;
      cfg.use_texture = true;  // exercise the texture path on the native tier
      auto res = apps::backproj::GpuBackproject(ctx, p, cfg);
      return AppRun{res.stats, std::move(res.volume)};
    });
  });
}

// ---------------------------------------------------------------------------
// Shape-specialized native variants.
// ---------------------------------------------------------------------------

// The launch shape RunReduce(blocks) produces: `blocks` x 1 x 1 grid of
// 64-thread blocks.
native::ShapeSpec ShapeFor(int blocks) {
  native::ShapeSpec s;
  s.block_x = 64;
  s.grid_x = static_cast<unsigned>(blocks);
  return s;
}

TEST(NativeShape, EagerVariantServesBitIdentical) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine(nopts);
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine);
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));

  LaunchOutcome decoded = RunReduce(ctx, *mod, ExecutionTier::kDecoded);
  LaunchOutcome interp = RunReduce(ctx, *mod, ExecutionTier::kInterp);
  LaunchOutcome generic = [&] {
    ShapeGuard g(vgpu::ShapeMode::kOff);
    return RunReduce(ctx, *mod, ExecutionTier::kNative);
  }();
  LaunchOutcome shaped = [&] {
    ShapeGuard g(vgpu::ShapeMode::kEager);
    return RunReduce(ctx, *mod, ExecutionTier::kNative);
  }();

  EXPECT_EQ(generic.exec.served, ExecutionTier::kNative);
  EXPECT_FALSE(generic.exec.native_shape);
  EXPECT_EQ(shaped.exec.served, ExecutionTier::kNative);
  EXPECT_TRUE(shaped.exec.native_shape);

  // The whole point: four tiers, one LaunchStats, one output.
  EXPECT_TRUE(vgpu::StatsBitIdentical(decoded.stats, interp.stats));
  EXPECT_TRUE(vgpu::StatsBitIdentical(decoded.stats, generic.stats));
  EXPECT_TRUE(vgpu::StatsBitIdentical(decoded.stats, shaped.stats))
      << "shape-specialized variant diverged from the decoded tier";
  EXPECT_EQ(decoded.out, interp.out);
  EXPECT_EQ(decoded.out, generic.out);
  EXPECT_EQ(decoded.out, shaped.out);

  const kcc::ModuleCacheKey key =
      kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
  const native::ShapeSpec shape = ShapeFor(4);
  EXPECT_TRUE(engine.IsVariantReady(key, shape));
  EXPECT_TRUE(fs::exists(cache.dir / native::NativeEngine::VariantFileName(key, shape)));

  const native::NativeEngineStats es = engine.stats();
  EXPECT_EQ(es.shape_builds_started, 1u);
  EXPECT_EQ(es.shape_builds_completed, 1u);
  EXPECT_EQ(es.shape_build_failures, 0u);
  EXPECT_EQ(es.shape_served_launches, 1u);
  EXPECT_EQ(es.served_launches, 2u);

  const vcuda::TierStats ts = ctx.tier_stats();
  EXPECT_EQ(ts.launches_native, 2u);
  EXPECT_EQ(ts.launches_native_shape, 1u);
}

TEST(NativeShape, VariantCacheKeySeparation) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  kcc::ModuleCacheKey key;
  const native::ShapeSpec shape4 = ShapeFor(4);
  const native::ShapeSpec shape8 = ShapeFor(8);
  LaunchOutcome ref4, ref8;
  {
    native::NativeEngine::Options nopts;
    nopts.cache_dir = cache.str();
    native::NativeEngine engine(nopts);
    vcuda::Context ctx(vgpu::TeslaC1060());
    ctx.set_native_service(&engine);
    auto mod = ctx.LoadModule(kKernel, OptsFor(3));
    key = kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
    ShapeGuard g(vgpu::ShapeMode::kEager);
    ref4 = RunReduce(ctx, *mod, ExecutionTier::kNative, /*blocks=*/4);
    ref8 = RunReduce(ctx, *mod, ExecutionTier::kNative, /*blocks=*/8);
    EXPECT_TRUE(ref4.exec.native_shape);
    EXPECT_TRUE(ref8.exec.native_shape);
  }
  // Generic and per-shape artifacts occupy distinct content-addressed names,
  // so they can never collide in one cache directory.
  const std::string generic_name = native::NativeEngine::ArtifactFileName(key);
  const std::string name4 = native::NativeEngine::VariantFileName(key, shape4);
  const std::string name8 = native::NativeEngine::VariantFileName(key, shape8);
  EXPECT_NE(generic_name, name4);
  EXPECT_NE(generic_name, name8);
  EXPECT_NE(name4, name8);
  ASSERT_TRUE(fs::exists(cache.dir / generic_name));
  ASSERT_TRUE(fs::exists(cache.dir / name4));
  ASSERT_TRUE(fs::exists(cache.dir / name8));
  // The embedded build keys differ too: a variant envelope can never
  // validate as the generic artifact or as another shape's variant.
  EXPECT_NE(native::NativeEngine::VariantKeyText(key, shape4),
            native::NativeEngine::VariantKeyText(key, shape8));
  EXPECT_NE(native::NativeEngine::VariantKeyText(key, shape4), key.CanonicalText());

  // Corrupt shape4's variant only. A fresh engine must quarantine and rebuild
  // exactly that variant: shape8 and the generic artifact serve from disk.
  const fs::path bad = cache.dir / name4;
  {
    std::fstream f(bad, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(bad) / 2));
    char c = 0;
    f.seekg(f.tellp());
    f.read(&c, 1);
    f.seekp(-1, std::ios::cur);
    c = static_cast<char>(c ^ 0x5a);
    f.write(&c, 1);
  }
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine2(nopts);
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine2);
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  ShapeGuard g(vgpu::ShapeMode::kEager);

  LaunchOutcome warm8 = RunReduce(ctx, *mod, ExecutionTier::kNative, /*blocks=*/8);
  EXPECT_TRUE(warm8.exec.native_shape);
  EXPECT_EQ(engine2.stats().shape_disk_hits, 1u);
  EXPECT_EQ(engine2.stats().corrupt_quarantined, 0u);

  LaunchOutcome rebuilt4 = RunReduce(ctx, *mod, ExecutionTier::kNative, /*blocks=*/4);
  EXPECT_TRUE(rebuilt4.exec.native_shape);
  EXPECT_EQ(engine2.stats().corrupt_quarantined, 1u);
  EXPECT_EQ(engine2.stats().shape_builds_completed, 1u) << "only shape4 may rebuild";
  EXPECT_EQ(engine2.stats().builds_started, 0u) << "the generic artifact was never suspect";
  EXPECT_TRUE(fs::exists(bad)) << "the rebuild must re-publish shape4's artifact";

  EXPECT_TRUE(vgpu::StatsBitIdentical(ref4.stats, rebuilt4.stats));
  EXPECT_TRUE(vgpu::StatsBitIdentical(ref8.stats, warm8.stats));
  EXPECT_EQ(ref4.out, rebuilt4.out);
  EXPECT_EQ(ref8.out, warm8.out);
}

TEST(NativeShape, VariantCapAndLruEviction) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  nopts.max_shape_variants = 2;
  native::NativeEngine engine(nopts);
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine);
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  const kcc::ModuleCacheKey key =
      kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
  ShapeGuard g(vgpu::ShapeMode::kEager);

  RunReduce(ctx, *mod, ExecutionTier::kNative, /*blocks=*/2);
  RunReduce(ctx, *mod, ExecutionTier::kNative, /*blocks=*/4);
  EXPECT_TRUE(engine.IsVariantReady(key, ShapeFor(2)));
  EXPECT_TRUE(engine.IsVariantReady(key, ShapeFor(4)));
  EXPECT_EQ(engine.stats().shape_evicted, 0u);

  // A third shape exceeds the cap: the least-recently-served variant (shape 2)
  // is evicted from memory; its disk artifact survives.
  RunReduce(ctx, *mod, ExecutionTier::kNative, /*blocks=*/8);
  EXPECT_EQ(engine.stats().shape_evicted, 1u);
  EXPECT_FALSE(engine.IsVariantReady(key, ShapeFor(2)));
  EXPECT_TRUE(engine.IsVariantReady(key, ShapeFor(4)));
  EXPECT_TRUE(engine.IsVariantReady(key, ShapeFor(8)));
  EXPECT_TRUE(fs::exists(cache.dir / native::NativeEngine::VariantFileName(key, ShapeFor(2))));

  // Relaunching the evicted shape reloads it from disk — no rebuild — and
  // LRU now turns over shape 4.
  const std::uint64_t builds = engine.stats().shape_builds_started;
  LaunchOutcome back2 = RunReduce(ctx, *mod, ExecutionTier::kNative, /*blocks=*/2);
  EXPECT_TRUE(back2.exec.native_shape);
  EXPECT_EQ(engine.stats().shape_builds_started, builds);
  EXPECT_GE(engine.stats().shape_disk_hits, 1u);
  EXPECT_EQ(engine.stats().shape_evicted, 2u);
  EXPECT_TRUE(engine.IsVariantReady(key, ShapeFor(2)));
  EXPECT_FALSE(engine.IsVariantReady(key, ShapeFor(4)));
  EXPECT_TRUE(engine.IsVariantReady(key, ShapeFor(8)));
}

TEST(NativeShape, AutoPromotesHotShapeInBackground) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  nopts.shape_hot_threshold = 2;
  native::NativeEngine engine(nopts);
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine);
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  const kcc::ModuleCacheKey key =
      kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
  ASSERT_TRUE(engine.EnsureReady(key, mod->compiled()));
  ShapeGuard g(vgpu::ShapeMode::kAuto);

  // Below the threshold every launch is served by the generic artifact and
  // nothing builds — kAuto never blocks a launch on a variant compile.
  LaunchOutcome first = RunReduce(ctx, *mod, ExecutionTier::kAuto);
  EXPECT_EQ(first.exec.served, ExecutionTier::kNative);
  EXPECT_FALSE(first.exec.native_shape);
  EXPECT_EQ(engine.stats().shape_builds_started, 0u);

  // The threshold-crossing launch still serves generic but queues the
  // background promotion.
  LaunchOutcome second = RunReduce(ctx, *mod, ExecutionTier::kAuto);
  EXPECT_FALSE(second.exec.native_shape);
  engine.DrainShapeBuilds();
  EXPECT_EQ(engine.stats().shape_builds_completed, 1u);
  EXPECT_TRUE(engine.IsVariantReady(key, ShapeFor(4)));

  LaunchOutcome hot = RunReduce(ctx, *mod, ExecutionTier::kAuto);
  EXPECT_EQ(hot.exec.served, ExecutionTier::kNative);
  EXPECT_TRUE(hot.exec.native_shape);
  EXPECT_TRUE(vgpu::StatsBitIdentical(first.stats, hot.stats));
  EXPECT_EQ(first.out, hot.out);
  EXPECT_EQ(ctx.tier_stats().launches_native_shape, 1u);
  EXPECT_EQ(engine.stats().shape_served_launches, 1u);
}

}  // namespace
}  // namespace kspec
