// Native execution tier: bit-identical LaunchStats against the decoded tier
// (serial and parallel), warm-cache cross-engine reuse with zero recompiles,
// corrupt/stale/version-bump artifact degradation, store round-trips,
// background promotion as a build task on a CompileExecutor, tier-selection
// precedence,
// cross-tier identity over all four applications, and the shape-specialized
// variant ladder: eager/auto variant serving, variant-vs-generic cache-key
// separation, per-variant corruption quarantine, and the per-module variant
// cap with LRU eviction.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

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
#include "native/codegen.hpp"
#include "native/engine.hpp"
#include "netd/artifact_store.hpp"
#include "serve/compile_executor.hpp"
#include "support/serialize.hpp"
#include "vcuda/vcuda.hpp"
#include "vgpu/asm.hpp"
#include "vgpu/interp.hpp"
#include "vgpu/simt.hpp"
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

// An artifact whose envelope and shared object carry the bare module key —
// what artifacts embedded before the runtime text's hash joined the key, so
// possibly built from other simt.hpp text — is never served: it counts as
// stale, the engine rebuilds, and the rebuild is what the disk then serves.
TEST(NativeTier, ArtifactWithoutRuntimeHashIsRebuilt) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  const kcc::ModuleCacheKey key =
      kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
  const std::string bare = key.CanonicalText();
  EXPECT_NE(native::NativeEngine::GenericKeyText(key), bare);
  std::string error;
  const std::vector<std::uint8_t> so = native::CompileSharedObject(
      native::EmitModuleSource(mod->compiled(), bare), &error);
  ASSERT_FALSE(so.empty()) << error;
  const fs::path artifact = cache.dir / native::NativeEngine::ArtifactFileName(key);
  ASSERT_TRUE(WriteFileAtomic(artifact.string(), kcc::SerializeNative(so, bare)));

  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  {
    native::NativeEngine engine(nopts);
    ctx.set_native_service(&engine);
    LaunchOutcome r = RunReduce(ctx, *mod, ExecutionTier::kNative);
    ctx.set_native_service(nullptr);
    EXPECT_EQ(r.exec.served, ExecutionTier::kNative);
    const native::NativeEngineStats es = engine.stats();
    EXPECT_EQ(es.stale_discarded, 1u);
    EXPECT_EQ(es.disk_hits, 0u);
    EXPECT_EQ(es.builds_completed, 1u);
  }
  native::NativeEngine engine2(nopts);
  ctx.set_native_service(&engine2);
  LaunchOutcome warm = RunReduce(ctx, *mod, ExecutionTier::kNative);
  ctx.set_native_service(nullptr);
  EXPECT_EQ(warm.exec.served, ExecutionTier::kNative);
  EXPECT_EQ(engine2.stats().disk_hits, 1u);
  EXPECT_EQ(engine2.stats().builds_started, 0u);
  EXPECT_EQ(engine2.stats().stale_discarded, 0u);
}

// Every emitted TU opens with the runtime text, which a GNU build
// precompiles (native/build.hpp). GCC itself judges whether the .gch serves
// the engine's flags: -H marks a PCH it loads with '!', and -Winvalid-pch
// -Werror fails on one it finds but rejects (built with other flags, or with
// a sanitizer's). Then one module's generic and shape builds, through the
// PCH and from the text, must give the same shared objects and, served from
// disk, the same outputs and LaunchStats.
TEST(NativeTier, RuntimePchServesBuilds) {
  SKIP_WITHOUT_TOOLCHAIN();
#if !defined(__GNUC__) || defined(__clang__)
  GTEST_SKIP() << "the runtime PCH is built for GNU toolchains only";
#endif
  if (std::getenv("KSPEC_NATIVE_CXX") != nullptr) {
    GTEST_SKIP() << "KSPEC_NATIVE_CXX names the host compiler; its builds parse the runtime text";
  }
  const std::string& header = native::RuntimePchHeader();
  ASSERT_FALSE(header.empty()) << "native builds do not use the runtime PCH";
  TempCacheDir probe_dir("_probe");
  const fs::path probe = probe_dir.dir / "probe.cpp";
  const fs::path log = probe_dir.dir / "probe.log";
  std::ofstream(probe) << "int kspec_pch_probe() { return 0; }\n";
  const std::string cmd = "'" + native::HostCompiler() + "' " + native::HostCxxFlags() +
                          " -Winvalid-pch -Werror -H -include '" + header + "' -c -o '" +
                          (probe_dir.dir / "probe.o").string() + "' '" + probe.string() +
                          "' > '" + log.string() + "' 2>&1";
  const int rc = std::system(cmd.c_str());
  std::stringstream diag;
  diag << std::ifstream(log).rdbuf();
  ASSERT_EQ(rc, 0) << diag.str();
  EXPECT_NE(diag.str().find("! " + header + ".gch"), std::string::npos)
      << "the host compiler did not load the PCH:\n" << diag.str();
  // And CompileSharedObject takes that path: the TU it compiles starts after
  // the runtime text, which comes in by -include.
  std::string error;
  EXPECT_FALSE(native::CompileSharedObject(std::string(native::kEmbeddedRuntime) +
                                               "#if __LINE__ > 10\n#error the runtime text was "
                                               "parsed, not -included\n#endif\n",
                                           &error)
                   .empty())
      << error;

  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  const kcc::ModuleCacheKey key =
      kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
  native::ShapeSpec shape;  // RunReduce's launch: 4 blocks of 64 threads
  shape.block_x = 64;
  shape.grid_x = 4;
  const std::string generic_key = native::NativeEngine::GenericKeyText(key);
  const std::string shape_key = native::NativeEngine::VariantKeyText(key, shape);
  const std::string generic_tu = native::EmitModuleSource(mod->compiled(), generic_key);
  const std::string shape_tu = native::EmitModuleSource(mod->compiled(), shape_key, &shape);
  ASSERT_EQ(generic_tu.rfind(native::kEmbeddedRuntime, 0), 0u);
  ASSERT_EQ(shape_tu.rfind(native::kEmbeddedRuntime, 0), 0u);
  auto build = [](const std::string& tu) {
    std::string error;
    std::vector<std::uint8_t> so = native::CompileSharedObject(tu, &error);
    EXPECT_FALSE(so.empty()) << error;
    return so;
  };
  struct Built {
    std::vector<std::uint8_t> generic, shaped;
  };
  const Built pch{build(generic_tu), build(shape_tu)};
  // A TU that does not open with the runtime text is built from the text.
  const Built text{build("\n" + generic_tu), build("\n" + shape_tu)};
  EXPECT_EQ(pch.generic, text.generic) << "the PCH changed the generic shared object";
  EXPECT_EQ(pch.shaped, text.shaped) << "the PCH changed the shape variant's shared object";

  // Serves one launch from a cache dir holding only `built`'s artifacts.
  auto serve = [&](const Built& built, const std::string& tag, vgpu::ShapeMode mode) {
    TempCacheDir cache(tag);
    EXPECT_TRUE(WriteFileAtomic((cache.dir / native::NativeEngine::ArtifactFileName(key)).string(),
                                kcc::SerializeNative(built.generic, generic_key)));
    EXPECT_TRUE(
        WriteFileAtomic((cache.dir / native::NativeEngine::VariantFileName(key, shape)).string(),
                        kcc::SerializeNative(built.shaped, shape_key)));
    native::NativeEngine::Options nopts;
    nopts.cache_dir = cache.str();
    native::NativeEngine engine(nopts);
    ctx.set_native_service(&engine);
    ShapeGuard g(mode);
    LaunchOutcome r = RunReduce(ctx, *mod, ExecutionTier::kNative);
    ctx.set_native_service(nullptr);
    EXPECT_EQ(r.exec.served, ExecutionTier::kNative) << tag;
    EXPECT_EQ(r.exec.native_shape, mode == vgpu::ShapeMode::kEager) << tag;
    const native::NativeEngineStats es = engine.stats();
    EXPECT_EQ(es.builds_started + es.shape_builds_started, 0u) << tag;
    return r;
  };
  const LaunchOutcome decoded = RunReduce(ctx, *mod, ExecutionTier::kDecoded);
  for (const vgpu::ShapeMode mode : {vgpu::ShapeMode::kOff, vgpu::ShapeMode::kEager}) {
    const std::string arm = mode == vgpu::ShapeMode::kOff ? "_generic" : "_shape";
    const LaunchOutcome via_pch = serve(pch, arm + "_pch", mode);
    const LaunchOutcome via_text = serve(text, arm + "_text", mode);
    EXPECT_TRUE(vgpu::StatsBitIdentical(via_pch.stats, via_text.stats)) << arm;
    EXPECT_TRUE(vgpu::StatsBitIdentical(decoded.stats, via_pch.stats)) << arm;
    EXPECT_EQ(via_pch.out, via_text.out) << arm;
    EXPECT_EQ(decoded.out, via_pch.out) << arm;
  }
}

// Output of a shell command, "" when it cannot run.
std::string CommandOutput(const std::string& cmd) {
  std::string out;
  if (FILE* pipe = ::popen(cmd.c_str(), "r")) {
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) out.append(buf, n);
    ::pclose(pipe);
  }
  return out;
}

// A TU holds only its kernels: the engine runs the block scheduler over its
// own warps and the reconvergence stack's pushes and pops are host
// functions, so neither the emitted text after the runtime nor the built
// shared objects carry the scheduler, a std::vector operation, thread_local
// state or a libgcc popcount call. GCC may inline a std::vector operation
// whole, leaving no symbol named after it, so the SOs must also import no
// allocation (operator new/delete, the length error a growing vector
// throws) and no thread-local storage.
TEST(NativeTier, KernelOnlyTu) {
  SKIP_WITHOUT_TOOLCHAIN();
  EXPECT_EQ(native::kNativeAbiVersion, 4);
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  const kcc::ModuleCacheKey key =
      kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
  native::ShapeSpec shape;  // RunReduce's launch: 4 blocks of 64 threads
  shape.block_x = 64;
  shape.grid_x = 4;
  TempCacheDir dir;
  const std::string runtime = native::kEmbeddedRuntime;
  const native::ShapeSpec* const arms[] = {nullptr, &shape};
  for (const native::ShapeSpec* s : arms) {
    const std::string arm = s ? "shape" : "generic";
    const std::string tu = native::EmitModuleSource(
        mod->compiled(),
        s ? native::NativeEngine::VariantKeyText(key, *s) : native::NativeEngine::GenericKeyText(key),
        s);
    ASSERT_EQ(tu.rfind(runtime, 0), 0u) << arm;
    const std::string own = tu.substr(runtime.size());
    EXPECT_NE(own.find("run_warp_k0"), std::string::npos) << arm;
    for (const char* word : {"RunBlock", "thread_local", "std::vector"}) {
      EXPECT_EQ(own.find(word), std::string::npos) << arm << " TU text names " << word;
    }
    std::string error;
    const std::vector<std::uint8_t> so = native::CompileSharedObject(tu, &error);
    ASSERT_FALSE(so.empty()) << error;
    const fs::path path = dir.dir / (arm + ".so");
    ASSERT_TRUE(WriteFileAtomic(path.string(), so));
    const std::string symbols = CommandOutput("nm -C '" + path.string() + "' 2>/dev/null");
    if (symbols.empty()) GTEST_SKIP() << "nm is not available";
    EXPECT_NE(symbols.find("kspec_native_warp_fn"), std::string::npos) << arm << ":\n" << symbols;
    for (const char* word :
         {"std::vector", "RunBlock", "__popcount", "operator new", "operator delete",
          "__throw_length_error", "__cxa_thread_atexit", "__tls_get_addr"}) {
      EXPECT_EQ(symbols.find(word), std::string::npos)
          << arm << " SO lists " << word << ":\n" << symbols;
    }
  }
}

// An artifact whose ABI version is not the engine's is stale: discarded and
// rebuilt, never served, even when its build key matches.
TEST(NativeTier, OlderAbiArtifactIsRebuilt) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  const kcc::ModuleCacheKey key =
      kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
  const std::string key_text = native::NativeEngine::GenericKeyText(key);
  std::string tu = native::EmitModuleSource(mod->compiled(), key_text);
  const std::string current = "return kspec::native::kNativeAbiVersion;";
  const std::size_t at = tu.find(current);
  ASSERT_NE(at, std::string::npos);
  tu.replace(at, current.size(),
             "return " + std::to_string(native::kNativeAbiVersion - 1) + ";");
  std::string error;
  const std::vector<std::uint8_t> so = native::CompileSharedObject(tu, &error);
  ASSERT_FALSE(so.empty()) << error;
  ASSERT_TRUE(WriteFileAtomic((cache.dir / native::NativeEngine::ArtifactFileName(key)).string(),
                              kcc::SerializeNative(so, key_text)));

  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine(nopts);
  ctx.set_native_service(&engine);
  const LaunchOutcome r = RunReduce(ctx, *mod, ExecutionTier::kNative);
  ctx.set_native_service(nullptr);
  EXPECT_EQ(r.exec.served, ExecutionTier::kNative);
  const native::NativeEngineStats es = engine.stats();
  EXPECT_EQ(es.stale_discarded, 1u);
  EXPECT_EQ(es.disk_hits, 0u);
  EXPECT_EQ(es.builds_completed, 1u);
  const LaunchOutcome decoded = RunReduce(ctx, *mod, ExecutionTier::kDecoded);
  EXPECT_TRUE(vgpu::StatsBitIdentical(decoded.stats, r.stats));
  EXPECT_EQ(decoded.out, r.out);
}

// The engine's scratch shared objects mapped into this process (each engine
// writes the SOs it loads to so_N.so files in a kspec-native-so directory).
std::size_t MappedEngineSharedObjects() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) {
    if (line.find("kspec-native-so") != std::string::npos &&
        line.find("/so_") != std::string::npos) {
      ++n;
    }
  }
  return n;
}

// Generic SOs hold no thread_local state, so each one is dlclosed with its
// engine: engines coming and going over one warm artifact leave no mapping.
TEST(NativeTier, GenericSharedObjectsUnload) {
  SKIP_WITHOUT_TOOLCHAIN();
  if (!fs::exists("/proc/self/maps")) GTEST_SKIP() << "no /proc/self/maps";
  ShapeGuard generic_only(vgpu::ShapeMode::kOff);
  TempCacheDir cache;
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  std::size_t baseline = 0;
  for (int round = 0; round <= 20; ++round) {
    {
      native::NativeEngine engine(nopts);
      ctx.set_native_service(&engine);
      const LaunchOutcome r = RunReduce(ctx, *mod, ExecutionTier::kNative);
      ctx.set_native_service(nullptr);
      ASSERT_EQ(r.exec.served, ExecutionTier::kNative) << "round " << round;
      EXPECT_EQ(engine.stats().disk_hits, round == 0 ? 0u : 1u) << "round " << round;
      EXPECT_GT(MappedEngineSharedObjects(), baseline) << "round " << round;
    }
    // Round 0 builds the artifact; the 20 after it load it warm.
    if (round == 0) {
      baseline = MappedEngineSharedObjects();
    } else {
      EXPECT_EQ(MappedEngineSharedObjects(), baseline) << "round " << round;
    }
  }
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
      if (eager) {
        EXPECT_TRUE(RunReduce(ctx, *mod, ExecutionTier::kNative).exec.native_shape);
      }
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

TEST(NativeTier, BuildTaskPromotesInBackground) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine(nopts);
  serve::CompileExecutor exec;
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_native_service(&engine);
  ctx.set_async_service(&exec);
  auto mod = ctx.LoadModule(kKernel, OptsFor(3));
  kcc::ModuleCacheKey key =
      kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name);
  EXPECT_FALSE(engine.IsReady(key));

  // The compile flight completes, then a build task on the same executor
  // hands the module to the engine so the native artifact is ready before
  // any launch forced a build.
  vcuda::SubmitResult sr = ctx.LoadModuleAsync(kKernel, OptsFor(3));
  ASSERT_TRUE(sr.future.valid());
  std::shared_ptr<vcuda::Module> compiled = sr.future.get();
  exec.SubmitTask(key.CanonicalText(),
                  [&] { engine.EnsureReady(key, compiled->compiled()); });
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
  // One kernel per fault a Kernel-C kernel can raise, all in one module so
  // the native tier builds one shared object. (A texture Kernel-C declares
  // always has a slot, so an unbound one reads as an invalid binding.)
  constexpr const char* kFaults = R"(
__constant float lut[4];
__texture float img;
__kernel void divergent_barrier(float* out, int k) {
  if (threadIdx.x < 16u) {
    __syncthreads();
  }
  out[threadIdx.x] = (float)k;
}
__kernel void shared_oob(float* out, int k) {
  __shared float s[32];
  s[(int)threadIdx.x + k] = 1.0f;
  out[threadIdx.x] = s[threadIdx.x];
}
__kernel void const_oob(float* out, int k) {
  out[threadIdx.x] = lut[(int)threadIdx.x + k];
}
__kernel void misaligned_atomic(int* out, int k) {
  atomicAdd(out, k);
}
__kernel void unbound_texture(float* out, int k) {
  out[threadIdx.x] = tex2D(img, (float)k, 0.0f);
}
__kernel void watchdog(float* out, int k) {
  int i = 0;
  while (k != 0) {
    i = i + 1;
  }
  out[threadIdx.x] = (float)i;
}
__kernel void straight_line(float* out, int k) {
  out[k] = 1.0f;
  out[threadIdx.x] = (float)k;
  out[threadIdx.x + 32u] = (float)k * 2.0f;
}
)";
  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine(nopts);
  vgpu::DeviceProfile dev = vgpu::TeslaC1060();
  dev.watchdog_warp_instrs = 100000;
  vcuda::Context ctx(dev);
  ctx.set_native_service(&engine);
  auto mod = ctx.LoadModule(kFaults);
  vcuda::DevPtr d_out = ctx.Malloc(64 * sizeof(float));
  auto run_on = [](vcuda::Context& c, const vcuda::Module& m, const char* kernel,
                   vcuda::DevPtr out, int k, ExecutionTier request) -> std::string {
    vcuda::ArgPack args;
    args.Ptr(out).Int(k);
    vcuda::LaunchExecution exec;
    exec.request = request;
    try {
      c.Launch(m, kernel, vgpu::Dim3(1), vgpu::Dim3(32), args, 0, &exec);
    } catch (const DeviceError& e) {
      return e.what();
    }
    return "<no error>";
  };
  auto run = [&](const char* kernel, vcuda::DevPtr out, int k, ExecutionTier request) {
    return run_on(ctx, *mod, kernel, out, k, request);
  };
  const struct {
    const char* kernel;
    vcuda::DevPtr out;
    int k;
    const char* text;
  } kCases[] = {
      {"divergent_barrier", d_out, 1, "__syncthreads() executed in divergent control flow"},
      {"shared_oob", d_out, 1000, "shared-memory access out of bounds"},
      {"const_oob", d_out, 1000, "constant-memory access out of bounds"},
      {"misaligned_atomic", d_out + 2, 1, "misaligned 4-byte atomic"},
      {"unbound_texture", d_out, 1, "texture slot 0 has an invalid binding"},
      {"watchdog", d_out, 1, "watchdog limit"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.kernel);
    const std::string decoded_msg = run(c.kernel, c.out, c.k, ExecutionTier::kDecoded);
    const std::string native_msg = run(c.kernel, c.out, c.k, ExecutionTier::kNative);
    EXPECT_NE(decoded_msg.find(c.text), std::string::npos) << decoded_msg;
    EXPECT_EQ(decoded_msg, native_msg)
        << "a native-tier kernel fault must raise the interpreter's exact text";
  }

  // The watchdog counts a whole block at entry, on both tiers. straight_line
  // is one 18-instruction block; with a budget of 10 neither tier runs any of
  // it: not the out-of-bounds store that opens it (k = 1 << 20), nor, in
  // bounds (k = 40), any store at all.
  vgpu::DeviceProfile tight = dev;
  tight.watchdog_warp_instrs = 10;
  vcuda::Context tight_ctx(tight);
  tight_ctx.set_native_service(&engine);
  auto tight_mod = tight_ctx.LoadModule(kFaults);
  vcuda::DevPtr d_tight = tight_ctx.Malloc(64 * sizeof(float));
  for (const int k : {1 << 20, 40}) {
    SCOPED_TRACE(k);
    std::string msg[2];
    std::vector<unsigned char> bytes[2];
    const ExecutionTier tiers[2] = {ExecutionTier::kDecoded, ExecutionTier::kNative};
    for (int t = 0; t < 2; ++t) {
      tight_ctx.Memset(d_tight, 0, 64 * sizeof(float));
      msg[t] = run_on(tight_ctx, *tight_mod, "straight_line", d_tight, k, tiers[t]);
      bytes[t].resize(64 * sizeof(float));
      tight_ctx.MemcpyDtoH(bytes[t].data(), d_tight, bytes[t].size());
    }
    EXPECT_NE(msg[0].find("watchdog limit"), std::string::npos) << msg[0];
    EXPECT_EQ(msg[0], msg[1]) << "both tiers must stop at the same block entry";
    EXPECT_EQ(bytes[0], bytes[1]) << "a block the watchdog stops must write nothing on either tier";
    EXPECT_EQ(bytes[0], std::vector<unsigned char>(64 * sizeof(float), 0));
  }
  tight_ctx.Free(d_tight);

  const native::NativeEngineStats es = engine.stats();
  EXPECT_EQ(es.builds_completed, 1u);
  EXPECT_EQ(es.fallbacks, 0u) << "every faulting launch must run on the native tier";
  ctx.Free(d_out);
}

// Every valid ALU / setp / cvt (opcode, type) pair, plus mov and sel, on
// edge operands: thread (x, block) reads a = E[x], b = E[block] and
// c = E[(x + block) % n] from memory (run-time values, so no host compiler
// folds them), and stores each result to its own slot. Decoded and
// native-generic must agree on every byte and on the stats.
TEST(NativeTier, AluEdgeOperandsBitIdentical) {
  SKIP_WITHOUT_TOOLCHAIN();
  using vgpu::Instr;
  using vgpu::Opcode;
  using vgpu::Operand;
  using vgpu::Type;
  const std::vector<std::uint64_t> edges = {
      0, 1, 0xffffffffull, ~0ull,  // 0, 1, i32 -1, all-ones (i64 -1)
      0x80000000ull,               // INT32_MIN, f32 -0.0
      0x8000000000000000ull,       // INT64_MIN, f64 -0.0
      0x7fffffffull, 31, 32, 63, 64,
      0x7fc00000ull, 0x7ff8000000000000ull,  // NaN
      0x7f800000ull, 0xff800000ull,          // f32 +-inf
      0x7ff0000000000000ull, 0xfff0000000000000ull,  // f64 +-inf
      0x00400000ull, 0x0008000000000000ull,  // denormals
      0x3f800000ull, 0xbf800000ull,          // f32 +-1
      0x3ff0000000000000ull, 0xbff0000000000000ull,  // f64 +-1
      0x4f000000ull, 0x43e0000000000000ull,  // 2^31 (f32), 2^63 (f64)
  };
  const unsigned n = static_cast<unsigned>(edges.size());
  const unsigned nthreads = n * n;

  // Registers: 0 out, 1..3 operand arrays, 4..9 scratch, 10..12 a/b/c,
  // 13 the result row base, 14 the result.
  vgpu::CompiledKernel k;
  k.name = "edges";
  k.params = {{"out", Type::kU64}, {"a", Type::kU64}, {"b", Type::kU64}, {"c", Type::kU64}};
  k.num_vregs = 15;
  k.stats.reg_count = 15;
  auto sreg = [](vgpu::SpecialReg r) { return Operand::Imm(static_cast<std::uint64_t>(r)); };
  auto R = [](int r) { return Operand::Reg(r); };
  k.code = {
      Instr::Make(Opcode::kSreg, Type::kU32, 4, sreg(vgpu::SpecialReg::kCtaidX)),
      Instr::Make(Opcode::kSreg, Type::kU32, 5, sreg(vgpu::SpecialReg::kNtidX)),
      Instr::Make(Opcode::kSreg, Type::kU32, 6, sreg(vgpu::SpecialReg::kTidX)),
      Instr::Make(Opcode::kMad, Type::kU32, 7, R(4), R(5), R(6)),
  };
  Instr widen = Instr::Make(Opcode::kCvt, Type::kU64, 8, R(7));
  widen.type2 = Type::kU32;
  k.code.push_back(widen);
  k.code.push_back(Instr::Make(Opcode::kShl, Type::kU64, 8, R(8), Operand::Imm(3)));
  for (int p = 1; p <= 3; ++p) {
    k.code.push_back(Instr::Make(Opcode::kAdd, Type::kU64, 9, R(p), R(8)));
    k.code.push_back(Instr::Make(Opcode::kLd, Type::kU64, 9 + p, R(9), Operand::Imm(0)));
  }
  k.code.push_back(Instr::Make(Opcode::kAdd, Type::kU64, 13, R(0), R(8)));
  const std::size_t first_op_pc = k.code.size();
  std::size_t nresults = 0;
  auto emit = [&](Instr i) {
    i.dst = 14;
    i.a = R(10);
    i.b = R(11);
    i.c = R(12);
    k.code.push_back(i);
    k.code.push_back(Instr::Make(Opcode::kSt, Type::kU64, -1, R(13),
                                 Operand::Imm(nresults++ * 8ull * nthreads), R(14)));
  };
  const Type kTypes[] = {Type::kPred, Type::kI32, Type::kU32, Type::kI64,
                         Type::kU64,  Type::kF32, Type::kF64};
  for (Type ty : kTypes) {
    for (unsigned op = 0; op <= static_cast<unsigned>(Opcode::kTex1D); ++op) {
      if (vgpu::simt::AluValid(static_cast<Opcode>(op), vgpu::simt::AluType(ty))) {
        emit(Instr::Make(static_cast<Opcode>(op), ty, 0));
      }
    }
    for (unsigned cmp = 0; cmp <= static_cast<unsigned>(vgpu::CmpOp::kGe); ++cmp) {
      Instr i = Instr::Make(Opcode::kSetp, ty, 0);
      i.cmp = static_cast<vgpu::CmpOp>(cmp);
      emit(i);
    }
    for (Type src : kTypes) {
      Instr i = Instr::Make(Opcode::kCvt, ty, 0);
      i.type2 = src;
      emit(i);
    }
  }
  emit(Instr::Make(Opcode::kMov, Type::kU64, 0));
  emit(Instr::Make(Opcode::kSel, Type::kU64, 0));
  k.code.push_back(Instr::Make(Opcode::kExit, Type::kU32, -1));
  auto compiled = std::make_shared<kcc::CompiledModule>();
  compiled->kernels.push_back(k);

  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine(nopts);
  vcuda::Context ctx(vgpu::TeslaC2070());
  ctx.set_native_service(&engine);
  auto mod = ctx.AdoptCompiledModule(
      kcc::ModuleCacheKey::Make("// ALU edge operands", {}, ctx.device().name), compiled);

  std::vector<std::uint64_t> av(nthreads), bv(nthreads), cv(nthreads);
  for (unsigned g = 0; g < nthreads; ++g) {
    av[g] = edges[g % n];
    bv[g] = edges[g / n];
    cv[g] = edges[(g % n + g / n) % n];
  }
  vcuda::DevPtr d_a = vcuda::Upload<std::uint64_t>(ctx, av);
  vcuda::DevPtr d_b = vcuda::Upload<std::uint64_t>(ctx, bv);
  vcuda::DevPtr d_c = vcuda::Upload<std::uint64_t>(ctx, cv);
  vcuda::DevPtr d_out = ctx.Malloc(nresults * nthreads * sizeof(std::uint64_t));
  auto run = [&](ExecutionTier request) {
    ctx.Memset(d_out, 0, nresults * nthreads * sizeof(std::uint64_t));
    vcuda::ArgPack args;
    args.Ptr(d_out).Ptr(d_a).Ptr(d_b).Ptr(d_c);
    vcuda::LaunchExecution exec;
    exec.request = request;
    LaunchOutcome r;
    r.stats = ctx.Launch(*mod, "edges", vgpu::Dim3(n), vgpu::Dim3(n), args, 0, &exec);
    r.exec = exec;
    std::vector<std::uint64_t> out =
        vcuda::Download<std::uint64_t>(ctx, d_out, nresults * nthreads);
    return std::make_pair(r, out);
  };
  const auto [decoded, decoded_out] = run(ExecutionTier::kDecoded);
  const auto [native, native_out] = [&] {
    ShapeGuard s(vgpu::ShapeMode::kOff);  // the generic TU
    return run(ExecutionTier::kNative);
  }();
  ASSERT_EQ(native.exec.served, ExecutionTier::kNative);
  EXPECT_TRUE(vgpu::StatsBitIdentical(decoded.stats, native.stats));
  ASSERT_EQ(decoded_out.size(), native_out.size());
  // Native against decoded, and compile-time folding (EvalLane, what kcc and
  // maskprop fold through) against decoded, bit for bit.
  std::size_t mismatches = 0, fold_mismatches = 0;
  for (std::size_t r = 0; r < nresults; ++r) {
    const Instr& op = k.code[first_op_pc + 2 * r];
    for (unsigned g = 0; g < nthreads; ++g) {
      const std::size_t at = r * nthreads + g;
      if (decoded_out[at] != native_out[at] && ++mismatches <= 10) {
        ADD_FAILURE() << "result " << r << " " << vgpu::Disassemble(op, 0) << " with a="
                      << std::hex << av[g] << " b=" << bv[g] << " c=" << cv[g] << ": decoded "
                      << decoded_out[at] << ", native " << native_out[at];
      }
      std::uint64_t folded = 0;
      const bool evaluated = vgpu::EvalLane(op, av[g], bv[g], cv[g], &folded);
      if ((!evaluated || folded != decoded_out[at]) && ++fold_mismatches <= 10) {
        ADD_FAILURE() << "result " << r << " " << vgpu::Disassemble(op, 0) << " with a="
                      << std::hex << av[g] << " b=" << bv[g] << " c=" << cv[g] << ": decoded "
                      << decoded_out[at] << ", EvalLane "
                      << (evaluated ? "" : "declined, left ") << folded;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(fold_mismatches, 0u);
  for (vcuda::DevPtr p : {d_a, d_b, d_c, d_out}) ctx.Free(p);
}

// The warp-control rules on every tier: branches, reconvergence, barriers,
// exit and the implicit exit past the last pc. Each kernel runs on decoded,
// native generic and native shape (eager) with 32- and 40-thread blocks (the
// 40-thread block has a tail warp, so the variant runs its `_gen` body); the
// outputs must match a host reference and the LaunchStats must agree bit for
// bit. One module per kind of source, so each builds one generic TU.
TEST(NativeTier, WarpControlBitIdentical) {
  SKIP_WITHOUT_TOOLCHAIN();
  constexpr const char* kControl = R"(
__kernel void nested(float* out, int n) {
  unsigned int t = threadIdx.x;
  float v = 0.0f;
  if (t < 16u) {
    if (t < 8u) { v = 1.0f; } else { v = 2.0f; }
  } else {
    if (t % 2u == 0u) { v = 3.0f; } else { v = 4.0f; }
  }
  out[blockIdx.x * blockDim.x + t] = v + (float)n;
}
__kernel void early_return(float* out, int n) {
  int t = (int)threadIdx.x;
  out[blockIdx.x * blockDim.x + threadIdx.x] = -1.0f;
  if (t >= n) {
    return;
  }
  out[blockIdx.x * blockDim.x + threadIdx.x] = 5.0f;
}
__kernel void trip_count(float* out, int n) {
  int t = (int)threadIdx.x;
  float acc = 0.0f;
  for (int i = 0; i < t + n; i++) { acc += 1.5f; }
  out[blockIdx.x * blockDim.x + threadIdx.x] = acc;
}
__kernel void two_warp_barrier(float* out, int n) {
  __shared float s[64];
  unsigned int t = threadIdx.x;
  s[t] = (float)(t * 3u);
  __syncthreads();
  out[blockIdx.x * blockDim.x + t] = s[blockDim.x - 1u - t] + (float)n;
}
__kernel void loop_return(float* out, int n) {
  int t = (int)threadIdx.x;
  float acc = 0.0f;
  for (int i = 0; i < 40; i++) {
    if (i * 3 + t % 7 > t + n) {
      out[blockIdx.x * blockDim.x + threadIdx.x] = acc;
      return;
    }
    acc += (float)i;
  }
  out[blockIdx.x * blockDim.x + threadIdx.x] = acc + 1000.0f;
}
)";
  constexpr int kN = 10;
  constexpr unsigned kBlocks = 3;
  auto loop_return = [](int t) {
    float acc = 0.0f;
    for (int i = 0; i < 40; i++) {
      if (i * 3 + t % 7 > t + kN) return acc;
      acc += static_cast<float>(i);
    }
    return acc + 1000.0f;
  };
  using Expect = std::function<float(int t, int nthreads)>;
  const std::vector<std::pair<std::string, Expect>> compiled_kernels = {
      {"nested",
       [](int t, int) {
         return static_cast<float>(t < 8 ? 1 : t < 16 ? 2 : t % 2 == 0 ? 3 : 4) + kN;
       }},
      {"early_return", [](int t, int) { return t >= kN ? -1.0f : 5.0f; }},
      {"trip_count", [](int t, int) { return 1.5f * static_cast<float>(t + kN); }},
      {"two_warp_barrier",
       [](int t, int nthreads) { return static_cast<float>((nthreads - 1 - t) * 3 + kN); }},
      {"loop_return", [&](int t, int) { return loop_return(t); }},
  };

  // Hand-assembled, because kcc always ends a kernel with `exit` and never
  // branches past it: `past_end` sends lanes 20.. to a target past the last
  // pc (an implicit exit with the fall-through side still pending), and
  // `reconv_at_end` reconverges at the end, so both sides of its branch
  // leave through the implicit exit. Neither ends with `exit`.
  auto assembled = std::make_shared<kcc::CompiledModule>();
  auto add_kernel = [&](const char* name, const char* text) {
    vgpu::CompiledKernel k;
    k.name = name;
    k.code = vgpu::Assemble(text);
    k.params = {{"out", vgpu::Type::kU64}, {"n", vgpu::Type::kI32}};
    k.num_vregs = 7;
    k.stats.reg_count = 7;
    ASSERT_NE(k.code.back().op, vgpu::Opcode::kExit);
    assembled->kernels.push_back(k);
  };
  add_kernel("past_end", R"(
    mov.u32 %r2, %tid.x
    cvt.u64.u32 %r3, %r2
    shl.u64 %r3, %r3, 2
    add.u64 %r3, %r0, %r3
    mov.f32 %r4, 0f3F800000
    st.global.f32 [%r3+0], %r4
    setp.ge.u32 %p5, %r2, 20
    @%p5 bra L12  // reconv L9
    mov.f32 %r4, 0f40000000
    add.f32 %r4, %r4, 0f40400000
    st.global.f32 [%r3+0], %r4
    mov.u32 %r6, %r2
)");
  add_kernel("reconv_at_end", R"(
    mov.u32 %r2, %tid.x
    cvt.u64.u32 %r3, %r2
    shl.u64 %r3, %r3, 2
    add.u64 %r3, %r0, %r3
    mov.f32 %r4, 0f3F800000
    setp.lt.u32 %p5, %r2, 12
    @%p5 bra L9  // reconv L11
    mov.f32 %r4, 0f40000000
    bra L10
    mov.f32 %r4, 0f40800000
    st.global.f32 [%r3+0], %r4
)");
  // Both index `out` by tid.x alone, so they run as one block.
  const std::vector<std::pair<std::string, Expect>> assembled_kernels = {
      {"past_end", [](int t, int) { return t >= 20 ? 1.0f : 5.0f; }},
      {"reconv_at_end", [](int t, int) { return t < 12 ? 4.0f : 2.0f; }},
  };

  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine(nopts);
  vcuda::Context ctx(vgpu::TeslaC2070());
  ctx.set_native_service(&engine);
  auto compiled_mod = ctx.LoadModule(kControl);
  auto assembled_mod = ctx.AdoptCompiledModule(
      kcc::ModuleCacheKey::Make("// warp control, hand-assembled", {}, ctx.device().name),
      assembled);

  auto check = [&](vcuda::Module& mod, const std::string& kernel, const Expect& expect,
                   unsigned threads, unsigned blocks) {
    SCOPED_TRACE(kernel + " with " + std::to_string(threads) + "-thread blocks");
    const std::size_t n = std::size_t{threads} * blocks;
    vcuda::DevPtr d_out = ctx.Malloc(n * sizeof(float));
    auto run = [&](ExecutionTier request, vgpu::ShapeMode shape) {
      ShapeGuard g(shape);
      ctx.Memset(d_out, 0, n * sizeof(float));
      vcuda::ArgPack args;
      args.Ptr(d_out).Int(kN);
      LaunchOutcome r;
      r.exec.request = request;
      r.stats = ctx.Launch(mod, kernel, vgpu::Dim3(blocks), vgpu::Dim3(threads), args, 0,
                           &r.exec);
      r.out = vcuda::Download<float>(ctx, d_out, n);
      return r;
    };
    const LaunchOutcome decoded = run(ExecutionTier::kDecoded, vgpu::ShapeMode::kOff);
    const LaunchOutcome generic = run(ExecutionTier::kNative, vgpu::ShapeMode::kOff);
    const LaunchOutcome shaped = run(ExecutionTier::kNative, vgpu::ShapeMode::kEager);
    ctx.Free(d_out);
    EXPECT_EQ(generic.exec.served, ExecutionTier::kNative);
    EXPECT_FALSE(generic.exec.native_shape);
    EXPECT_EQ(shaped.exec.served, ExecutionTier::kNative);
    EXPECT_TRUE(shaped.exec.native_shape);
    for (std::size_t g = 0; g < n; ++g) {
      const int t = static_cast<int>(g % threads);
      EXPECT_EQ(decoded.out[g], expect(t, static_cast<int>(threads))) << "thread " << g;
    }
    EXPECT_TRUE(vgpu::StatsBitIdentical(decoded.stats, generic.stats));
    EXPECT_TRUE(vgpu::StatsBitIdentical(decoded.stats, shaped.stats));
    EXPECT_EQ(decoded.out, generic.out);
    EXPECT_EQ(decoded.out, shaped.out);
  };
  for (const unsigned threads : {32u, 40u}) {
    for (const auto& [kernel, expect] : compiled_kernels) {
      check(*compiled_mod, kernel, expect, threads, kBlocks);
    }
    for (const auto& [kernel, expect] : assembled_kernels) {
      check(*assembled_mod, kernel, expect, threads, 1);
    }
  }
  EXPECT_EQ(engine.stats().fallbacks, 0u);
}

// Fused lane runs: the emitter writes one lane loop per straight-line run of
// register-only instructions. One kernel whose blocks hold every
// register-only form family (integer and float ALU, setp, sel, cvt, mov,
// sreg), a loop whose body updates its accumulators in place (a run reads
// vregs before writing them), forms that keep a loop of their own (div, rem,
// sqrt, exp, floor) in the middle of a block, and a divergent branch. It
// runs on decoded, native generic and native shape, with a block of 80
// threads (a tail warp) and a 2-D block; outputs must match byte for byte
// and the stats bit for bit. The emitted text must hold exactly one lane
// loop per run, so a fallback to one loop per instruction fails here too.
TEST(NativeTier, FusedRunsBitIdentical) {
  SKIP_WITHOUT_TOOLCHAIN();
  constexpr const char* kFused = R"(
__kernel void fused(float* out, int* iout, float* in, int n) {
  unsigned int tx = threadIdx.x;
  unsigned int ty = threadIdx.y;
  int t = (int)(ty * blockDim.x + tx);
  int g = (int)blockIdx.x * (int)(blockDim.x * blockDim.y) + t;
  float v = in[g];
  int a = t * 7 + n;
  int b = (a << 3) ^ (a >> 2);
  b = (b | (t & 5)) - ~a;
  int c = min(a, b) - max(a, 3) + abs(t - 40) + __mul24(a, 3) - -b;
  unsigned int u = (unsigned int)c * 2654435761u;
  u = umin(u >> 7, umax(u, 12345u));
  float f = (float)c * 0.5f + v;
  float h = fminf(f, v) - fmaxf(f, 1.0f) + fabsf(f - 2.0f);
  f = h * f - v;
  double d = (double)f * 1.25 + (double)u;
  float s = (t > 20) ? f : h;
  float q = sqrtf(fabsf(f) + 1.0f) + s * 3.0f;
  int r = a / (t + 1) + a % 7 + c * 5;
  float e = expf(h * 0.001f) + floorf(f) + q * 2.0f - (float)d;
  float acc = v;
  int k = a;
  for (int i = 0; i < n; i++) {
    acc = acc * 0.75f + (float)i;
    k = (k ^ i) * 3 + 1;
  }
  if (t % 3) {
    acc = acc + s * 2.0f;
    k = k + r;
  } else {
    acc = acc - e;
    k = k - (int)u;
  }
  out[g] = acc + e + q;
  iout[g] = k + r + (int)(blockIdx.x * 7u);
}
)";
  constexpr int kN = 5;
  constexpr unsigned kBlocks = 3;

  TempCacheDir cache;
  native::NativeEngine::Options nopts;
  nopts.cache_dir = cache.str();
  native::NativeEngine engine(nopts);
  vcuda::Context ctx(vgpu::TeslaC2070());
  ctx.set_native_service(&engine);
  auto mod = ctx.LoadModule(kFused);

  for (const vgpu::Dim3 block : {vgpu::Dim3(80), vgpu::Dim3(16, 4)}) {
    SCOPED_TRACE("block " + std::to_string(block.x) + "x" + std::to_string(block.y));
    const std::size_t n = block.Count() * kBlocks;
    std::vector<float> in(n);
    for (std::size_t i = 0; i < n; ++i) in[i] = static_cast<float>(i * 29 % 97) / 13.0f;
    vcuda::DevPtr d_in = vcuda::Upload<float>(ctx, in);
    vcuda::DevPtr d_out = ctx.Malloc(n * sizeof(float));
    vcuda::DevPtr d_iout = ctx.Malloc(n * sizeof(std::int32_t));
    struct Outcome {
      LaunchOutcome r;
      std::vector<std::uint32_t> out, iout;
    };
    auto run = [&](ExecutionTier request, vgpu::ShapeMode shape) {
      ShapeGuard g(shape);
      ctx.Memset(d_out, 0, n * sizeof(float));
      ctx.Memset(d_iout, 0, n * sizeof(std::int32_t));
      vcuda::ArgPack args;
      args.Ptr(d_out).Ptr(d_iout).Ptr(d_in).Int(kN);
      Outcome o;
      o.r.exec.request = request;
      o.r.stats = ctx.Launch(*mod, "fused", vgpu::Dim3(kBlocks), block, args, 0, &o.r.exec);
      o.out = vcuda::Download<std::uint32_t>(ctx, d_out, n);
      o.iout = vcuda::Download<std::uint32_t>(ctx, d_iout, n);
      return o;
    };
    const Outcome decoded = run(ExecutionTier::kDecoded, vgpu::ShapeMode::kOff);
    const Outcome generic = run(ExecutionTier::kNative, vgpu::ShapeMode::kOff);
    const Outcome shaped = run(ExecutionTier::kNative, vgpu::ShapeMode::kEager);
    for (vcuda::DevPtr p : {d_in, d_out, d_iout}) ctx.Free(p);
    EXPECT_EQ(generic.r.exec.served, ExecutionTier::kNative);
    EXPECT_FALSE(generic.r.exec.native_shape);
    EXPECT_EQ(shaped.r.exec.served, ExecutionTier::kNative);
    EXPECT_TRUE(shaped.r.exec.native_shape);
    EXPECT_TRUE(vgpu::StatsBitIdentical(decoded.r.stats, generic.r.stats));
    EXPECT_TRUE(vgpu::StatsBitIdentical(decoded.r.stats, shaped.r.stats));
    EXPECT_EQ(decoded.out, generic.out);
    EXPECT_EQ(decoded.out, shaped.out);
    EXPECT_EQ(decoded.iout, generic.iout);
    EXPECT_EQ(decoded.iout, shaped.iout);
  }
  EXPECT_EQ(engine.stats().fallbacks, 0u);

  // The emitted text: in each block, one fused lane run (one full-warp lane
  // loop) per maximal run of register-only forms, and one Lanes call per
  // form that keeps a loop of its own. The forms are listed here, not taken
  // from the emitter's rule.
  const vgpu::CompiledKernel& ker = mod->compiled().kernels.at(0);
  auto own_loop = [](vgpu::Opcode op) {
    using vgpu::Opcode;
    for (Opcode o : {Opcode::kDiv, Opcode::kRem, Opcode::kSqrt, Opcode::kRsqrt, Opcode::kFloor,
                     Opcode::kCeil, Opcode::kExp, Opcode::kLog, Opcode::kSin, Opcode::kCos}) {
      if (op == o) return true;
    }
    return false;
  };
  auto fusable = [&](const vgpu::Instr& i) {
    using vgpu::Opcode;
    switch (i.op) {
      case Opcode::kNop: case Opcode::kLd: case Opcode::kSt: case Opcode::kBra:
      case Opcode::kBraPred: case Opcode::kBarSync: case Opcode::kExit: case Opcode::kTex2D:
      case Opcode::kTex1D:
        return false;
      default:
        return !vgpu::IsAtomicOp(i.op) && !own_loop(i.op);
    }
  };
  auto count = [](const std::string& text, const std::string& what) {
    std::size_t c = 0;
    for (std::size_t at = text.find(what); at != std::string::npos; at = text.find(what, at + 1)) {
      ++c;
    }
    return c;
  };
  // One `case` of the kernel function `fn` in `tu`: the text from its label
  // to the next label.
  auto block_text = [](const std::string& tu, const std::string& fn, int leader) {
    const std::size_t body = tu.find("static void " + fn + "(");
    const std::size_t from = tu.find("    case " + std::to_string(leader) + "u: {", body);
    const std::size_t to =
        std::min(tu.find("\n    case ", from + 1), tu.find("\n    default:", from + 1));
    return tu.substr(from, to - from);
  };
  const std::string generic_tu = native::EmitModuleSource(mod->compiled(), "fused-runs");
  native::ShapeSpec shape;
  shape.block_x = 64;
  shape.grid_x = kBlocks;
  const std::string shape_tu = native::EmitModuleSource(mod->compiled(), "fused-runs", &shape);
  const vgpu::Cfg cfg(ker.code);
  std::size_t longest_run = 0;
  for (int bi = 0; bi < cfg.size(); ++bi) {
    std::size_t runs = 0, own_loops = 0;
    for (int pc = cfg[bi].begin; pc < cfg[bi].end; ++pc) {
      const vgpu::Instr& i = ker.code[static_cast<std::size_t>(pc)];
      if (own_loop(i.op)) ++own_loops;
      if (!fusable(i)) continue;
      ++runs;
      std::size_t len = 1;
      while (pc + 1 < cfg[bi].end && fusable(ker.code[static_cast<std::size_t>(pc) + 1])) {
        ++pc;
        ++len;
      }
      longest_run = std::max(longest_run, len);
    }
    for (const auto& [tu, fn] : {std::pair{&generic_tu, "run_warp_k0"},
                                 std::pair{&shape_tu, "run_warp_k0_full"}}) {
      SCOPED_TRACE(std::string(fn) + ", block at pc " + std::to_string(cfg[bi].begin));
      const std::string text = block_text(*tu, fn, cfg[bi].begin);
      EXPECT_EQ(count(text, "fused lane run"), runs);
      EXPECT_EQ(count(text, "for (unsigned l = 0; l < 32; ++l)"), runs);
      EXPECT_EQ(count(text, "Lanes<"), own_loops);
    }
  }
  EXPECT_GE(longest_run, 8u) << "the kernel must hold a long straight-line run";
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

// Destroying the engine waits only for the promotion already running: the
// queued ones see the engine closing and return without building. A
// shutdown that ran every accepted promotion would leave three variants.
TEST(NativeShape, DestructionSkipsQueuedPromotions) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir cache;
  {
    native::NativeEngine::Options nopts;
    nopts.cache_dir = cache.str();
    nopts.shape_hot_threshold = 1;
    native::NativeEngine engine(nopts);
    vcuda::Context ctx(vgpu::TeslaC1060());
    ctx.set_native_service(&engine);
    auto mod = ctx.LoadModule(kKernel, OptsFor(3));
    ASSERT_TRUE(engine.EnsureReady(
        kcc::ModuleCacheKey::Make(kKernel, OptsFor(3), ctx.device().name), mod->compiled()));
    ShapeGuard g(vgpu::ShapeMode::kAuto);
    // A shape's first launch probes the load-only ladder; its second finds
    // the variant missing and hot and queues the promotion.
    for (int blocks : {2, 4, 8}) {
      RunReduce(ctx, *mod, ExecutionTier::kAuto, blocks);
      RunReduce(ctx, *mod, ExecutionTier::kAuto, blocks);
    }
  }
  int variants = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(cache.dir)) {
    const std::string name = e.path().filename().string();
    if (name.find("_s") != std::string::npos && name.ends_with(".nso")) ++variants;
  }
  EXPECT_LE(variants, 1);
}

}  // namespace
}  // namespace kspec
