// Specialization-cache behavior: hit/miss/collision accounting, the
// collision-safe full-key verification, persistent disk artifacts (round-trip
// equality, corrupt-file and version-bump fallback), LRU eviction, concurrent
// loads, and tiered-loader keying over the full option set.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "kcc/cache_key.hpp"
#include "kcc/serialize.hpp"
#include "support/serialize.hpp"
#include "support/temp_dir.hpp"
#include "vcuda/module_cache.hpp"
#include "vcuda/tiered.hpp"
#include "vcuda/vcuda.hpp"

namespace kspec {
namespace {

namespace fs = std::filesystem;

constexpr const char* kKernel = R"(
#ifndef N
#define N n
#endif
__kernel void f(float* out, int n) {
  float acc = 0.0f;
  for (int i = 0; i < N; i++) { acc += 1.0f; }
  out[threadIdx.x] = acc;
}
)";

kcc::CompileOptions OptsFor(int n) {
  kcc::CompileOptions opts;
  opts.defines["N"] = std::to_string(n);
  return opts;
}

float RunOnce(vcuda::Context& ctx, vcuda::Module& mod, int n) {
  auto d_out = ctx.Malloc(32 * 4);
  vcuda::ArgPack args;
  args.Ptr(d_out).Int(n);
  ctx.Launch(mod, "f", vgpu::Dim3(1), vgpu::Dim3(32), args);
  float v = vcuda::Download<float>(ctx, d_out, 1)[0];
  ctx.Free(d_out);
  return v;
}

// A scratch cache directory, fresh per test, removed on destruction.
struct TempCacheDir {
  TempCacheDir() : owner("kspec_cache_test_"), dir(owner.path()) {
    EXPECT_TRUE(owner.valid());
  }
  std::string str() const { return owner.path(); }
  ScopedTempDir owner;
  fs::path dir;
};

fs::path OnlyArtifact(const fs::path& dir) {
  fs::path found;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".kmod") {
      EXPECT_TRUE(found.empty()) << "expected exactly one artifact";
      found = e.path();
    }
  }
  EXPECT_FALSE(found.empty()) << "no .kmod artifact in " << dir;
  return found;
}

TEST(ModuleCacheKey, CoversEveryField) {
  kcc::CompileOptions opts = OptsFor(4);
  kcc::ModuleCacheKey base = kcc::ModuleCacheKey::Make(kKernel, opts, "VC1060");

  auto differs = [&](const kcc::ModuleCacheKey& other) {
    EXPECT_FALSE(base == other);
    EXPECT_NE(base.CanonicalText(), other.CanonicalText());
  };

  differs(kcc::ModuleCacheKey::Make(std::string(kKernel) + " ", opts, "VC1060"));
  differs(kcc::ModuleCacheKey::Make(kKernel, OptsFor(5), "VC1060"));
  differs(kcc::ModuleCacheKey::Make(kKernel, opts, "VC2070"));
  kcc::CompileOptions tweaked = opts;
  tweaked.max_unroll = 7;
  differs(kcc::ModuleCacheKey::Make(kKernel, tweaked, "VC1060"));
  tweaked = opts;
  tweaked.optimize = false;
  differs(kcc::ModuleCacheKey::Make(kKernel, tweaked, "VC1060"));
  tweaked = opts;
  tweaked.enable_unroll = false;
  differs(kcc::ModuleCacheKey::Make(kKernel, tweaked, "VC1060"));
  tweaked = opts;
  tweaked.enable_strength_reduction = false;
  differs(kcc::ModuleCacheKey::Make(kKernel, tweaked, "VC1060"));
  tweaked = opts;
  tweaked.enable_cse = false;
  differs(kcc::ModuleCacheKey::Make(kKernel, tweaked, "VC1060"));

  EXPECT_EQ(base, kcc::ModuleCacheKey::Make(kKernel, OptsFor(4), "VC1060"));
  EXPECT_EQ(base.Hash(), kcc::ModuleCacheKey::Make(kKernel, OptsFor(4), "VC1060").Hash());
  // Defines must not smear together: {AB:C} vs {A:BC}.
  kcc::CompileOptions ab, a_bc;
  ab.defines["AB"] = "C";
  a_bc.defines["A"] = "BC";
  EXPECT_NE(kcc::ModuleCacheKey::Make(kKernel, ab, "VC1060").CanonicalText(),
            kcc::ModuleCacheKey::Make(kKernel, a_bc, "VC1060").CanonicalText());
}

TEST(CacheStats, HitMissAccounting) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto m1 = ctx.LoadModule(kKernel, OptsFor(4));
  auto m2 = ctx.LoadModule(kKernel, OptsFor(4));
  auto m3 = ctx.LoadModule(kKernel, OptsFor(8));
  auto stats = ctx.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.collisions_detected, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.bytes_cached, 0u);
  EXPECT_GT(stats.compile_millis_total, 0.0);
}

// The compile_millis regression: a module without kernels must still account
// its compile time (the old code read kernels.front() and dropped it).
TEST(CacheStats, KernellessModuleCompileTimeCounted) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule("__constant float lut[4];\n", {});
  EXPECT_TRUE(mod->compiled().kernels.empty());
  EXPECT_GT(mod->compiled().compile_millis, 0.0);
  EXPECT_GT(ctx.cache_stats().compile_millis_total, 0.0);
}

// Two different keys forged onto the same hash must never alias: the cache
// verifies the full key, reports the wrong-key probe as a miss, and counts
// the collision. (FNV-1a collisions can't be produced on demand, so the test
// drives ModuleCache directly with a forged bucket hash.)
TEST(ModuleCache, HashCollisionNeverServesWrongModule) {
  auto mod_a = std::make_shared<const kcc::CompiledModule>(
      kcc::CompileModule("__kernel void a(float* o) { o[0] = 1.0f; }"));
  auto mod_b = std::make_shared<const kcc::CompiledModule>(
      kcc::CompileModule("__kernel void b(float* o) { o[0] = 2.0f; }"));
  kcc::ModuleCacheKey key_a = kcc::ModuleCacheKey::Make("src_a", {}, "VC1060");
  kcc::ModuleCacheKey key_b = kcc::ModuleCacheKey::Make("src_b", {}, "VC1060");
  ASSERT_FALSE(key_a == key_b);

  const std::uint64_t forged_hash = 42;
  vcuda::ModuleCache cache;
  cache.Put(forged_hash, key_a, mod_a);

  // Before the fix this lookup returned mod_a — the wrong specialization.
  EXPECT_EQ(cache.Get(forged_hash, key_b), nullptr);
  EXPECT_EQ(cache.collisions_detected(), 1u);

  // Both keys coexist in one bucket, each serving its own module.
  cache.Put(forged_hash, key_b, mod_b);
  ASSERT_NE(cache.Get(forged_hash, key_a), nullptr);
  ASSERT_NE(cache.Get(forged_hash, key_b), nullptr);
  EXPECT_TRUE(cache.Get(forged_hash, key_a)->FindKernel("a"));
  EXPECT_TRUE(cache.Get(forged_hash, key_b)->FindKernel("b"));
  EXPECT_EQ(cache.entry_count(), 2u);
}

TEST(ModuleCache, PutReturnsExistingOnCompileRace) {
  auto first = std::make_shared<const kcc::CompiledModule>(
      kcc::CompileModule("__kernel void a(float* o) { o[0] = 1.0f; }"));
  auto second = std::make_shared<const kcc::CompiledModule>(*first);
  kcc::ModuleCacheKey key = kcc::ModuleCacheKey::Make("src", {}, "VC1060");
  vcuda::ModuleCache cache;
  EXPECT_EQ(cache.Put(key.Hash(), key, first), first);
  EXPECT_EQ(cache.Put(key.Hash(), key, second), first);  // winner kept
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(ModuleCache, LruEvictionRespectsByteBudget) {
  vcuda::ModuleCache cache;
  std::vector<kcc::ModuleCacheKey> keys;
  std::size_t per_module = 0;
  for (int n = 1; n <= 3; ++n) {
    auto mod = std::make_shared<const kcc::CompiledModule>(
        kcc::CompileModule(kKernel, OptsFor(n)));
    per_module = kcc::ApproxModuleBytes(*mod);
    keys.push_back(kcc::ModuleCacheKey::Make(kKernel, OptsFor(n), "VC1060"));
    cache.Put(keys.back().Hash(), keys.back(), mod);
  }
  ASSERT_EQ(cache.entry_count(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Budget for ~2 modules: the least recently used (n=1) goes first.
  cache.set_byte_budget(per_module * 2 + per_module / 2);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_LE(cache.bytes_cached(), cache.byte_budget());
  EXPECT_EQ(cache.Get(keys[0].Hash(), keys[0]), nullptr);
  EXPECT_NE(cache.Get(keys[1].Hash(), keys[1]), nullptr);
  EXPECT_NE(cache.Get(keys[2].Hash(), keys[2]), nullptr);

  // Even a budget below one module keeps the most recently used entry
  // (keys[2], bumped by the probe above).
  cache.set_byte_budget(1);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_NE(cache.Get(keys[2].Hash(), keys[2]), nullptr);
}

TEST(Serialize, RoundTripPreservesEverything) {
  const char* src = R"(
__constant float coeffs[4];
__texture float tex;
__kernel void f(float* out, int n) {
  __shared float tile[32];
  int i = blockIdx.x * 32 + threadIdx.x;
  tile[threadIdx.x] = coeffs[threadIdx.x & 3];
  __syncthreads();
  if (i < n) { out[i] = tile[0] + tex2D(tex, 0.5f, 0.5f); }
}
)";
  kcc::CompiledModule mod = kcc::CompileModule(src, OptsFor(16));
  std::string key_text = kcc::ModuleCacheKey::Make(src, OptsFor(16), "VC1060").CanonicalText();

  std::vector<std::uint8_t> bytes = kcc::Serialize(mod, key_text);
  std::string stored_key;
  kcc::CompiledModule back = kcc::Deserialize(bytes, &stored_key);

  EXPECT_EQ(stored_key, key_text);
  EXPECT_EQ(back.const_bytes, mod.const_bytes);
  EXPECT_EQ(back.compile_millis, mod.compile_millis);
  ASSERT_EQ(back.textures, mod.textures);
  ASSERT_EQ(back.constants.size(), mod.constants.size());
  for (std::size_t i = 0; i < mod.constants.size(); ++i) {
    EXPECT_EQ(back.constants[i].name, mod.constants[i].name);
    EXPECT_EQ(back.constants[i].elem, mod.constants[i].elem);
    EXPECT_EQ(back.constants[i].count, mod.constants[i].count);
    EXPECT_EQ(back.constants[i].offset, mod.constants[i].offset);
    EXPECT_EQ(back.constants[i].bytes, mod.constants[i].bytes);
  }
  ASSERT_EQ(back.kernels.size(), mod.kernels.size());
  for (std::size_t i = 0; i < mod.kernels.size(); ++i) {
    const auto& k0 = mod.kernels[i];
    const auto& k1 = back.kernels[i];
    EXPECT_EQ(k1.name, k0.name);
    EXPECT_EQ(k1.listing, k0.listing);
    EXPECT_EQ(k1.num_vregs, k0.num_vregs);
    EXPECT_EQ(k1.static_smem_bytes, k0.static_smem_bytes);
    EXPECT_EQ(k1.ilp_at_pc, k0.ilp_at_pc);
    EXPECT_EQ(k1.stats.reg_count, k0.stats.reg_count);
    EXPECT_EQ(k1.stats.static_instrs, k0.stats.static_instrs);
    EXPECT_EQ(k1.stats.unrolled_loops, k0.stats.unrolled_loops);
    EXPECT_EQ(k1.stats.folded_consts, k0.stats.folded_consts);
    EXPECT_EQ(k1.stats.strength_reduced, k0.stats.strength_reduced);
    ASSERT_EQ(k1.params.size(), k0.params.size());
    for (std::size_t p = 0; p < k0.params.size(); ++p) {
      EXPECT_EQ(k1.params[p].name, k0.params[p].name);
      EXPECT_EQ(k1.params[p].type, k0.params[p].type);
    }
    ASSERT_EQ(k1.code.size(), k0.code.size());
    // The disassembly covers every instruction field we execute.
    EXPECT_EQ(vgpu::Disassemble(k1.code), vgpu::Disassemble(k0.code));
  }
}

// The envelope bytes are an on-disk contract: cache directories and stores
// written by earlier builds must stay hits. These goldens were recorded from
// the two original per-kind codecs; any layout drift fails here before it
// silently turns every warm cache cold.
TEST(Serialize, EnvelopeBytesMatchGoldens) {
  const std::uint8_t so[] = {0x01, 0x02, 0x03};
  const std::vector<std::uint8_t> native_golden = {
      'K', 'S', 'P', 'C', 'N', 'S', 'O', '1',          // magic
      0x01, 0x00, 0x00, 0x00,                          // kNativeFormatVersion
      0x1a, 0x82, 0x89, 0x4d, 0xab, 0xff, 0x20, 0x03,  // FNV-1a of the payload
      0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload bytes
      0x01, 0x00, 0x00, 0x00, 'k',                     // key text
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // shared-object bytes
      0x01, 0x02, 0x03};
  EXPECT_EQ(kcc::SerializeNative(so, "k"), native_golden);
  std::string key;
  EXPECT_EQ(kcc::DeserializeNative(native_golden, &key), std::vector<std::uint8_t>(so, so + 3));
  EXPECT_EQ(key, "k");

  kcc::CompiledModule mod;  // no kernels, compile_millis = 0
  kcc::ConstantInfo c;
  c.name = "c";
  c.elem = vgpu::Type::kF32;
  c.count = 4;
  c.bytes = 16;
  mod.constants.push_back(c);
  mod.textures.push_back("tex");
  mod.const_bytes = 16;
  const std::vector<std::uint8_t> module_golden = {
      'K', 'S', 'P', 'C', 'M', 'O', 'D', '1',          // magic
      0x01, 0x00, 0x00, 0x00,                          // kModuleFormatVersion
      0xd0, 0x4d, 0x06, 0xa4, 0x86, 0xb7, 0x43, 0x83,  // FNV-1a of the payload
      0x3a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload bytes
      0x01, 0x00, 0x00, 0x00, 'k',                     // key text
      0x00, 0x00, 0x00, 0x00,                          // kernels
      0x01, 0x00, 0x00, 0x00,                          // constants
      0x01, 0x00, 0x00, 0x00, 'c', 0x05,               //   name, elem
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   count
      0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00,  //   offset, bytes
      0x01, 0x00, 0x00, 0x00,                          // textures
      0x03, 0x00, 0x00, 0x00, 't', 'e', 'x',           //   name
      0x10, 0x00, 0x00, 0x00,                          // const_bytes
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}; // compile_millis
  EXPECT_EQ(kcc::Serialize(mod, "k"), module_golden);
  kcc::CompiledModule back = kcc::Deserialize(module_golden, &key);
  EXPECT_EQ(key, "k");
  EXPECT_EQ(back.textures, mod.textures);
  EXPECT_EQ(back.const_bytes, 16u);
}

// Acceptance: a second Context pointed at the same cache_dir loads from disk
// without compiling, and the deserialized module launches identically.
TEST(DiskCache, SecondContextGetsDiskHit) {
  TempCacheDir tmp;
  float warm_result;
  {
    vcuda::Context ctx(vgpu::TeslaC1060());
    ctx.set_cache_dir(tmp.str());
    auto mod = ctx.LoadModule(kKernel, OptsFor(9));
    warm_result = RunOnce(ctx, *mod, 9);
    EXPECT_EQ(ctx.cache_stats().misses, 1u);
  }
  EXPECT_FALSE(OnlyArtifact(tmp.dir).empty());

  vcuda::Context ctx2(vgpu::TeslaC1060());
  ctx2.set_cache_dir(tmp.str());
  auto mod = ctx2.LoadModule(kKernel, OptsFor(9));
  auto stats = ctx2.cache_stats();
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.misses, 0u);  // kcc::CompileModule never ran
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(RunOnce(ctx2, *mod, 9), warm_result);
  EXPECT_GT(mod->compiled().compile_millis, 0.0);  // original compile cost travels along

  // The disk artifact seeds the in-memory tier: the next load is a warm hit.
  ctx2.LoadModule(kKernel, OptsFor(9));
  EXPECT_EQ(ctx2.cache_stats().hits, 1u);
}

TEST(DiskCache, DeviceIsPartOfTheKey) {
  TempCacheDir tmp;
  {
    vcuda::Context ctx(vgpu::TeslaC1060());
    ctx.set_cache_dir(tmp.str());
    ctx.LoadModule(kKernel, OptsFor(9));
  }
  // A different device must not reuse the VC1060 artifact.
  vcuda::Context ctx(vgpu::TeslaC2070());
  ctx.set_cache_dir(tmp.str());
  ctx.LoadModule(kKernel, OptsFor(9));
  EXPECT_EQ(ctx.cache_stats().disk_hits, 0u);
  EXPECT_EQ(ctx.cache_stats().misses, 1u);
}

TEST(DiskCache, CorruptArtifactFallsBackToRecompile) {
  TempCacheDir tmp;
  {
    vcuda::Context ctx(vgpu::TeslaC1060());
    ctx.set_cache_dir(tmp.str());
    ctx.LoadModule(kKernel, OptsFor(9));
  }
  fs::path artifact = OnlyArtifact(tmp.dir);

  // Flip a payload byte: the checksum catches it.
  {
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(ReadFileBytes(artifact.string(), &bytes));
    ASSERT_GT(bytes.size(), 5u);
    bytes[bytes.size() - 5] ^= 0x5a;
    ASSERT_TRUE(WriteFileAtomic(artifact.string(), bytes));
  }
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_cache_dir(tmp.str());
  auto mod = ctx.LoadModule(kKernel, OptsFor(9));  // must not throw
  EXPECT_EQ(ctx.cache_stats().disk_hits, 0u);
  EXPECT_EQ(ctx.cache_stats().misses, 1u);
  EXPECT_EQ(RunOnce(ctx, *mod, 9), 9.0f);

  // Truncation is also survived.
  fs::resize_file(artifact, 10);
  vcuda::Context ctx3(vgpu::TeslaC1060());
  ctx3.set_cache_dir(tmp.str());
  EXPECT_NO_THROW(ctx3.LoadModule(kKernel, OptsFor(9)));
  EXPECT_EQ(ctx3.cache_stats().misses, 1u);
}

TEST(DiskCache, VersionBumpFallsBackToRecompile) {
  TempCacheDir tmp;
  {
    vcuda::Context ctx(vgpu::TeslaC1060());
    ctx.set_cache_dir(tmp.str());
    ctx.LoadModule(kKernel, OptsFor(9));
  }
  fs::path artifact = OnlyArtifact(tmp.dir);
  {
    // Forge a future format version in the header.
    std::fstream f(artifact, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(kcc::kFormatVersionOffset));
    f.put(static_cast<char>(kcc::kModuleFormatVersion + 1));
  }
  vcuda::Context ctx(vgpu::TeslaC1060());
  ctx.set_cache_dir(tmp.str());
  auto mod = ctx.LoadModule(kKernel, OptsFor(9));
  EXPECT_EQ(ctx.cache_stats().disk_hits, 0u);
  EXPECT_EQ(ctx.cache_stats().misses, 1u);
  EXPECT_EQ(RunOnce(ctx, *mod, 9), 9.0f);
}

TEST(Concurrency, ParallelLoadsAreSafeAndAccounted) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  constexpr int kThreads = 8;
  constexpr int kIters = 16;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ctx, t] {
      for (int i = 0; i < kIters; ++i) {
        auto mod = ctx.LoadModule(kKernel, OptsFor(1 + (t + i) % 4));
        ASSERT_TRUE(mod->HasKernel("f"));
      }
    });
  }
  for (auto& w : workers) w.join();
  auto stats = ctx.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kIters);
  // Each of the 4 parameter sets compiled at least once; racing threads may
  // duplicate a compile, but the cache keeps one module per key.
  EXPECT_GE(stats.misses, 4u);
  EXPECT_EQ(stats.collisions_detected, 0u);
}

// Tiered promotion must distinguish parameter sets whose defines are equal
// but whose other compile options differ (the old defines-only key shared
// one heat counter between them).
TEST(TieredLoader, OptionsDifferingSetsHeatSeparately) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  vcuda::TieredLoader tiered(&ctx, kKernel, /*hot_threshold=*/2);

  kcc::CompileOptions hot = OptsFor(6);
  kcc::CompileOptions cold = OptsFor(6);
  cold.enable_unroll = false;  // same defines, different binary

  tiered.Get(hot);
  tiered.Get(hot);  // promoted
  EXPECT_TRUE(tiered.IsSpecialized(hot));
  EXPECT_FALSE(tiered.IsSpecialized(cold));  // aliased before the fix
  EXPECT_EQ(tiered.stats().specializations, 1u);

  // The options-differing set starts cold and promotes on its own schedule —
  // to its own binary, with the loop left rolled.
  auto first = tiered.Get(cold);
  EXPECT_FALSE(tiered.IsSpecialized(cold));
  EXPECT_EQ(first->GetKernel("f").stats.unrolled_loops, 0);  // served RE
  auto promoted = tiered.Get(cold);
  EXPECT_TRUE(tiered.IsSpecialized(cold));
  EXPECT_EQ(promoted->GetKernel("f").stats.unrolled_loops, 0);
  EXPECT_EQ(tiered.Get(hot)->GetKernel("f").stats.unrolled_loops, 1);
  EXPECT_EQ(tiered.stats().specializations, 2u);
}

}  // namespace
}  // namespace kspec
