// Predictive-tuner tier tests: predictive-vs-grid agreement, regret bounds,
// static-prune correctness against real app evaluations, the persistent
// TuningCache (round trip, corruption fallback, cross-writer merge, and the
// second-process zero-evaluation path), plus the two runtime-layer
// regressions this PR fixes (stage compile-time double-charging and the
// tiered loader's RE compile under its mutex).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>

#include "apps/matching/tune.hpp"
#include "apps/piv/tune.hpp"
#include "launch/stage_runner.hpp"
#include "support/serialize.hpp"
#include "support/temp_dir.hpp"
#include "tune/prepass.hpp"
#include "tune/tuner.hpp"
#include "vcuda/tiered.hpp"
#include "vcuda/vcuda.hpp"
#include "vgpu/device.hpp"

namespace kspec {
namespace {

namespace fs = std::filesystem;
using tune::Config;
using tune::ParamRange;
using tune::TuneResult;

// A scratch directory, fresh per test, removed on destruction.
struct TempDir : ScopedTempDir {
  TempDir() : ScopedTempDir("kspec_tune_test_") { EXPECT_TRUE(valid()); }
};

// log(cost) is smooth, separable, and quadratic in log2 of each parameter —
// exactly the family PredictiveSearch fits — so the model (and therefore the
// ranking) should be exact.
double LogBowl(const Config& c) {
  const double a = std::log2(static_cast<double>(c.at("a")));
  const double b = std::log2(static_cast<double>(c.at("b")));
  const double d = std::log2(static_cast<double>(c.at("d")));
  return std::exp(std::pow(a - 3.0, 2.0) + 0.5 * std::pow(b - 2.0, 2.0) +
                  0.25 * std::pow(d - 4.0, 2.0) + 2.0);
}

std::vector<ParamRange> Pow2Space() {
  std::vector<std::int64_t> v = {1, 2, 4, 8, 16, 32, 64, 128};
  return {{"a", v}, {"b", v}, {"d", v}};
}

TEST(Predictive, ExhaustiveOnSmallSpace) {
  // 12 points fit inside the default budget: the search must degenerate to
  // an exact exhaustive measurement and agree with the grid bit-for-bit.
  std::vector<ParamRange> space = {{"a", {1, 2, 4, 8}}, {"b", {1, 4, 16}}};
  auto eval = [](const Config& c) {
    return LogBowl({{"a", c.at("a")}, {"b", c.at("b")}, {"d", 16}});
  };
  TuneResult grid = tune::GridSearch(space, eval);
  TuneResult pred = tune::PredictiveSearch(space, eval);
  ASSERT_TRUE(grid.ok());
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred.best, grid.best);
  EXPECT_DOUBLE_EQ(pred.best_millis, grid.best_millis);
  EXPECT_EQ(pred.evaluated, 12u);
  EXPECT_DOUBLE_EQ(pred.fit_r2, 1.0);
}

TEST(Predictive, RegretBoundAtTenthTheEvaluations) {
  TuneResult grid = tune::GridSearch(Pow2Space(), LogBowl);
  TuneResult pred = tune::PredictiveSearch(Pow2Space(), LogBowl);
  ASSERT_TRUE(grid.ok());
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(grid.evaluated, 512u);
  EXPECT_LE(pred.evaluated, grid.evaluated / 10);
  EXPECT_LE(pred.best_millis, grid.best_millis * 1.05);
  EXPECT_FALSE(pred.used_fallback);
  EXPECT_GE(pred.fit_r2, 0.5);
}

TEST(Predictive, HonorsEvaluationBudget) {
  tune::PredictiveOptions opts;
  opts.max_evaluations = 7;
  TuneResult pred = tune::PredictiveSearch(Pow2Space(), LogBowl, opts);
  ASSERT_TRUE(pred.ok());
  EXPECT_LE(pred.evaluated, 7u);
}

TEST(Predictive, FallsBackToDescentOnPoorFit) {
  // A surface with no log-polynomial structure: a deterministic hash. The
  // fit's R^2 collapses and the search must descend instead (and still
  // return a real measured best).
  auto eval = [](const Config& c) {
    std::uint64_t h = 1469598103934665603ull;
    for (const auto& [k, v] : c) h = (h ^ static_cast<std::uint64_t>(v)) * 1099511628211ull;
    return 1.0 + static_cast<double>(h % 1024);
  };
  TuneResult pred = tune::PredictiveSearch(Pow2Space(), eval);
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(pred.used_fallback);
  EXPECT_LT(pred.fit_r2, 0.5);
  EXPECT_GT(pred.evaluated, 0u);
}

TEST(Predictive, AllPrunedYieldsNotOk) {
  tune::PredictiveOptions opts;
  opts.prune = [](const Config&) { return true; };
  TuneResult pred = tune::PredictiveSearch(Pow2Space(), LogBowl, opts);
  EXPECT_FALSE(pred.ok());
  EXPECT_TRUE(pred.best.empty());
  EXPECT_EQ(pred.evaluated, 0u);
  EXPECT_EQ(pred.pruned_static, 512u);
  EXPECT_TRUE(std::isinf(pred.best_millis));
}

TEST(Predictive, AllInfeasibleEvaluationsYieldNotOk) {
  auto eval = [](const Config&) -> double { throw Error("infeasible"); };
  for (TuneResult r : {tune::GridSearch(Pow2Space(), eval),
                       tune::CoordinateDescent(Pow2Space(), eval),
                       tune::PredictiveSearch(Pow2Space(), eval)}) {
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.best.empty());
    EXPECT_EQ(r.evaluated, 0u);
  }
}

TEST(OccupancyPrune, ReplaysLaunchAdmission) {
  const vgpu::DeviceProfile dev = vgpu::TeslaC1060();
  tune::ResourceFn resources = [](const Config& c) -> std::optional<tune::ResourceEstimate> {
    if (c.at("threads") < 0) return std::nullopt;  // structural stand-in
    return tune::ResourceEstimate{static_cast<unsigned>(c.at("threads")),
                                  static_cast<unsigned>(c.at("regs")),
                                  static_cast<unsigned>(c.at("smem"))};
  };
  tune::PruneFn prune = tune::OccupancyPrune(dev, resources);

  auto cfg = [](std::int64_t t, std::int64_t r, std::int64_t s) {
    return Config{{"threads", t}, {"regs", r}, {"smem", s}};
  };
  EXPECT_TRUE(prune(cfg(-1, 8, 0)));     // structurally infeasible
  EXPECT_TRUE(prune(cfg(1024, 8, 0)));   // block larger than the device allows
  EXPECT_TRUE(prune(cfg(64, 8, 20000))); // shared request above the SM's 16 KB
  // C1060, 256-thread block: zero occupancy exactly from 65 regs/thread.
  EXPECT_TRUE(prune(cfg(256, 65, 0)));
  EXPECT_FALSE(prune(cfg(256, 64, 0)));
  // Above the per-thread maximum the interpreter clamps (spills) and
  // launches; the pre-pass must agree, not reject.
  EXPECT_FALSE(prune(cfg(64, 200, 0)));
}

// Every configuration the PIV pre-pass prunes must REALLY be infeasible:
// measuring it throws. (The deterministic simulator makes this exact.)
TEST(StaticPrune, PivPrunedPointsAreTrulyInfeasible) {
  apps::piv::Problem p = apps::piv::Generate("prune", 56, 16, 2, 8, 321);
  vcuda::Context ctx(vgpu::TeslaC1060());
  tune::PruneFn prune = apps::piv::RegBlockPrune(ctx, p);
  tune::EvalFn eval = apps::piv::RegBlockEval(ctx, p);

  const std::vector<ParamRange> space = apps::piv::RegBlockSpace();
  std::size_t pruned = 0, kept = 0;
  for (std::int64_t t : space[0].values) {
    for (std::int64_t rb = 1; rb <= 48; ++rb) {
      Config c{{"threads", t}, {"rb", rb}};
      if (prune(c)) {
        ++pruned;
        EXPECT_THROW(eval(c), Error) << "pruned but launchable: threads=" << t << " rb=" << rb;
      } else {
        ++kept;
      }
    }
  }
  EXPECT_GT(pruned, 0u);  // both coverage and register pruning fire on C1060
  EXPECT_GT(kept, 0u);
}

TEST(StaticPrune, MatcherPrunedPointsAreTrulyInfeasible) {
  // Template smaller than the biggest tiles: exercises the degenerate-tiling
  // screen on top of the thread-axis screens.
  apps::matching::Problem p = apps::matching::Generate("tiny", 8, 8, 4, 4, 9);
  vcuda::Context ctx(vgpu::TeslaC1060());
  tune::PruneFn prune = apps::matching::MatcherPrune(ctx, p);
  tune::EvalFn eval = apps::matching::MatcherEval(ctx, p);

  const std::vector<ParamRange> space = apps::matching::MatcherSpace();
  std::size_t pruned = 0;
  for (std::int64_t threads : space[0].values) {
    for (std::int64_t th : space[1].values) {
      for (std::int64_t tw : space[2].values) {
        Config c{{"threads", threads}, {"tile_h", th}, {"tile_w", tw}};
        if (prune(c)) {
          ++pruned;
          EXPECT_THROW(eval(c), Error)
              << "pruned but launchable: threads=" << threads << " tile=" << th << "x" << tw;
        }
      }
    }
  }
  EXPECT_GT(pruned, 0u);
}

TEST(TuningCache, DiskRoundTrip) {
  TempDir tmp;
  const std::string path = tmp.File("tune.bin");
  {
    tune::TuningCache cache(path);
    cache.Store(tune::TuningCache::MakeKey("piv/regblock", "VC1060", "mask16"),
                {{"threads", 128}, {"rb", 2}});
    cache.Store(tune::TuningCache::MakeKey("matching/pipeline", "VC2070", "tpl32x24"),
                {{"threads", 256}, {"tile_h", 8}, {"tile_w", 12}});
  }
  tune::TuningCache reloaded(path);
  EXPECT_EQ(reloaded.size(), 2u);
  auto hit = reloaded.Lookup(tune::TuningCache::MakeKey("piv/regblock", "VC1060", "mask16"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->at("threads"), 128);
  EXPECT_EQ(hit->at("rb"), 2);
}

// The file is the shared artifact envelope around the entry map. These are
// the exact bytes of the format as first shipped: moving the header codec
// must not change one.
TEST(TuningCache, FileBytesMatchGolden) {
  TempDir tmp;
  const std::string path = tmp.File("tune.bin");
  tune::TuningCache(path).Store("k", {{"threads", 64}});
  const std::vector<std::uint8_t> golden = {
      'K', 'S', 'P', 'C', 'T', 'U', 'N', '1',          // magic
      0x01, 0x00, 0x00, 0x00,                          // format version
      0x45, 0x9e, 0x5f, 0xc8, 0x67, 0xe4, 0x41, 0x73,  // FNV-1a of the payload
      0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload bytes
      0x01, 0x00, 0x00, 0x00,                          // entries
      0x01, 0x00, 0x00, 0x00, 'k',                     //   key
      0x01, 0x00, 0x00, 0x00,                          //   params
      0x07, 0x00, 0x00, 0x00, 't', 'h', 'r', 'e', 'a', 'd', 's',
      0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};  //   value 64
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  EXPECT_EQ(bytes, golden);
  EXPECT_EQ(tune::TuningCache(path).Lookup("k"), (tune::Config{{"threads", 64}}));
}

TEST(TuningCache, CorruptFileFallsBackToEmpty) {
  TempDir tmp;
  const std::string path = tmp.File("tune.bin");
  {
    tune::TuningCache cache(path);
    cache.Store("k", {{"threads", 64}});
  }
  // Flip a payload byte: the checksum must reject the artifact.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\x5a');
  }
  tune::TuningCache corrupt(path);
  EXPECT_EQ(corrupt.size(), 0u);
  EXPECT_FALSE(corrupt.Lookup("k").has_value());
  // Storing over the corpse works and persists.
  corrupt.Store("k2", {{"threads", 32}});
  tune::TuningCache again(path);
  EXPECT_TRUE(again.Lookup("k2").has_value());

  // Truncation and garbage are equally non-fatal.
  { std::ofstream(path, std::ios::binary) << "KSPC"; }
  EXPECT_EQ(tune::TuningCache(path).size(), 0u);
  { std::ofstream(path, std::ios::binary) << "not a cache at all"; }
  EXPECT_EQ(tune::TuningCache(path).size(), 0u);
}

TEST(TuningCache, StoreMergesOtherWritersEntries) {
  TempDir tmp;
  const std::string path = tmp.File("tune.bin");
  tune::TuningCache a(path);
  tune::TuningCache b(path);  // opened before a stores anything
  a.Store("alpha", {{"x", 1}});
  b.Store("beta", {{"x", 2}});  // must not drop a's on-disk entry
  tune::TuningCache c(path);
  EXPECT_TRUE(c.Lookup("alpha").has_value());
  EXPECT_TRUE(c.Lookup("beta").has_value());
}

// Regression: one TuningCache may be shared by several contexts, but Store
// and Lookup used to touch the entries map with no synchronization at all — a
// data race TSan flags the moment two threads tune concurrently.
// This test is in the TSan CI job; it also checks nothing is lost or torn.
TEST(TuningCache, ConcurrentStoreLookupFlushIsSafe) {
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  constexpr int kKeys = 16;
  TempDir tmp;
  tune::TuningCache cache(tmp.File("tune.bin"));

  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kIters; ++i) {
        const std::string key = "k" + std::to_string((t * 13 + i) % kKeys);
        switch (i % 4) {
          case 0:
            cache.Store(key, {{"threads", 32 + (i % 4) * 32}});
            break;
          case 1:
            if (auto hit = cache.Lookup(key)) {
              EXPECT_GT(hit->at("threads"), 0);  // never torn
            }
            break;
          case 2:
            (void)cache.size();
            break;
          default:
            if (i % 32 == 3) cache.Flush();  // read-merge-write under fire
            break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  // Every key was stored at least once; all of them survive the storm, both
  // in memory and (after one more flush) on disk.
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(cache.Lookup("k" + std::to_string(k)).has_value()) << "key " << k;
  }
  cache.Flush();
  tune::TuningCache reread(tmp.File("tune.bin"));
  EXPECT_EQ(reread.size(), static_cast<std::size_t>(kKeys));
}

// LookupOrCompute is the single-search guarantee: N threads asking for the
// same (kernel, device, signature) key concurrently run the search once and
// share the result.
TEST(TuningCache, LookupOrComputeRunsComputeOncePerKey) {
  constexpr int kThreads = 8;
  tune::TuningCache cache;  // in-memory is enough: the contract is per-process

  std::atomic<int> computes{0};
  std::atomic<int> ready{0};
  std::vector<tune::Config> results(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[t] = cache.LookupOrCompute("piv|VC1060|n=8", [&] {
        computes.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return tune::Config{{"threads", 64}, {"rb", 4}};
      });
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(computes.load(), 1) << "the search ran more than once for one key";
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t].at("threads"), 64) << "thread " << t;
    EXPECT_EQ(results[t].at("rb"), 4) << "thread " << t;
  }
  EXPECT_TRUE(cache.Lookup("piv|VC1060|n=8").has_value());
  EXPECT_EQ(cache.size(), 1u);
}

// Keyed through MakeKey, one cache searches once per (kernel, device kind,
// signature): a second context of the same device kind hits, another device
// kind or another signature searches anew.
TEST(TuningCache, SharedTuningCacheSearchesOncePerDeviceKind) {
  tune::TuningCache cache;
  int searches = 0;
  auto tuned = [&](const vgpu::DeviceProfile& dev, const std::string& signature) {
    return cache.LookupOrCompute(tune::TuningCache::MakeKey("f", dev.name, signature), [&] {
      ++searches;
      return tune::Config{{"threads", 64}};
    });
  };

  tune::Config a = tuned(vgpu::TeslaC1060(), "n=8");  // search
  tune::Config b = tuned(vgpu::TeslaC1060(), "n=8");  // same device kind: hit
  EXPECT_EQ(searches, 1);
  EXPECT_EQ(a.at("threads"), b.at("threads"));

  tuned(vgpu::TeslaC2070(), "n=8");  // another device kind: its own key
  EXPECT_EQ(searches, 2);
  tuned(vgpu::TeslaC1060(), "n=16");  // new signature: new search
  EXPECT_EQ(searches, 3);
}

// A failed compute must propagate to every waiter and leave nothing cached —
// the next call retries with a fresh flight.
TEST(TuningCache, LookupOrComputeFailureIsNotCached) {
  tune::TuningCache cache;
  std::atomic<int> computes{0};
  EXPECT_THROW(cache.LookupOrCompute("bad",
                                     [&]() -> tune::Config {
                                       computes.fetch_add(1);
                                       throw Error("search blew up");
                                     }),
               Error);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("bad").has_value());

  tune::Config ok = cache.LookupOrCompute("bad", [&] {
    computes.fetch_add(1);
    return tune::Config{{"threads", 128}};
  });
  EXPECT_EQ(computes.load(), 2);  // the failure was not latched forever
  EXPECT_EQ(ok.at("threads"), 128);
  EXPECT_TRUE(cache.Lookup("bad").has_value());
}

// The acceptance path: a second process (modeled by a fresh TuningCache
// instance over the same file) reuses the persisted entry and performs ZERO
// evaluations.
TEST(TuningCache, SecondProcessSkipsSearchEntirely) {
  TempDir tmp;
  const std::string path = tmp.File("tune.bin");
  apps::piv::Problem p = apps::piv::Generate("cached", 56, 16, 2, 8, 321);
  vcuda::Context ctx(vgpu::TeslaC1060());

  // Coverage-only prune keeps the first tune quick (no reference compiles).
  tune::PredictiveOptions opts;
  opts.prune = [&p](const Config& c) {
    return c.at("rb") * c.at("threads") < p.mask_area();
  };

  tune::TuningCache writer(path);
  tune::TuneResult first;
  apps::piv::PivConfig tuned = apps::piv::TunedRegBlock(ctx, p, &writer, &first, opts);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.evaluated, 0u);

  tune::TuningCache reader(path);  // fresh load from disk
  tune::TuneResult second;
  apps::piv::PivConfig cached = apps::piv::TunedRegBlock(ctx, p, &reader, &second, opts);
  EXPECT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.evaluated, 0u);
  EXPECT_EQ(second.pruned_static, 0u);
  EXPECT_EQ(cached.threads, tuned.threads);
  EXPECT_EQ(cached.rb, tuned.rb);
}

TEST(TunedApps, ThrowOnAllInfeasibleSpace) {
  apps::piv::Problem p = apps::piv::Generate("none", 56, 16, 2, 8, 321);
  vcuda::Context ctx(vgpu::TeslaC1060());
  tune::PredictiveOptions opts;
  opts.prune = [](const Config&) { return true; };
  EXPECT_THROW(apps::piv::TunedRegBlock(ctx, p, nullptr, nullptr, opts), Error);

  apps::matching::Problem mp = apps::matching::Generate("none", 16, 16, 4, 4, 9);
  EXPECT_THROW(apps::matching::TunedMatcher(ctx, mp, nullptr, nullptr, opts), Error);
}

// ---------------------------------------------------------------------------
// Regression: StageRunner must charge a module's compile time once per
// (stage, binary) per breakdown, not once per launch.
// ---------------------------------------------------------------------------

constexpr const char* kTinyKernel = R"(
#ifndef N
#define N n
#endif
__kernel void f(float* out, int n) {
  float acc = 0.0f;
  for (int i = 0; i < N; i++) { acc += 1.0f; }
  out[threadIdx.x] = acc;
}
)";

TEST(StageRunner, CompileChargedOncePerStagePerBreakdown) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  launch::StageRunner runner(ctx);
  auto d_out = runner.Alloc<float>(32);
  vcuda::ArgPack args;
  args.Ptr(d_out.get()).Int(8);
  launch::SpecBuilder spec(/*specialize=*/true);
  spec.Value("N", 8);

  runner.Run("stage", kTinyKernel, spec, "f", vgpu::Dim3(1), vgpu::Dim3(32), args);
  const double once = runner.breakdown().compile_millis;
  ASSERT_GT(once, 0.0);

  // Launch the same stage/binary repeatedly: the compile charge stays flat.
  for (int i = 0; i < 5; ++i) {
    runner.Run("stage", kTinyKernel, spec, "f", vgpu::Dim3(1), vgpu::Dim3(32), args);
  }
  EXPECT_DOUBLE_EQ(runner.breakdown().compile_millis, once);
  EXPECT_DOUBLE_EQ(runner.breakdown().Stage("stage")->compile_millis, once);

  // A fresh breakdown charges the (cached) module's original cost afresh —
  // once, regardless of launch count within the new breakdown.
  launch::LaunchBreakdown taken = runner.TakeBreakdown();
  EXPECT_DOUBLE_EQ(taken.compile_millis, once);
  runner.Run("stage", kTinyKernel, spec, "f", vgpu::Dim3(1), vgpu::Dim3(32), args);
  runner.Run("stage", kTinyKernel, spec, "f", vgpu::Dim3(1), vgpu::Dim3(32), args);
  EXPECT_DOUBLE_EQ(runner.breakdown().compile_millis, once);
}

// ---------------------------------------------------------------------------
// Regression: a cold RE build must not serialize unrelated Gets behind the
// loader mutex.
// ---------------------------------------------------------------------------

TEST(TieredLoader, ColdReBuildDoesNotSerializeUnrelatedGet) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  vcuda::TieredLoader loader(&ctx, kTinyKernel, /*hot_threshold=*/1);

  // Promote parameter set X immediately (threshold 1, blocking promotion):
  // the RE build is never touched, so it stays cold.
  kcc::CompileOptions x;
  x.defines["N"] = "8";
  ASSERT_NE(loader.Get(x), nullptr);
  ASSERT_TRUE(loader.IsSpecialized(x));

  // Now stall the RE compile the moment someone triggers it.
  std::promise<void> entered_promise;
  auto entered = entered_promise.get_future();
  std::atomic<bool> release{false};
  loader.set_test_compile_hook([&] {
    entered_promise.set_value();
    while (!release.load()) std::this_thread::yield();
  });
  loader.set_hot_threshold(10);

  kcc::CompileOptions y;
  y.defines["N"] = "16";
  std::thread cold([&] { loader.Get(y); });  // cold set: compiles RE, blocks in hook
  ASSERT_EQ(entered.wait_for(std::chrono::seconds(10)), std::future_status::ready);

  // While the RE build is (artificially) stuck mid-compile, a Get for the
  // already-specialized set must complete — before the fix it deadlocked
  // behind mu_ until the compile finished.
  auto specialized = std::async(std::launch::async, [&] { return loader.Get(x); });
  EXPECT_EQ(specialized.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "Get(specialized) serialized behind the cold RE compile";
  release.store(true);
  cold.join();
  EXPECT_NE(specialized.get(), nullptr);

  auto stats = loader.stats();
  EXPECT_GE(stats.sk_served, 2u);
  EXPECT_GE(stats.re_served, 1u);
}

}  // namespace
}  // namespace kspec
