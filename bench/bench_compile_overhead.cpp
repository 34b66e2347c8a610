// Section 4.3 trade-offs: run-time compilation overhead and the binary
// cache. Uses google-benchmark for the host-side timing (these are real wall
// times, not simulated), covering the full load-time ladder — cold compile,
// warm in-memory cache hit, and persistent disk-cache hit (a fresh Context
// deserializing a previously stored artifact instead of recompiling) — plus
// the interpreter's launch overhead and the cold time-to-native of one
// specialized kernel.
//
// With --json, every cold-compile arm that ran (after --benchmark_filter) is
// recorded once, as the minimum wall time over the session's --reps timed
// compiles.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>

#include "bench_common.hpp"

#include "apps/backproj/kernels.hpp"
#include "apps/matching/kernels.hpp"
#include "apps/piv/kernels.hpp"
#include "kcc/compiler.hpp"
#include "native/build.hpp"
#include "native/engine.hpp"
#include "support/status.hpp"
#include "vcuda/device_buffer.hpp"
#include "vcuda/vcuda.hpp"

namespace {

using namespace kspec;

std::string PivWarpSpec() {
  std::string body = apps::piv::kPivWarpSpecSource;
  std::string tag = "__COMMON__";
  body.replace(body.find(tag), tag.size(), apps::piv::kPivCommonHeader);
  return body;
}

// The cold-compile arms that ran, by benchmark name, for the JSON records.
std::map<std::string, std::function<void()>>& ColdArms() {
  static std::map<std::string, std::function<void()>> arms;
  return arms;
}

void RunColdCompile(benchmark::State& state, const char* name, const std::string& source,
                    const kcc::CompileOptions& opts) {
  auto compile = [source, opts] {
    auto mod = kcc::CompileModule(source, opts);
    benchmark::DoNotOptimize(mod);
  };
  ColdArms()[name] = compile;
  for (auto _ : state) compile();
}

void BM_CompileCold_Matching(benchmark::State& state) {
  kcc::CompileOptions opts;
  opts.defines = {{"CT_TILE", "1"},   {"K_TILE_H", "8"},     {"K_TILE_W", "8"},
                  {"CT_SHIFT", "1"},  {"K_SHIFT_W", "12"},   {"K_N_SHIFTS", "144"},
                  {"CT_THREADS", "1"}, {"K_THREADS", "128"}};
  RunColdCompile(state, "BM_CompileCold_Matching", apps::matching::kNumeratorSource, opts);
}
BENCHMARK(BM_CompileCold_Matching)->Unit(benchmark::kMillisecond);

void BM_CompileCold_PivWarpSpec(benchmark::State& state) {
  kcc::CompileOptions opts;
  opts.defines = {{"CT_MASK", "1"},    {"K_MASK_W", "16"},   {"K_MASK_AREA", "256"},
                  {"CT_SEARCH", "1"},  {"K_SEARCH_W", "7"},  {"K_N_OFFSETS", "49"},
                  {"CT_THREADS", "1"}, {"K_THREADS", "64"}};
  RunColdCompile(state, "BM_CompileCold_PivWarpSpec", PivWarpSpec(), opts);
}
BENCHMARK(BM_CompileCold_PivWarpSpec)->Unit(benchmark::kMillisecond);

void BM_CompileCold_Backproj(benchmark::State& state) {
  kcc::CompileOptions opts;
  opts.defines = {{"CT_ANGLES", "1"}, {"K_N_ANGLES", "16"}, {"CT_ZPT", "1"},
                  {"K_ZPT", "4"},     {"CT_VOL", "1"},      {"K_VOL_Z", "16"},
                  {"CT_THREADS", "1"}, {"K_THREADS", "64"}};
  RunColdCompile(state, "BM_CompileCold_Backproj", apps::backproj::kBackprojSource, opts);
}
BENCHMARK(BM_CompileCold_Backproj)->Unit(benchmark::kMillisecond);

// The two largest SK modules at the bench_native problem sizes: matching's
// window-statistics stage (7,088 MiniPTX instructions) and backprojection
// (9,754), the unrolled straight-line code where the optimizer's cost shows.
void BM_CompileCold_MatchingWindowStatsBench(benchmark::State& state) {
  kcc::CompileOptions opts;
  opts.defines = {{"CT_SHIFT", "1"},    {"CT_TEMPLATE", "1"}, {"CT_THREADS", "1"},
                  {"K_N_SHIFTS", "1024"}, {"K_SHIFT_W", "32"},  {"K_THREADS", "128"},
                  {"K_TPL_H", "32"},    {"K_TPL_W", "24"}};
  RunColdCompile(state, "BM_CompileCold_MatchingWindowStatsBench",
                 apps::matching::kWindowStatsSource, opts);
}
BENCHMARK(BM_CompileCold_MatchingWindowStatsBench)->Unit(benchmark::kMillisecond);

void BM_CompileCold_BackprojBench(benchmark::State& state) {
  kcc::CompileOptions opts;
  opts.defines = {{"CT_ANGLES", "1"}, {"CT_THREADS", "1"}, {"CT_VOL", "1"},
                  {"CT_ZPT", "1"},    {"K_N_ANGLES", "12"}, {"K_THREADS", "64"},
                  {"K_VOL_Z", "12"},  {"K_ZPT", "1"}};
  RunColdCompile(state, "BM_CompileCold_BackprojBench", apps::backproj::kBackprojSource, opts);
}
BENCHMARK(BM_CompileCold_BackprojBench)->Unit(benchmark::kMillisecond);

// Cold time-to-native: what a first-seen specialization waits for on the
// native tier. kcc compiles mathTest (Appendix B, the loop count
// specialized), the engine emits its TU, the host compiler builds it, the SO
// is dlopened and the launch runs native; a fresh Context and NativeEngine
// over an empty cache dir every time, so nothing is served from a cache.
// The host compiler dominates (native/build.hpp).
void BM_CompileCold_MathTestToNative(benchmark::State& state) {
  if (!native::ToolchainAvailable()) {
    state.SkipWithError("no host C++ toolchain; native tier disabled");
    return;
  }
  auto to_native = [] {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "kspec_bench_time_to_native";
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      native::NativeEngine::Options nopts;
      nopts.cache_dir = dir.string();
      nopts.shape_mode = vgpu::ShapeMode::kOff;
      native::NativeEngine engine(nopts);
      vcuda::Context ctx(vgpu::TeslaC1060(), 1 << 20);
      ctx.set_native_service(&engine);
      kcc::CompileOptions opts;
      opts.defines = {{"CT_LOOP_COUNT", "1"}, {"LOOP_COUNT", "5"}};
      auto mod = ctx.LoadModule(bench::kMathTest, opts);
      const unsigned threads = 128, blocks = 4;
      vcuda::DeviceBuffer in(ctx, (threads * blocks + 5) * sizeof(float));
      vcuda::DeviceBuffer out(ctx, threads * blocks * sizeof(float));
      vcuda::ArgPack args;
      args.Ptr(in.get()).Ptr(out.get()).Int(1).Int(1).Int(5);
      vcuda::LaunchExecution exec;
      exec.request = vgpu::ExecutionTier::kNative;
      ctx.Launch(*mod, "mathTest", vgpu::Dim3(blocks), vgpu::Dim3(threads), args, 0, &exec);
      if (exec.served != vgpu::ExecutionTier::kNative) {
        throw Error("time-to-native: the launch was not served native");
      }
    }
    fs::remove_all(dir);
  };
  ColdArms()["BM_CompileCold_MathTestToNative"] = to_native;
  for (auto _ : state) to_native();
}
BENCHMARK(BM_CompileCold_MathTestToNative)->Unit(benchmark::kMillisecond);

// Warm cache hit: the Section 4.3 claim that re-encountering a parameter set
// loads "with speed similar to loading a dynamically linked shared object".
void BM_CacheHit_Warm(benchmark::State& state) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  kcc::CompileOptions opts;
  opts.defines = {{"CT_ANGLES", "1"}, {"K_N_ANGLES", "16"}};
  ctx.LoadModule(apps::backproj::kBackprojSource, opts);  // warm the cache
  for (auto _ : state) {
    auto mod = ctx.LoadModule(apps::backproj::kBackprojSource, opts);
    benchmark::DoNotOptimize(mod);
  }
}
BENCHMARK(BM_CacheHit_Warm)->Unit(benchmark::kMicrosecond);

// Disk cache hit: a brand-new Context (standing in for a second process)
// deserializes the stored artifact instead of invoking the compiler. Sits
// between the cold compile and the warm hit on the load-time ladder.
void BM_CacheHit_Disk(benchmark::State& state) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "kspec_bench_disk_cache";
  fs::create_directories(dir);
  kcc::CompileOptions opts;
  opts.defines = {{"CT_ANGLES", "1"}, {"K_N_ANGLES", "16"}};
  {
    vcuda::Context warmer(vgpu::TeslaC1060(), 1 << 20);
    warmer.set_cache_dir(dir.string());
    warmer.LoadModule(apps::backproj::kBackprojSource, opts);  // store the artifact
  }
  for (auto _ : state) {
    state.PauseTiming();
    vcuda::Context ctx(vgpu::TeslaC1060(), 1 << 20);
    ctx.set_cache_dir(dir.string());
    state.ResumeTiming();
    auto mod = ctx.LoadModule(apps::backproj::kBackprojSource, opts);
    benchmark::DoNotOptimize(mod);
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_CacheHit_Disk)->Unit(benchmark::kMicrosecond);

// Interpreter throughput: lane-operations per second on a dense kernel.
void BM_InterpreterThroughput(benchmark::State& state) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  const char* src = R"(
__kernel void saxpy(float* x, float* y, float a, int n) {
  int i = blockIdx.x * 64 + threadIdx.x;
  if (i < n) {
    y[i] = a * x[i] + y[i];
  }
}
)";
  auto mod = ctx.LoadModule(src, {});
  const int n = 64 * 64;
  vcuda::DeviceBuffer dx(ctx, n * 4), dy(ctx, n * 4);
  for (auto _ : state) {
    vcuda::ArgPack args;
    args.Ptr(dx.get()).Ptr(dy.get()).Float(2.0f).Int(n);
    auto stats = ctx.Launch(*mod, "saxpy", vgpu::Dim3(64), vgpu::Dim3(64), args);
    benchmark::DoNotOptimize(stats);
    state.counters["lane_ops"] = benchmark::Counter(
        static_cast<double>(stats.lane_instrs), benchmark::Counter::kIsIterationInvariantRate);
  }
}
BENCHMARK(BM_InterpreterThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the shared Session flags (--json/--reps/
// --warmup) coexist with google-benchmark's own argument parsing: Session
// consumes its flags, the remainder goes to benchmark::Initialize.
int main(int argc, char** argv) {
  kspec::bench::Session session("bench_compile_overhead", argc, argv);
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if ((a == "--json" || a == "--reps" || a == "--warmup") && i + 1 < argc) {
      ++i;
      continue;
    }
    rest.push_back(argv[i]);
  }
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  for (const auto& [name, compile] : ColdArms()) session.Record(name, session.TimeMs(compile));
  return 0;
}
