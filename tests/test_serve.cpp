// The asynchronous specialization service: single-flight coalescing, bounded
// queue backpressure, per-request deadlines, failure propagation, the
// non-blocking tiered promotion built on top of it, GPU-PF tiered
// re-specialization, and a multi-threaded stress run asserting
// exactly-one-compile-per-key and the ServeStats invariant
//   submitted == coalesced + completed + rejected   (after Drain).
//
// Determinism notes: tests that need a worker occupied use a "blocker" flight
// whose compile (a fully unrolled many-iteration loop) takes tens to hundreds
// of milliseconds — orders of magnitude longer than the microseconds of
// submission work raced against it — and poll executor gauges rather than
// sleep. No test asserts on a sleep-based ordering.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gpupf/pipeline.hpp"
#include "serve/compile_executor.hpp"
#include "vcuda/tiered.hpp"
#include "vcuda/vcuda.hpp"
#include "vgpu/device.hpp"

namespace kspec {
namespace {

using serve::CompileExecutor;
using serve::ExecutorOptions;
using serve::ServeStats;

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

// A deliberately slow-to-compile specialization: the loop fully unrolls to
// `n` iterations, so compile wall time grows with n.
kcc::CompileOptions BlockerOpts(int n = 20000) {
  kcc::CompileOptions opts = OptsFor(n);
  opts.max_unroll = n + 1;
  return opts;
}

vcuda::CompileRequest RequestFor(const kcc::CompileOptions& opts) {
  vcuda::CompileRequest req;
  req.source = kKernel;
  req.opts = opts;
  return req;
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

// Submits a heavy flight and returns once a worker has picked it up (the
// queue is drained), so subsequent submissions are guaranteed to queue behind
// it for the duration of its compile.
vcuda::ModuleFuture OccupyWorker(CompileExecutor& ex, vcuda::Context& ctx) {
  vcuda::SubmitResult r = ex.SubmitLoad(ctx, RequestFor(BlockerOpts()));
  EXPECT_EQ(r.status, vcuda::SubmitStatus::kScheduled);
  while (ex.queue_depth() != 0) std::this_thread::yield();
  return r.future;
}

void ExpectInvariant(const ServeStats& s) {
  EXPECT_EQ(s.submitted, s.coalesced + s.completed + s.rejected);
  EXPECT_EQ(s.completed, s.succeeded + s.failed + s.expired);
}

TEST(CompileExecutor, SingleFlightCoalescing) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  CompileExecutor ex({.workers = 1, .max_queue = 64});
  auto blocker = OccupyWorker(ex, ctx);

  // 16 requests for the same cold specialization while the only worker is
  // busy: one flight, 15 joins.
  std::vector<vcuda::ModuleFuture> futures;
  for (int i = 0; i < 16; ++i) {
    vcuda::SubmitResult r = ex.SubmitLoad(ctx, RequestFor(OptsFor(7)));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.status, i == 0 ? vcuda::SubmitStatus::kScheduled
                               : vcuda::SubmitStatus::kCoalesced);
    futures.push_back(r.future);
  }
  ex.Drain();

  std::shared_ptr<vcuda::Module> first = futures[0].get();
  ASSERT_NE(first, nullptr);
  for (auto& f : futures) EXPECT_EQ(f.get(), first);  // everyone shares the flight
  EXPECT_FLOAT_EQ(RunOnce(ctx, *first, 7), 7.0f);

  ServeStats s = ex.stats();
  EXPECT_EQ(s.submitted, 17u);  // blocker + 16
  EXPECT_EQ(s.coalesced, 15u);
  EXPECT_EQ(s.completed, 2u);  // blocker flight + the coalesced flight
  EXPECT_EQ(s.rejected, 0u);
  ExpectInvariant(s);
  EXPECT_EQ(ctx.cache_stats().misses, 2u);  // exactly one compile per key
}

TEST(CompileExecutor, BoundedQueueRejectsAndCallerFallsBack) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  CompileExecutor ex({.workers = 1, .max_queue = 2});
  auto blocker = OccupyWorker(ex, ctx);

  EXPECT_EQ(ex.SubmitLoad(ctx, RequestFor(OptsFor(11))).status,
            vcuda::SubmitStatus::kScheduled);
  EXPECT_EQ(ex.SubmitLoad(ctx, RequestFor(OptsFor(12))).status,
            vcuda::SubmitStatus::kScheduled);
  EXPECT_EQ(ex.queue_depth(), 2u);

  // Queue full: rejected, no future. The caller's fallback (an inline
  // compile) still works.
  vcuda::SubmitResult rejected = ex.SubmitLoad(ctx, RequestFor(OptsFor(13)));
  EXPECT_EQ(rejected.status, vcuda::SubmitStatus::kRejected);
  EXPECT_FALSE(rejected.ok());
  auto inline_mod = ctx.LoadModule(kKernel, OptsFor(13));
  EXPECT_FLOAT_EQ(RunOnce(ctx, *inline_mod, 13), 13.0f);

  ex.Drain();
  ServeStats s = ex.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.queue_depth_high_water, 2u);
  ExpectInvariant(s);
}

TEST(CompileExecutor, ExpiredDeadlineResolvesNull) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  CompileExecutor ex({.workers = 1, .max_queue = 8});

  vcuda::CompileRequest req = RequestFor(OptsFor(21));
  req.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  vcuda::SubmitResult r = ex.SubmitLoad(ctx, req);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.future.get(), nullptr);  // expired before any worker took it

  ex.Drain();
  ServeStats s = ex.stats();
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(ctx.cache_stats().misses, 0u);  // the compile was never paid
  ExpectInvariant(s);
}

TEST(CompileExecutor, CompileFailurePropagatesThroughFuture) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  CompileExecutor ex({.workers = 1, .max_queue = 8});

  vcuda::CompileRequest req;
  req.source = "__kernel void broken(";  // parse error
  vcuda::SubmitResult r = ex.SubmitLoad(ctx, req);
  ASSERT_TRUE(r.ok());
  EXPECT_THROW(r.future.get(), Error);

  ex.Drain();
  ServeStats s = ex.stats();
  EXPECT_EQ(s.failed, 1u);
  ExpectInvariant(s);
}

TEST(CompileExecutor, ShutdownCompletesAcceptedFlightsAndRejectsNew) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  CompileExecutor ex({.workers = 2, .max_queue = 8});
  vcuda::SubmitResult accepted = ex.SubmitLoad(ctx, RequestFor(OptsFor(5)));
  ASSERT_TRUE(accepted.ok());
  ex.Shutdown();
  ASSERT_NE(accepted.future.get(), nullptr);  // accepted work still completes
  EXPECT_EQ(ex.SubmitLoad(ctx, RequestFor(OptsFor(6))).status,
            vcuda::SubmitStatus::kRejected);
}

// Build tasks ride the module flights' machinery: per-key coalescing, the
// failure path, rejection after Shutdown and the stats invariant.
TEST(CompileExecutor, TaskFlights) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  CompileExecutor ex({.workers = 1, .max_queue = 8});
  auto blocker = OccupyWorker(ex, ctx);

  std::atomic<int> runs{0};
  const auto task = [&] { runs.fetch_add(1); };
  vcuda::SubmitResult first = ex.SubmitTask("build", task);
  EXPECT_EQ(first.status, vcuda::SubmitStatus::kScheduled);
  EXPECT_EQ(ex.SubmitTask("build", task).status, vcuda::SubmitStatus::kCoalesced);
  vcuda::SubmitResult bad = ex.SubmitTask("bad", [] { throw Error("build blew up"); });
  EXPECT_EQ(bad.status, vcuda::SubmitStatus::kScheduled);
  ex.Drain();
  EXPECT_EQ(runs.load(), 1) << "the coalesced task must not run again";
  EXPECT_EQ(first.future.get(), nullptr);
  EXPECT_THROW(bad.future.get(), Error);

  // The worker survived the throw.
  EXPECT_EQ(ex.SubmitTask("after", task).status, vcuda::SubmitStatus::kScheduled);
  ex.Drain();
  EXPECT_EQ(runs.load(), 2);

  ex.Shutdown();
  EXPECT_EQ(ex.SubmitTask("late", task).status, vcuda::SubmitStatus::kRejected);
  EXPECT_EQ(runs.load(), 2);

  ServeStats s = ex.stats();
  EXPECT_EQ(s.submitted, 6u);  // blocker, build x2, bad, after, late
  EXPECT_EQ(s.coalesced, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.succeeded, 3u);  // blocker, build, after
  EXPECT_EQ(s.rejected, 1u);
  ExpectInvariant(s);
}

TEST(Context, LoadModuleAsyncWithoutServiceCompilesInline) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  vcuda::SubmitResult r = ctx.LoadModuleAsync(kKernel, OptsFor(4));
  EXPECT_EQ(r.status, vcuda::SubmitStatus::kInline);
  ASSERT_TRUE(r.ok());
  auto mod = r.future.get();  // already ready
  ASSERT_NE(mod, nullptr);
  EXPECT_FLOAT_EQ(RunOnce(ctx, *mod, 4), 4.0f);
  EXPECT_EQ(ctx.cache_stats().misses, 1u);
}

// ---------------------------------------------------------------------------
// Non-blocking tiered promotion
// ---------------------------------------------------------------------------

TEST(TieredAsync, PromotionServesReWhileCompilingThenSwaps) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  CompileExecutor ex({.workers = 1, .max_queue = 16});
  ctx.set_async_service(&ex);
  vcuda::TieredLoader tiered(&ctx, kKernel, /*hot_threshold=*/2);
  auto opts = OptsFor(9);

  // Cold: RE build.
  auto cold = tiered.Get(opts);
  EXPECT_EQ(cold->GetKernel("f").stats.unrolled_loops, 0);

  // Pin the worker so the promotion cannot finish during this test section.
  auto blocker = OccupyWorker(ex, ctx);

  // Hot: schedules the specialized build, keeps serving RE — this Get (the
  // launch that triggers promotion) does NOT stall for the compile.
  auto hot = tiered.Get(opts);
  EXPECT_EQ(hot->GetKernel("f").stats.unrolled_loops, 0);  // still the RE build
  EXPECT_FALSE(tiered.IsSpecialized(opts));
  {
    auto s = tiered.stats();
    EXPECT_EQ(s.background_compiles, 1u);
    EXPECT_EQ(s.promotions_pending, 1u);
    EXPECT_EQ(s.re_served_while_compiling, 1u);
    EXPECT_EQ(s.specializations, 0u);
  }

  ex.Drain();  // blocker + promotion both finish

  // First request after completion swaps the specialized build in.
  auto promoted = tiered.Get(opts);
  EXPECT_TRUE(tiered.IsSpecialized(opts));
  EXPECT_EQ(promoted->GetKernel("f").stats.unrolled_loops, 1);
  EXPECT_FLOAT_EQ(RunOnce(ctx, *promoted, 9), 9.0f);
  {
    auto s = tiered.stats();
    EXPECT_EQ(s.specializations, 1u);
    EXPECT_EQ(s.promotions_pending, 0u);
    EXPECT_EQ(s.failed_promotions, 0u);
  }
}

TEST(TieredAsync, RejectedPromotionFallsBackToReAndRetries) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  CompileExecutor ex({.workers = 1, .max_queue = 0});  // rejects everything
  ctx.set_async_service(&ex);
  vcuda::TieredLoader tiered(&ctx, kKernel, /*hot_threshold=*/1);
  auto opts = OptsFor(3);

  // Hot from the first request, but the service is saturated: serve RE.
  auto mod = tiered.Get(opts);
  EXPECT_EQ(mod->GetKernel("f").stats.unrolled_loops, 0);
  EXPECT_FALSE(tiered.IsSpecialized(opts));
  EXPECT_EQ(tiered.stats().background_compiles, 0u);
  EXPECT_EQ(ex.stats().rejected, 1u);

  // Service detached: the next hot request promotes inline (legacy blocking
  // path) — the loader retried rather than giving up.
  ctx.set_async_service(nullptr);
  auto promoted = tiered.Get(opts);
  EXPECT_TRUE(tiered.IsSpecialized(opts));
  EXPECT_EQ(promoted->GetKernel("f").stats.unrolled_loops, 1);
}

TEST(TieredAsync, ExpiredPromotionIsRescheduled) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  CompileExecutor ex({.workers = 1, .max_queue = 16});
  ctx.set_async_service(&ex);
  vcuda::TieredLoader tiered(&ctx, kKernel, /*hot_threshold=*/1);
  tiered.set_promotion_deadline(std::chrono::milliseconds(1));
  auto opts = OptsFor(15);

  auto blocker = OccupyWorker(ex, ctx);  // outlasts the 1 ms deadline
  auto mod = tiered.Get(opts);           // schedules; promotion expires queued
  EXPECT_EQ(mod->GetKernel("f").stats.unrolled_loops, 0);
  ex.Drain();
  EXPECT_EQ(ex.stats().expired, 1u);

  // The next hot request consumes the null result and reschedules.
  tiered.set_promotion_deadline(std::chrono::milliseconds(0));
  auto re_again = tiered.Get(opts);
  EXPECT_EQ(re_again->GetKernel("f").stats.unrolled_loops, 0);
  EXPECT_EQ(tiered.stats().background_compiles, 2u);
  ex.Drain();
  auto promoted = tiered.Get(opts);
  EXPECT_TRUE(tiered.IsSpecialized(opts));
  EXPECT_EQ(promoted->GetKernel("f").stats.unrolled_loops, 1);
  EXPECT_EQ(tiered.stats().failed_promotions, 0u);
}

TEST(TieredAsync, FailedPromotionKeepsServingReWithoutRetrying) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  CompileExecutor ex({.workers = 1, .max_queue = 16});
  ctx.set_async_service(&ex);
  vcuda::TieredLoader tiered(&ctx, kKernel, /*hot_threshold=*/1);

  // N must be an integer literal; this specialization cannot compile (the RE
  // build, with N left run-time, is fine).
  kcc::CompileOptions bad;
  bad.defines["N"] = "@not_a_number@";

  auto first = tiered.Get(bad);  // schedules the doomed promotion
  EXPECT_EQ(first->GetKernel("f").stats.unrolled_loops, 0);
  ex.Drain();
  auto second = tiered.Get(bad);  // consumes the failure
  EXPECT_EQ(second->GetKernel("f").stats.unrolled_loops, 0);
  auto third = tiered.Get(bad);  // no resubmission after a hard failure
  EXPECT_EQ(third->GetKernel("f").stats.unrolled_loops, 0);

  auto s = tiered.stats();
  EXPECT_EQ(s.failed_promotions, 1u);
  EXPECT_EQ(s.background_compiles, 1u);
  EXPECT_FALSE(tiered.IsSpecialized(bad));
  EXPECT_EQ(ex.stats().failed, 1u);
}

// ---------------------------------------------------------------------------
// Regression: a finished background promotion must be observable through
// IsSpecialized alone. Only Get swaps the ready future into `specialized`, so
// IsSpecialized used to report false forever on the drain-then-poll path —
// which also blinded any residency-based router to completed promotions.
// ---------------------------------------------------------------------------

TEST(TieredAsync, IsSpecializedObservesFinishedPromotionWithoutAnotherGet) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  CompileExecutor ex({.workers = 1, .max_queue = 16});
  ctx.set_async_service(&ex);
  vcuda::TieredLoader tiered(&ctx, kKernel, /*hot_threshold=*/1);
  auto opts = OptsFor(21);

  EXPECT_FALSE(tiered.IsSpecialized(opts));  // cold: no state at all
  auto mod = tiered.Get(opts);               // hot at once: schedules, serves RE
  EXPECT_EQ(mod->GetKernel("f").stats.unrolled_loops, 0);
  ex.Drain();  // the background build is now finished — but no Get consumed it

  EXPECT_TRUE(tiered.IsSpecialized(opts))
      << "a finished promotion must be visible without another Get";
  EXPECT_TRUE(tiered.IsSpecialized(opts));  // polling is idempotent

  // The poll did not perturb the swap-in path: the next Get still consumes
  // the pending future normally.
  auto promoted = tiered.Get(opts);
  EXPECT_EQ(promoted->GetKernel("f").stats.unrolled_loops, 1);
  EXPECT_EQ(tiered.stats().promotions_pending, 0u);
  EXPECT_EQ(tiered.stats().specializations, 1u);
}

// ---------------------------------------------------------------------------
// Regression: the blocking promotion path (no service attached) must compile
// once per key. M threads crossing the hot threshold together used to each
// call LoadModule — M-1 discarded duplicate compiles of a
// hundreds-of-milliseconds build.
// ---------------------------------------------------------------------------

TEST(TieredBlocking, ConcurrentHotPromotionCompilesExactlyOnce) {
  constexpr int kThreads = 8;
  vcuda::Context ctx(vgpu::TeslaC1060());
  vcuda::TieredLoader tiered(&ctx, kKernel, /*hot_threshold=*/1);

  // Threshold 1 sends every first Get straight into the promotion path, and
  // the blocker specialization compiles slowly enough that all 8 threads are
  // inside the promotion together — before the single-flight latch each one
  // ran (and cache-miss-counted) its own compile.
  const kcc::CompileOptions opts = BlockerOpts();
  std::atomic<int> ready{0};
  std::vector<std::shared_ptr<vcuda::Module>> modules(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      modules[t] = tiered.Get(opts);
    });
  }
  for (auto& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(modules[t], nullptr) << "thread " << t;
    EXPECT_EQ(modules[t], modules[0]) << "thread " << t << " got its own build";
  }
  // Exactly one compile happened fleet-wide for this key (the RE build was
  // never needed: threshold 1 promotes before it is ever served).
  EXPECT_EQ(ctx.cache_stats().misses, 1u);
  auto s = tiered.stats();
  EXPECT_EQ(s.specializations, 1u);
  EXPECT_EQ(s.sk_served, static_cast<std::uint64_t>(kThreads));
  EXPECT_TRUE(tiered.IsSpecialized(opts));
}

// ---------------------------------------------------------------------------
// Prewarm: ahead-of-traffic cache seeding through the executor.
// ---------------------------------------------------------------------------

TEST(CompileExecutor, PrewarmSeedsTheTargetContextCache) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  CompileExecutor ex({.workers = 1, .max_queue = 16});
  auto opts = OptsFor(33);

  ASSERT_FALSE(ctx.HasCachedModule(kKernel, opts));
  vcuda::SubmitResult r = ex.Prewarm(ctx, RequestFor(opts));
  ASSERT_TRUE(r.ok());
  ex.Drain();
  ASSERT_NE(r.future.get(), nullptr);
  EXPECT_TRUE(ctx.HasCachedModule(kKernel, opts));

  ServeStats s = ex.stats();
  EXPECT_EQ(s.prewarmed, 1u);
  EXPECT_EQ(s.submitted, 1u);
  ExpectInvariant(s);
}

// ---------------------------------------------------------------------------
// Stress: one TieredLoader + one CompileExecutor, >= 8 threads, overlapping
// parameter sets
// ---------------------------------------------------------------------------

TEST(Stress, TieredAndExecutorExactlyOneCompilePerKey) {
  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  constexpr int kKeys = 4;  // parameter sets N = 1..4

  vcuda::Context ctx(vgpu::TeslaC1060());
  CompileExecutor ex({.workers = 4, .max_queue = 256});
  ctx.set_async_service(&ex);
  vcuda::TieredLoader tiered(&ctx, kKernel, /*hot_threshold=*/3);

  std::atomic<std::uint64_t> tiered_gets{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Key and action selectors must be independent mod 2, or half the
        // keys would only ever see one kind of request.
        const int n = 1 + (t * 7 + i) % kKeys;
        if (i % 2 == 0) {
          auto mod = tiered.Get(OptsFor(n));
          tiered_gets.fetch_add(1);
          // Torn-promotion check: whatever build we got must be complete and
          // hold the kernel. (RE and SK both expose "f".)
          if (!mod || !mod->HasKernel("f")) torn.store(true);
        } else {
          vcuda::SubmitResult r = ex.SubmitLoad(ctx, RequestFor(OptsFor(n)));
          if (r.ok()) {
            auto mod = r.future.get();
            if (!mod || !mod->HasKernel("f")) torn.store(true);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  ex.Drain();
  EXPECT_FALSE(torn.load());

  // Every key saw far more than hot_threshold requests, so after the drain
  // one more Get per key swaps in (or already serves) its specialized build —
  // and it must be the *right* one (same cached binary as a direct load).
  for (int n = 1; n <= kKeys; ++n) {
    auto final_mod = tiered.Get(OptsFor(n));
    tiered_gets.fetch_add(1);
    EXPECT_TRUE(tiered.IsSpecialized(OptsFor(n))) << "key N=" << n;
    auto reference = ctx.LoadModule(kKernel, OptsFor(n));
    EXPECT_EQ(&final_mod->compiled(), &reference->compiled()) << "key N=" << n;
  }

  // Exactly one compile per key: the RE build plus one specialized build per
  // parameter set, no matter how the 8 threads interleaved.
  EXPECT_EQ(ctx.cache_stats().misses, 1u + kKeys);
  EXPECT_EQ(ctx.cache_stats().collisions_detected, 0u);

  ServeStats s = ex.stats();
  ExpectInvariant(s);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.failed, 0u);

  auto ts = tiered.stats();
  EXPECT_EQ(ts.re_served + ts.sk_served, tiered_gets.load());
  EXPECT_EQ(ts.specializations, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(ts.background_compiles, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(ts.promotions_pending, 0u);
  EXPECT_EQ(ts.failed_promotions, 0u);
}

// ---------------------------------------------------------------------------
// GPU-PF: tiered re-specialization on parameter change
// ---------------------------------------------------------------------------

// A kTiered pipeline answers a changed parameter set with the module's RE
// build, which reads n at run time and so computes the right value, while the
// set's specialized build compiles on the service; the SK build then swaps in
// and bumps the module's generation.
TEST(GpupfAsync, ParameterChangeRespecializesWithoutStallingExecution) {
  vcuda::Context ctx(vgpu::TeslaC1060());
  CompileExecutor ex({.workers = 1, .max_queue = 16});
  ctx.set_async_service(&ex);

  gpupf::Pipeline pipe(&ctx, launch::LoadPolicy::kTiered);
  auto* n = pipe.AddInt("n", 5);
  auto* extent = pipe.AddExtent("out", sizeof(float), 32);
  auto* grid = pipe.AddTriplet("grid", vgpu::Dim3(1));
  auto* block = pipe.AddTriplet("block", vgpu::Dim3(32));
  auto* mod = pipe.AddModule("mod", kKernel);
  mod->BindDefine("N", n);
  auto* kernel = pipe.AddKernel("k", mod, "f");
  auto* out = pipe.AddGlobalMemory("buf", extent);
  auto* host = pipe.AddHostMemory("host", extent);
  pipe.AddKernelExec("run", nullptr, kernel, grid, block, {out, n});
  pipe.AddCopy("readback", nullptr, out, host);

  pipe.Run(1);  // cold set: the RE build (compiled inline once) answers
  EXPECT_FLOAT_EQ(host->host_span<float>()[0], 5.0f);

  // Pin the worker, then change the parameter. Refresh loads every
  // iteration, so the third makes N=9 hot and queues its specialized build;
  // all three run the RE build with the new value instead of stalling.
  auto blocker = OccupyWorker(ex, ctx);
  n->Set(9);
  pipe.Run(3);
  EXPECT_FLOAT_EQ(host->host_span<float>()[0], 9.0f);
  vcuda::TieredLoader::Stats s = pipe.runner().tiered_stats();
  EXPECT_EQ(s.background_compiles, 1u);
  EXPECT_EQ(s.promotions_pending, 1u);
  EXPECT_EQ(s.sk_served, 0u);

  ex.Drain();
  const std::uint64_t generation = mod->generation();
  pipe.Run(1);  // this iteration's refresh swaps the specialized build in
  s = pipe.runner().tiered_stats();
  EXPECT_EQ(s.sk_served, 1u);
  EXPECT_EQ(s.specializations, 1u);
  EXPECT_EQ(s.promotions_pending, 0u);
  EXPECT_GT(mod->generation(), generation);
  EXPECT_TRUE(pipe.runner().IsSpecialized(kKernel, launch::SpecBuilder().Value("N", 9)));
  EXPECT_FLOAT_EQ(host->host_span<float>()[0], 9.0f);
  EXPECT_GE(ex.stats().succeeded, 2u);  // the blocker and the SK build
}

}  // namespace
}  // namespace kspec
