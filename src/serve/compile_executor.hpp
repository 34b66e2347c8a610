// The asynchronous specialization service: a bounded worker pool compiling
// (source, CompileOptions, device) requests off the launch path.
//
// The dissertation's Section 4.3 trade-off — run-time compilation costs
// hundreds of milliseconds and must be amortized — is paid here in the
// background instead of inline in Context::LoadModule. KLARAPTOR and the
// parametric-kernel literature frame per-parameter-set code generation as a
// service invoked at launch time; this is that service:
//
//   * SubmitLoad returns a shared future immediately; worker threads run the
//     compile through the Context's two-tier cache.
//   * Single-flight coalescing, keyed on kcc::ModuleCacheKey (plus the
//     context's identity): N concurrent requests for the same specialization
//     trigger exactly one compile, and the other N-1 share its future.
//   * Bounded queue with backpressure: at the cap, SubmitLoad rejects and the
//     caller falls back (serve the RE build, compile inline, skip).
//   * Per-request deadlines: a flight still queued when its deadline passes
//     resolves to a null module instead of burning a worker.
//   * A ServeStats counter block, including a compile-wall-time histogram.
//   * Build tasks (SubmitTask): any keyed background job — the native
//     engine's shape promotions, kccc's native builds — rides the same
//     workers, single-flight key space, bounded queue, Drain and Shutdown.
//     A flight holds one callable; a module flight's callable is
//     ExecuteFlight, a task's is the caller's function.
//
// Thread-safe throughout; Contexts attach it with set_async_service to make
// LoadModuleAsync, TieredLoader promotion, and GPU-PF re-specialization
// non-blocking.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/serve_stats.hpp"
#include "vcuda/async.hpp"
#include "vcuda/vcuda.hpp"

namespace kspec::serve {

struct ExecutorOptions {
  // Worker threads compiling in parallel. Only distinct keys occupy workers;
  // same-key requests coalesce onto one flight.
  int workers = 2;
  // Maximum flights waiting for a worker (running flights don't count). At
  // the cap SubmitLoad returns kRejected.
  std::size_t max_queue = 64;
};

// Not final: netd::RemoteCompileService subclasses it, overriding only
// ExecuteFlight so every coalescing/backpressure/deadline guarantee here is
// inherited rather than reimplemented.
class CompileExecutor : public vcuda::AsyncCompileService {
 public:
  explicit CompileExecutor(ExecutorOptions options = {});
  // Runs Shutdown(). Subclasses overriding ExecuteFlight MUST call Shutdown()
  // from their own destructor: by the time the base destructor runs, the
  // derived object is gone and a still-live worker would call the base
  // ExecuteFlight (or worse) mid-teardown.
  ~CompileExecutor() override;

  CompileExecutor(const CompileExecutor&) = delete;
  CompileExecutor& operator=(const CompileExecutor&) = delete;

  vcuda::SubmitResult SubmitLoad(vcuda::Context& ctx,
                                 const vcuda::CompileRequest& req) override;

  // Ahead-of-traffic warm-up: submits `req` so the specialization lands in
  // `ctx`'s module cache before traffic needs it (kspecd uses this to
  // recompile its persisted hot keys after a restart). Identical semantics to
  // SubmitLoad — coalescing, backpressure, deadlines — plus a `prewarmed`
  // tally in ServeStats. Returns the submit result so callers can observe
  // rejection and retry or fall back to a blocking load.
  vcuda::SubmitResult Prewarm(vcuda::Context& ctx, const vcuda::CompileRequest& req);

  // Schedules `task` on a worker under `key`: while a task of the same key
  // is queued or running, further submits coalesce onto it (and `task` is
  // dropped). Task keys never meet module flights. The future resolves to a
  // null module once the task returns, or rethrows what it threw (counted
  // `failed`). Counted in submitted/coalesced/completed/rejected like a
  // module flight, but not in the per-tenant, per-key or compile-time tallies.
  vcuda::SubmitResult SubmitTask(const std::string& key, std::function<void()> task);

  // Blocks until every flight accepted so far has completed (the queue is
  // empty and no worker is mid-flight).
  void Drain();

  // Stops accepting work (further submits are rejected), completes the
  // already-accepted flights, and joins the workers. Idempotent; the
  // destructor runs it.
  void Shutdown();

  ServeStats stats() const;
  std::size_t queue_depth() const;

 protected:
  // Produces the module for one accepted flight. Runs on a worker thread with
  // no executor lock held; a throw propagates to every waiter through the
  // flight's future. The base implementation is the local path —
  // ctx.LoadModule through the context's two-tier cache. RemoteCompileService
  // overrides it to consult the shared artifact store and the daemon first.
  virtual std::shared_ptr<vcuda::Module> ExecuteFlight(vcuda::Context& ctx,
                                                       const vcuda::CompileRequest& req);

 private:
  struct Flight {
    std::string key;
    std::function<std::shared_ptr<vcuda::Module>()> run;  // the flight's work
    // Default-constructed = none; a flight still queued past it resolves
    // null without running.
    std::chrono::steady_clock::time_point deadline{};
    bool prewarm = false;  // originated by Prewarm (for prewarm_hits scoring)
    bool task = false;     // a SubmitTask flight: no compile time recorded
    std::promise<std::shared_ptr<vcuda::Module>> promise;
    vcuda::ModuleFuture future;
  };

  // Shared body of SubmitLoad and Prewarm.
  vcuda::SubmitResult Submit(vcuda::Context& ctx, const vcuda::CompileRequest& req,
                             bool prewarm);
  // Shared tail of every submit, under mu_: coalesces onto `flight`'s key in
  // flight, rejects at the queue cap or after Shutdown, or queues it.
  vcuda::SubmitResult Admit(std::shared_ptr<Flight> flight);
  void WorkerLoop();
  // Fulfills the flight's promise, then retires it from the in-flight map and
  // updates counters. `error`/`ms` describe the run's outcome; an expired
  // flight passes `expired`.
  void Finish(const std::shared_ptr<Flight>& flight, std::shared_ptr<vcuda::Module> module,
              std::exception_ptr error, double compile_ms, bool expired);

  ExecutorOptions options_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for queue items
  std::condition_variable idle_cv_;  // Drain waits for an empty backlog
  bool stopping_ = false;
  std::size_t active_ = 0;  // flights currently on a worker
  std::deque<std::shared_ptr<Flight>> queue_;
  // key -> flight, from submit until the flight's promise is fulfilled; this
  // map is what makes coalescing single-flight.
  std::unordered_map<std::string, std::shared_ptr<Flight>> in_flight_;
  ServeStats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace kspec::serve
