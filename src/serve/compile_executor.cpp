#include "serve/compile_executor.hpp"

#include <algorithm>
#include <chrono>

#include "kcc/cache_key.hpp"
#include "support/log.hpp"
#include "support/str.hpp"
#include "support/timer.hpp"

namespace kspec::serve {

CompileExecutor::CompileExecutor(ExecutorOptions options) : options_(options) {
  if (options_.workers < 1) options_.workers = 1;
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

CompileExecutor::~CompileExecutor() { Shutdown(); }

vcuda::SubmitResult CompileExecutor::SubmitLoad(vcuda::Context& ctx,
                                                const vcuda::CompileRequest& req) {
  return Submit(ctx, req, /*prewarm=*/false);
}

vcuda::SubmitResult CompileExecutor::Prewarm(vcuda::Context& ctx,
                                             const vcuda::CompileRequest& req) {
  return Submit(ctx, req, /*prewarm=*/true);
}

vcuda::SubmitResult CompileExecutor::Submit(vcuda::Context& ctx,
                                            const vcuda::CompileRequest& req, bool prewarm) {
  const kcc::ModuleCacheKey mkey =
      kcc::ModuleCacheKey::Make(req.source, req.opts, ctx.device().name);
  const std::string key_id = Format("k%016llx", static_cast<unsigned long long>(mkey.Hash()));
  auto flight = std::make_shared<Flight>();
  // Two Contexts may share one executor, and equal sources/options targeting
  // different contexts must not coalesce (each context owns its cache and its
  // Module instances), so the flight key prefixes the canonical module key
  // with the context's identity.
  flight->key = Format("%p|", static_cast<void*>(&ctx)) + mkey.CanonicalText();
  flight->run = [this, &ctx, req] { return ExecuteFlight(ctx, req); };
  flight->deadline = req.deadline;
  flight->prewarm = prewarm;

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.key_requests[key_id];
  ServeStats::TenantCounters& tenant = stats_.tenants[req.tenant];
  ++tenant.submitted;
  const vcuda::SubmitResult r = Admit(std::move(flight));
  if (r.status == vcuda::SubmitStatus::kRejected) {
    ++tenant.rejected;
    return r;
  }
  if (r.status == vcuda::SubmitStatus::kCoalesced) ++tenant.coalesced;
  if (prewarm) ++stats_.prewarmed;
  return r;
}

vcuda::SubmitResult CompileExecutor::SubmitTask(const std::string& key,
                                                std::function<void()> task) {
  auto flight = std::make_shared<Flight>();
  // Module flight keys start with the context's address, so this prefix
  // keeps the two kinds from ever coalescing onto each other.
  flight->key = "task|" + key;
  flight->run = [task = std::move(task)]() -> std::shared_ptr<vcuda::Module> {
    task();
    return nullptr;
  };
  flight->task = true;
  std::lock_guard<std::mutex> lock(mu_);
  return Admit(std::move(flight));
}

vcuda::SubmitResult CompileExecutor::Admit(std::shared_ptr<Flight> flight) {
  ++stats_.submitted;
  if (auto it = in_flight_.find(flight->key); it != in_flight_.end()) {
    ++stats_.coalesced;
    // A demand request landing on a prewarm-originated flight is the prewarm
    // paying off — the telemetry the daemon's hot-key predictor is scored on.
    if (!flight->prewarm && it->second->prewarm) ++stats_.prewarm_hits;
    return {vcuda::SubmitStatus::kCoalesced, it->second->future};
  }
  if (stopping_ || queue_.size() >= options_.max_queue) {
    ++stats_.rejected;
    return {vcuda::SubmitStatus::kRejected, {}};
  }
  flight->future = flight->promise.get_future().share();
  in_flight_.emplace(flight->key, flight);
  queue_.push_back(flight);
  stats_.queue_depth_high_water = std::max(stats_.queue_depth_high_water, queue_.size());
  work_cv_.notify_one();
  return {vcuda::SubmitStatus::kScheduled, flight->future};
}

void CompileExecutor::Finish(const std::shared_ptr<Flight>& flight,
                             std::shared_ptr<vcuda::Module> module, std::exception_ptr error,
                             double compile_ms, bool expired) {
  // Fulfill before retiring the flight so that anything woken by Drain (which
  // waits on the backlog counters updated below) observes a ready future. A
  // submit landing between fulfillment and retirement coalesces onto an
  // already-ready future, which is harmless.
  if (error) {
    flight->promise.set_exception(error);
  } else {
    flight->promise.set_value(std::move(module));
  }
  std::lock_guard<std::mutex> lock(mu_);
  in_flight_.erase(flight->key);
  ++stats_.completed;
  if (expired) {
    ++stats_.expired;
  } else {
    ++(error ? stats_.failed : stats_.succeeded);
    if (!flight->task) stats_.RecordCompileMillis(compile_ms);
  }
  --active_;
  if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
}

void CompileExecutor::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Flight> flight;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping with the backlog drained
      flight = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }

    if (flight->deadline != std::chrono::steady_clock::time_point{} &&
        std::chrono::steady_clock::now() > flight->deadline) {
      // Expired while queued: don't burn a worker on a result nobody can use
      // in time. The null module tells waiters to keep their fallback.
      Finish(flight, nullptr, nullptr, 0, /*expired=*/true);
      continue;
    }

    WallTimer timer;
    std::shared_ptr<vcuda::Module> module;
    std::exception_ptr error;
    try {
      module = flight->run();
    } catch (...) {
      error = std::current_exception();
      KSPEC_LOG_WARN << "serve: background flight failed — waiters will rethrow";
    }
    Finish(flight, std::move(module), error, timer.ElapsedMillis(), /*expired=*/false);
  }
}

std::shared_ptr<vcuda::Module> CompileExecutor::ExecuteFlight(vcuda::Context& ctx,
                                                              const vcuda::CompileRequest& req) {
  return ctx.LoadModule(req.source, req.opts);
}

void CompileExecutor::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void CompileExecutor::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    work_cv_.notify_all();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

ServeStats CompileExecutor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t CompileExecutor::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace kspec::serve
