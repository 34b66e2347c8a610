#include "vcuda/tiered.hpp"

#include <chrono>

#include "support/log.hpp"

namespace kspec::vcuda {

namespace {

bool Ready(const ModuleFuture& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

}  // namespace

std::shared_ptr<Module> TieredLoader::ReModule() {
  // One RE build for all sets. call_once (not mu_) guards the compile:
  // concurrent first users all wait here, but threads that don't need the RE
  // build never queue behind a cold compile.
  std::call_once(re_once_, [&] {
    if (re_compile_hook_) re_compile_hook_();
    re_module_ = ctx_->LoadModule(source_, {});
  });
  return re_module_;
}

std::shared_ptr<Module> TieredLoader::Get(const kcc::CompileOptions& specialized_opts) {
  std::unique_lock<std::mutex> lock(mu_);
  const std::string key = KeyFor(specialized_opts);
  SetState& s = state_[key];
  ++s.heat;

  if (s.specialized) {
    ++stats_.sk_served;
    return s.specialized;
  }

  // A background promotion is in flight: swap it in if it finished, keep
  // serving the RE build if not.
  if (s.pending.valid()) {
    if (!Ready(s.pending)) {
      ++stats_.re_served;
      ++stats_.re_served_while_compiling;
      lock.unlock();  // a cold RE build must not run under mu_
      return ReModule();
    }
    ModuleFuture done = std::move(s.pending);
    s.pending = {};
    --stats_.promotions_pending;
    try {
      if (std::shared_ptr<Module> mod = done.get()) {
        s.specialized = std::move(mod);
        ++stats_.specializations;
        ++stats_.sk_served;
        return s.specialized;
      }
      // Null module: the flight's deadline expired before a worker picked it
      // up. Fall through — heat is already past the threshold, so the
      // promotion is rescheduled below.
    } catch (const std::exception& e) {
      s.failed = true;
      ++stats_.failed_promotions;
      KSPEC_LOG_WARN << "tiered: background specialization failed (" << e.what()
                     << ") — continuing to serve the RE build";
    }
  }

  if (s.heat >= hot_threshold_ && !s.failed) {
    if (AsyncCompileService* svc = ctx_->async_service()) {
      // Non-blocking promotion: schedule the specialized build and answer
      // this request with the RE build. (Workers never take mu_, so calling
      // into the service under the lock cannot deadlock.)
      CompileRequest req;
      req.source = source_;
      req.opts = specialized_opts;
      if (promotion_deadline_.count() > 0) {
        req.deadline = std::chrono::steady_clock::now() + promotion_deadline_;
      }
      SubmitResult r = svc->SubmitLoad(*ctx_, req);
      if (r.ok()) {
        s.pending = r.future;
        ++stats_.background_compiles;
        ++stats_.promotions_pending;
        ++stats_.re_served_while_compiling;
      }
      // Rejected (service backpressure): serve RE now; the next Get retries.
      ++stats_.re_served;
      lock.unlock();
      return ReModule();
    }

    // Blocking fallback (no service attached) — the original inline
    // promotion. Compile outside the lock: LoadModule is thread-safe and
    // other parameter sets should not stall behind this one's compile. The
    // compile is single-flight per parameter set, and the flight stores its
    // module before the key is forgotten, so a Get arriving after the flight
    // finds it swapped in instead of compiling again. A compile error
    // propagates to every waiter like the original inline promotion did;
    // heat stays above the threshold, so a later Get retries.
    lock.unlock();
    std::shared_ptr<Module> mod = blocking_.Do(key, [&] {
      std::shared_ptr<Module> built = ctx_->LoadModule(source_, specialized_opts);
      std::lock_guard<std::mutex> relock(mu_);
      SetState& again = state_[key];
      if (!again.specialized) {
        again.specialized = std::move(built);
        ++stats_.specializations;
      }
      return again.specialized;
    });
    lock.lock();
    ++stats_.sk_served;
    return mod;
  }

  ++stats_.re_served;
  lock.unlock();
  return ReModule();
}

bool TieredLoader::IsSpecialized(const kcc::CompileOptions& specialized_opts) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = state_.find(KeyFor(specialized_opts));
  if (it == state_.end()) return false;
  const SetState& s = it->second;
  if (s.specialized) return true;
  // A finished background promotion counts even though only Get swaps it in:
  // a caller that polls after CompileExecutor::Drain() must observe
  // completion without having to issue another Get first. Peek the ready
  // future; a failed or expired (null) flight is still "not specialized".
  if (s.pending.valid() && Ready(s.pending)) {
    try {
      return s.pending.get() != nullptr;
    } catch (...) {
      return false;
    }
  }
  return false;
}

TieredLoader::Stats TieredLoader::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace kspec::vcuda
