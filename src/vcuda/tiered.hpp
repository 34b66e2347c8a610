// Tiered (lazy) specialization — the dissertation's future-work direction of
// deciding *when* specialization pays (Sections 4.3 / 7.2.3).
//
// Run-time compilation has a cost; for a kernel launched once on a given
// parameter set, the adaptable run-time-evaluated binary may win overall.
// TieredLoader implements the classic JIT tiering policy: the first
// `hot_threshold` requests for a parameter set are served by the RE build
// (compiled once, shared by every parameter set); once a set proves hot, the
// specialized build is compiled and served from then on. The break-even
// arithmetic is exactly Section 4.3's: compile overhead is amortized when
//   launches * (re_time - sk_time) > compile_time.
//
// Promotion is *non-blocking* when the Context has an AsyncCompileService
// attached (Context::set_async_service): the hot request schedules the
// specialized build on the service and keeps being served the RE build while
// it compiles in the background, then the specialized module is swapped in
// atomically — the launch that triggers promotion never stalls for the
// ~hundreds-of-ms compile. Without a service the loader falls back to the
// original blocking promotion. All entry points are thread-safe.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "kcc/cache_key.hpp"
#include "support/single_flight.hpp"
#include "vcuda/async.hpp"
#include "vcuda/vcuda.hpp"

namespace kspec::vcuda {

class TieredLoader {
 public:
  // `source` must compile in a fully run-time-evaluated configuration when
  // no defines are provided (the Appendix B single-source pattern).
  TieredLoader(Context* ctx, std::string source, int hot_threshold = 3)
      : ctx_(ctx), source_(std::move(source)), hot_threshold_(hot_threshold) {}

  // Returns the module to use for this parameter set: the shared RE build
  // while the set is cold (or while its specialized build is still compiling
  // in the background), the specialized build once it is ready.
  std::shared_ptr<Module> Get(const kcc::CompileOptions& specialized_opts);

  // True if the given parameter set is currently served specialized (i.e. its
  // specialized build finished and was swapped in).
  bool IsSpecialized(const kcc::CompileOptions& specialized_opts) const;

  // Bounds how long a scheduled promotion may sit in the service's queue; an
  // expired promotion resolves to the RE build and is rescheduled by the next
  // hot request. Zero (the default) = no deadline.
  void set_promotion_deadline(std::chrono::milliseconds d) {
    std::lock_guard<std::mutex> lock(mu_);
    promotion_deadline_ = d;
  }

  // Adjusts the promotion threshold at run time (e.g. threshold 1 promotes
  // every set on first use; a large value pins everything to the RE build).
  void set_hot_threshold(int t) {
    std::lock_guard<std::mutex> lock(mu_);
    hot_threshold_ = t;
  }

  // Test-only: runs at the start of the one-time RE compile, outside mu_.
  // Lets tests hold the RE build open and prove that concurrent Gets for
  // already-specialized sets are not serialized behind it. Must be set
  // before the loader is used concurrently.
  void set_test_compile_hook(std::function<void()> hook) {
    re_compile_hook_ = std::move(hook);
  }

  struct Stats {
    std::uint64_t re_served = 0;
    std::uint64_t sk_served = 0;
    std::uint64_t specializations = 0;  // parameter sets promoted
    // Non-blocking promotion accounting:
    std::uint64_t background_compiles = 0;        // promotions scheduled async
    std::uint64_t promotions_pending = 0;         // gauge: scheduled, not yet swapped
    std::uint64_t re_served_while_compiling = 0;  // hot Gets answered RE meanwhile
    std::uint64_t failed_promotions = 0;          // background compiles that threw
  };
  Stats stats() const;

 private:
  // Per-parameter-set promotion state. `specialized` is written exactly once,
  // under mu_ — readers either see the RE build or the complete specialized
  // module, never a torn promotion.
  struct SetState {
    int heat = 0;
    bool failed = false;                  // background compile threw; stay on RE
    std::shared_ptr<Module> specialized;  // serve this once set
    ModuleFuture pending;                 // valid while a background compile runs
  };

  // Heat is tracked per full parameter set. The key must cover every
  // CompileOptions field, not just the defines: two option sets with equal
  // defines but different max_unroll/pass flags compile to different
  // binaries, so they must heat up — and report IsSpecialized — separately.
  std::string KeyFor(const kcc::CompileOptions& opts) const {
    return kcc::ModuleCacheKey::Make(source_, opts, ctx_->device().name).CanonicalText();
  }

  // Serves the shared RE build, compiling it on first use. Must be called
  // WITHOUT mu_ held: the compile is guarded by re_once_ instead, so a cold
  // RE build (a real kcc compile, potentially hundreds of ms) never blocks
  // unrelated Gets that only need mu_ for their own bookkeeping. After the
  // call_once completes, re_module_ is immutable and safe to read lock-free.
  std::shared_ptr<Module> ReModule();

  Context* ctx_;
  std::string source_;
  std::function<void()> re_compile_hook_;  // test-only; set before concurrency

  mutable std::mutex mu_;  // guards everything below except re_module_
  int hot_threshold_;
  std::chrono::milliseconds promotion_deadline_{0};
  std::map<std::string, SetState> state_;
  Stats stats_;
  // Blocking promotions in progress (the no-service path), by set key: M
  // threads crossing the hot threshold together run one compile and share it.
  SingleFlight<std::shared_ptr<Module>> blocking_;

  // The shared RE build: written exactly once inside re_once_, read only
  // after call_once returns (which synchronizes), so it needs no mutex and
  // its compile happens outside mu_.
  std::once_flag re_once_;
  std::shared_ptr<Module> re_module_;
};

}  // namespace kspec::vcuda
