// The native execution tier: content-addressed shared-object artifacts plus
// the host-side launch mirror that runs them.
//
// NativeEngine implements vcuda::NativeExecutionService. Per artifact — the
// generic shared object of a ModuleCacheKey, or one of its shape variants —
// it keeps a small state machine (unknown -> building -> ready | failed) over
// one artifact ladder:
//
//   memory  — a dlopen'd shared object, reused for every later launch;
//   disk    — cache_dir as a kcc::ArtifactDir (`k%016llx.nso` beside the
//             .kmod files): a second process with a warm cache directory
//             serves the native tier with zero recompiles;
//   store   — the shared netd::ArtifactStore, when attached (written through
//             to disk on a hit).
//
// Every artifact is a kcc::SerializeNative envelope; a corrupt file is
// quarantined (renamed aside) and treated as a miss, a loaded SO whose
// kspec_native_abi_version or embedded build key disagrees is discarded as
// stale — in every case the launch degrades to the decoded tier instead of
// failing. A failed build logs the host compiler's diagnostics once.
//
// Build policy follows NativeLaunchRequest::require: a forced native launch
// builds inline (single-flight per key; concurrent launches wait); a kAuto
// launch only serves what is already loadable and leaves generic builds to
// EnsureReady (kccc runs it as serve::CompileExecutor build tasks).
//
// On top of the generic artifact each module keeps a bounded set of
// shape-specialized variants, content-addressed by (module key, launch
// shape): divergence-aware TUs whose launch dimensions are compile-time
// constants (codegen + maskprop). A variant runs the same ladder; only its
// file name, embedded key text and counters differ. The
// generic artifact always stays resident as the fallback, so a kAuto launch
// never blocks: under ShapeMode::kAuto a (module, shape) pair that crosses
// Options::shape_hot_threshold launches is promoted by a build task on a
// one-worker serve::CompileExecutor the engine creates on first promotion;
// under kEager the variant builds inline. Variants beyond
// Options::max_shape_variants are LRU-evicted. No TU holds thread_local
// state (the block scheduler and the warps are the engine's), so every shared
// object is dlclosed once its last holder lets go: an evicted variant once
// its last in-flight launch completes, the rest with the engine.
//
// The launch itself runs the interpreter's shell: vgpu::PrepareLaunch and
// vgpu::ExecuteLaunch (the one chunk driver, per-worker runners from its
// free list, chunk partials folded in chunk order). Each runner runs the
// block scheduler (simt::RunBlock) itself, as the interpreter's does, and
// calls the SO's warp function for the kernel, which executes the same
// simt.hpp rules — which is why the native tier's LaunchStats are
// bit-identical to the decoded tier's.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>

#include "kcc/artifact_dir.hpp"
#include "native/abi.hpp"
#include "native/shape.hpp"
#include "serve/compile_executor.hpp"
#include "support/temp_dir.hpp"
#include "vcuda/native_hook.hpp"
#include "vgpu/tier.hpp"

namespace kspec::netd {
class ArtifactStore;
}

namespace kspec::native {

struct NativeEngineStats {
  std::uint64_t builds_started = 0;
  std::uint64_t builds_completed = 0;
  std::uint64_t build_failures = 0;
  std::uint64_t served_launches = 0;   // launches run on the native tier
  std::uint64_t fallbacks = 0;         // TryLaunch returned false
  std::uint64_t memory_hits = 0;       // already-loaded SO served a launch
  std::uint64_t disk_hits = 0;         // artifact loaded from cache_dir
  std::uint64_t store_hits = 0;        // artifact fetched from the store
  std::uint64_t corrupt_quarantined = 0;
  std::uint64_t stale_discarded = 0;   // ABI-version or key mismatch

  // Shape-specialized variants, counted separately from the generic ladder so
  // the generic counters keep their exact PR-9 meanings.
  std::uint64_t shape_builds_started = 0;
  std::uint64_t shape_builds_completed = 0;
  std::uint64_t shape_build_failures = 0;
  std::uint64_t shape_served_launches = 0;  // launches run on a shape variant
  std::uint64_t shape_memory_hits = 0;
  std::uint64_t shape_disk_hits = 0;
  std::uint64_t shape_store_hits = 0;
  std::uint64_t shape_evicted = 0;          // resident variants LRU-evicted
};

class NativeEngine : public vcuda::NativeExecutionService {
 public:
  struct Options {
    // Directory for .nso artifacts; "" disables the disk tier. Shared with
    // the .kmod cache_dir by convention (distinct extensions).
    std::string cache_dir;
    // Optional shared artifact store (not owned; must outlive the engine).
    netd::ArtifactStore* store = nullptr;
    // Shape-specialization fallback policy; KSPEC_NATIVE_SHAPE and
    // vgpu::SetShapeModeOverride take precedence (vgpu::ResolveShapeMode).
    vgpu::ShapeMode shape_mode = vgpu::ShapeMode::kAuto;
    // Resident shape variants per module; least-recently-served variants are
    // dlclosed beyond this (their disk/store artifacts survive).
    unsigned max_shape_variants = 4;
    // kAuto: launches of one (module, shape) before background promotion.
    unsigned shape_hot_threshold = 3;
  };

  NativeEngine();
  explicit NativeEngine(Options opts);
  ~NativeEngine() override;

  NativeEngine(const NativeEngine&) = delete;
  NativeEngine& operator=(const NativeEngine&) = delete;

  // vcuda::NativeExecutionService. False = degrade to decoded (and counted),
  // also for a request without its module; exceptions are the kernel's own
  // faults, raised with the interpreter's exact error text.
  bool TryLaunch(vcuda::Context& ctx, const vcuda::NativeLaunchRequest& req,
                 vgpu::LaunchStats* out) override;

  // Makes the artifact for (key, mod) servable now: memory -> disk -> store
  // -> emit + compile + dlopen, publishing new builds back to disk and store.
  // Blocking; single-flight per key (concurrent callers wait). False when the
  // native tier cannot serve this key (no toolchain, failed build) — that
  // answer is sticky per key until the process restarts.
  bool EnsureReady(const kcc::ModuleCacheKey& key, const kcc::CompiledModule& mod);

  // True when a launch for `key` would be served from memory right now.
  bool IsReady(const kcc::ModuleCacheKey& key) const;

  // True when (key, shape) would be served from a resident shape variant.
  bool IsVariantReady(const kcc::ModuleCacheKey& key, const ShapeSpec& shape) const;

  // Blocks until every background shape promotion queued so far has finished
  // (the queue is empty and no build is running). Test/bench hook.
  void DrainShapeBuilds();

  // Disk-tier artifact name for `key` ("k%016llx.nso").
  static std::string ArtifactFileName(const kcc::ModuleCacheKey& key);

  // Disk-tier artifact name for a (key, shape) variant ("k%016llx_s%016llx.nso").
  static std::string VariantFileName(const kcc::ModuleCacheKey& key, const ShapeSpec& shape);

  // The build key a generic artifact embeds: the module key's canonical text
  // and the EmbeddedRuntimeHash, so an artifact built from other simt.hpp
  // text is stale.
  static std::string GenericKeyText(const kcc::ModuleCacheKey& key);

  // The build key a shape artifact embeds: GenericKeyText, a '\n', then the
  // shape's canonical text, so the two can never be confused.
  static std::string VariantKeyText(const kcc::ModuleCacheKey& key, const ShapeSpec& shape);

  NativeEngineStats stats() const;

 private:
  struct LoadedKernel;
  struct LoadedModule;
  struct Slot;
  struct Entry;

  // The one artifact ladder: memory -> disk -> store -> build, for the
  // generic artifact (shape == nullptr) or one shape variant. The memory
  // step is the artifact's slot state machine, single-flight: callers that
  // may build wait for a build in flight, the others never block. A kAuto
  // variant probe that finds nothing submits a background promotion task
  // while the pair is hot. `mod`, the module `key` names, is never null.
  // Returns the loaded SO or nullptr (degrade).
  std::shared_ptr<LoadedModule> LoadOrBuild(const kcc::ModuleCacheKey& key,
                                            const std::shared_ptr<const kcc::CompiledModule>& mod,
                                            const ShapeSpec* shape, bool may_build);
  // The disk -> store -> build steps, run by the slot's owning thread.
  std::shared_ptr<LoadedModule> FetchOrBuild(const kcc::ModuleCacheKey& key,
                                             const kcc::CompiledModule& mod,
                                             const ShapeSpec* shape, bool may_build);
  // dlopens an SO image and checks its ABI version and embedded build key;
  // a mismatch is counted stale and reported through *stale. Each exported
  // kernel is looked up in `mod`, the module the key names.
  std::shared_ptr<LoadedModule> OpenSharedObject(std::span<const std::uint8_t> so_bytes,
                                                 const std::string& key_text,
                                                 const kcc::CompiledModule& mod, bool* stale);
  bool SlotReady(const kcc::ModuleCacheKey& key, const ShapeSpec* shape) const;
  void Bump(std::uint64_t NativeEngineStats::*counter);

  vgpu::LaunchStats RunNative(vcuda::Context& ctx, const LoadedModule& lm,
                              const LoadedKernel& kernel,
                              const vcuda::NativeLaunchRequest& req);

  Options opts_;
  std::optional<kcc::ArtifactDir> disk_;  // engaged when opts_.cache_dir is set
  ScopedTempDir scratch_;  // dlopen needs the SO image on disk
  mutable std::mutex mu_;  // guards entries_, stats_, scratch_ naming, shape_builds_
  std::map<std::string, std::shared_ptr<Entry>> entries_;  // by canonical key text
  NativeEngineStats stats_;
  std::uint64_t scratch_seq_ = 0;
  std::atomic<std::uint64_t> lru_tick_{0};  // advanced per shape-variant serve

  // Background promotion of hot (module, shape) pairs (kAuto): one worker,
  // created on first promotion, so kEager and kOff engines start no thread.
  std::unique_ptr<serve::CompileExecutor> shape_builds_;
  // Set by the destructor: queued promotion tasks return without building.
  std::atomic<bool> closing_{false};
};

}  // namespace kspec::native
