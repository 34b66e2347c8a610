#include "native/engine.hpp"

#include <dlfcn.h>

#include <condition_variable>
#include <vector>

#include "kcc/serialize.hpp"
#include "native/build.hpp"
#include "native/codegen.hpp"
#include "netd/artifact_store.hpp"
#include "support/log.hpp"
#include "support/math.hpp"
#include "support/serialize.hpp"
#include "support/status.hpp"
#include "support/str.hpp"
#include "vcuda/vcuda.hpp"
#include "vgpu/isa.hpp"
#include "vgpu/tier.hpp"

namespace kspec::native {
namespace {

// The generic artifact and the shape variants feed separate counters, so the
// generic ones keep their exact meanings whether or not a variant serves.
struct LadderCounters {
  std::uint64_t NativeEngineStats::*disk_hits;
  std::uint64_t NativeEngineStats::*store_hits;
  std::uint64_t NativeEngineStats::*builds_started;
  std::uint64_t NativeEngineStats::*builds_completed;
  std::uint64_t NativeEngineStats::*build_failures;
};

constexpr LadderCounters kGenericCounters = {
    &NativeEngineStats::disk_hits, &NativeEngineStats::store_hits,
    &NativeEngineStats::builds_started, &NativeEngineStats::builds_completed,
    &NativeEngineStats::build_failures};

constexpr LadderCounters kShapeCounters = {
    &NativeEngineStats::shape_disk_hits, &NativeEngineStats::shape_store_hits,
    &NativeEngineStats::shape_builds_started, &NativeEngineStats::shape_builds_completed,
    &NativeEngineStats::shape_build_failures};

// ---- launch callbacks (the SO's only way back into the host) ----

const unsigned char* TryAccessCb(void* gmem, std::uint64_t addr, std::uint64_t len) {
  return static_cast<const vgpu::GlobalMemory*>(gmem)->TryAccess(addr, len);
}

unsigned char* AccessCb(void* gmem, std::uint64_t addr, std::uint64_t len) {
  return static_cast<vgpu::GlobalMemory*>(gmem)->Access(addr, len);
}

// The per-worker execution state the SO borrows for each block, like the
// interpreter's runner: the register file and shared array are reused
// across blocks and chunks, the watchdog accumulator spans its lifetime.
class NativeRunner final : public vgpu::BlockExecutor {
 public:
  NativeRunner(RunBlockFn run, unsigned kernel_index, const KspecNativeLaunch& launch,
               std::size_t regs, std::size_t shared_bytes)
      : run_(run), kernel_index_(kernel_index), launch_(launch), regs_(regs),
        shared_(shared_bytes) {}

  void RunBlock(const vgpu::Dim3& ctaid, vgpu::BlockStats& stats) override {
    KspecNativeBlock blk;
    blk.ctaid_x = ctaid.x;
    blk.ctaid_y = ctaid.y;
    blk.ctaid_z = ctaid.z;
    blk.regs = regs_.data();
    blk.shared = shared_.data();
    blk.shared_bytes = shared_.size();
    blk.stats = &stats;
    blk.wd_accum = &wd_accum_;
    run_(kernel_index_, &launch_, &blk);
  }

 private:
  RunBlockFn run_;
  unsigned kernel_index_;
  const KspecNativeLaunch& launch_;
  std::vector<std::uint64_t> regs_;
  std::vector<unsigned char> shared_;
  std::uint64_t wd_accum_ = 0;
};

}  // namespace

// One exported kernel of a loaded SO.
struct NativeEngine::LoadedKernel {
  unsigned index = 0;              // export index
  bool has_global_atomic = false;  // vgpu::HasGlobalAtomic of its code
};

struct NativeEngine::LoadedModule {
  // Generic TUs are never dlclosed once any kernel ran: they hold
  // thread_local state whose destructors would run after the handle is gone.
  // Shape-variant TUs are emitted without thread_local state precisely so
  // closeable can be true and LRU eviction can really unload them.
  void* handle = nullptr;
  bool closeable = false;
  RunBlockFn run_block = nullptr;
  std::map<std::string, LoadedKernel> kernels;  // by name

  ~LoadedModule() {
    if (handle != nullptr && closeable) ::dlclose(handle);
  }
};

// One artifact: the generic shared object of a module or one shape variant.
struct NativeEngine::Slot {
  enum State {
    kUnknown,   // never probed (or an evicted variant; its disk artifact may remain)
    kMissing,   // probed load-only: nothing servable yet, a build may fix it
    kBuilding,  // one thread (a launch or a promotion task) owns the ladder
    kReady,
    kFailed,    // build failed; sticky for the life of the process
  } state = kUnknown;
  std::shared_ptr<LoadedModule> loaded;
  std::uint64_t heat = 0;       // lookups observed (drives kAuto promotion)
  std::uint64_t last_used = 0;  // LRU tick of the last serve
};

struct NativeEngine::Entry {
  std::mutex mu;  // guards both slots' contents
  std::condition_variable cv;
  Slot generic;
  // Shape variants by shape canonical text, bounded by
  // Options::max_shape_variants. Nodes are never erased (eviction resets
  // them), so a Slot& stays valid across unlocks.
  std::map<std::string, Slot> variants;
};

NativeEngine::NativeEngine() : NativeEngine(Options{}) {}

NativeEngine::NativeEngine(Options opts)
    : opts_(std::move(opts)), scratch_("kspec-native-so") {
  if (!opts_.cache_dir.empty()) disk_.emplace(opts_.cache_dir);
}

NativeEngine::~NativeEngine() {
  // Waits for the promotion already running; queued ones see closing_ and
  // return at once, so teardown never pays for builds nobody will serve.
  closing_ = true;
  shape_builds_.reset();
}

std::string NativeEngine::ArtifactFileName(const kcc::ModuleCacheKey& key) {
  return Format("k%016llx.nso", static_cast<unsigned long long>(key.Hash()));
}

std::string NativeEngine::VariantFileName(const kcc::ModuleCacheKey& key,
                                          const ShapeSpec& shape) {
  return Format("k%016llx_s%016llx.nso", static_cast<unsigned long long>(key.Hash()),
                static_cast<unsigned long long>(shape.Hash()));
}

std::string NativeEngine::GenericKeyText(const kcc::ModuleCacheKey& key) {
  // The module canonical text is length-prefixed binary, so appending a
  // suffix cannot collide with any other module's text.
  return key.CanonicalText() +
         Format("\nrt%016llx", static_cast<unsigned long long>(EmbeddedRuntimeHash()));
}

std::string NativeEngine::VariantKeyText(const kcc::ModuleCacheKey& key,
                                         const ShapeSpec& shape) {
  // No generic artifact embeds a text with this suffix.
  return GenericKeyText(key) + "\n" + shape.CanonicalText();
}

NativeEngineStats NativeEngine::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void NativeEngine::Bump(std::uint64_t NativeEngineStats::*counter) {
  std::lock_guard<std::mutex> lk(mu_);
  ++(stats_.*counter);
}

bool NativeEngine::IsReady(const kcc::ModuleCacheKey& key) const {
  return SlotReady(key, nullptr);
}

bool NativeEngine::IsVariantReady(const kcc::ModuleCacheKey& key, const ShapeSpec& shape) const {
  return SlotReady(key, &shape);
}

bool NativeEngine::SlotReady(const kcc::ModuleCacheKey& key, const ShapeSpec* shape) const {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(key.CanonicalText());
    if (it == entries_.end()) return false;
    entry = it->second;
  }
  std::lock_guard<std::mutex> lk(entry->mu);
  if (shape == nullptr) return entry->generic.state == Slot::kReady;
  auto it = entry->variants.find(shape->CanonicalText());
  return it != entry->variants.end() && it->second.state == Slot::kReady;
}

bool NativeEngine::EnsureReady(const kcc::ModuleCacheKey& key, const kcc::CompiledModule& mod) {
  // Non-owning: only shape variants queue promotions that outlive the call.
  const std::shared_ptr<const kcc::CompiledModule> borrowed(std::shared_ptr<void>(), &mod);
  return LoadOrBuild(key, borrowed, /*shape=*/nullptr, /*may_build=*/true) != nullptr;
}

std::shared_ptr<NativeEngine::LoadedModule> NativeEngine::OpenSharedObject(
    std::span<const std::uint8_t> so_bytes, const std::string& expect_key_text,
    const kcc::CompiledModule& mod, bool closeable, bool* stale) {
  std::string path;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!scratch_.valid()) return nullptr;
    path = scratch_.File(Format("so_%llu.so",
                                static_cast<unsigned long long>(scratch_seq_++)));
  }
  if (!WriteFileAtomic(path, so_bytes)) return nullptr;
  void* handle = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!handle) return nullptr;

  auto abi = reinterpret_cast<AbiVersionFn>(::dlsym(handle, "kspec_native_abi_version"));
  auto build_key = reinterpret_cast<BuildKeyFn>(::dlsym(handle, "kspec_native_build_key"));
  auto build_key_size =
      reinterpret_cast<BuildKeySizeFn>(::dlsym(handle, "kspec_native_build_key_size"));
  auto count = reinterpret_cast<KernelCountFn>(::dlsym(handle, "kspec_native_kernel_count"));
  auto name = reinterpret_cast<KernelNameFn>(::dlsym(handle, "kspec_native_kernel_name"));
  auto run = reinterpret_cast<RunBlockFn>(::dlsym(handle, "kspec_native_run_block"));
  // The embedded key is binary (the canonical text has NULs) — compare by
  // (pointer, size), never strlen.
  if (!abi || !build_key || !build_key_size || !count || !name || !run ||
      abi() != kNativeAbiVersion ||
      expect_key_text !=
          std::string_view(build_key(), static_cast<std::size_t>(build_key_size()))) {
    // Stale or foreign SO (older codegen, bumped ABI). Nothing stateful ran
    // yet, so dlclose is safe here even for a non-closeable module.
    ::dlclose(handle);
    if (stale) *stale = true;
    Bump(&NativeEngineStats::stale_discarded);
    return nullptr;
  }

  auto lm = std::make_shared<LoadedModule>();
  lm->handle = handle;
  lm->closeable = closeable;
  lm->run_block = run;
  const unsigned n = count();
  for (unsigned i = 0; i < n; ++i) {
    // The embedded key matched, so `mod` is the module this SO was built from.
    if (const vgpu::CompiledKernel* k = mod.FindKernel(name(i))) {
      lm->kernels[k->name] = {i, vgpu::HasGlobalAtomic(k->code)};
    }
  }
  return lm;
}

std::shared_ptr<NativeEngine::LoadedModule> NativeEngine::LoadOrBuild(
    const kcc::ModuleCacheKey& key, const std::shared_ptr<const kcc::CompiledModule>& mod,
    const ShapeSpec* shape, bool may_build) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::shared_ptr<Entry>& e = entries_[key.CanonicalText()];
    if (!e) e = std::make_shared<Entry>();
    entry = e;
  }
  const std::string shape_text = shape ? shape->CanonicalText() : std::string();

  // 1. Memory.
  std::unique_lock<std::mutex> lk(entry->mu);
  Slot& slot = shape ? entry->variants[shape_text] : entry->generic;
  ++slot.heat;
  for (;;) {
    switch (slot.state) {
      case Slot::kReady:
        slot.last_used = ++lru_tick_;
        return slot.loaded;
      case Slot::kFailed:
        return nullptr;
      case Slot::kBuilding:
        // Callers that may build wait on the build in flight; the others
        // (kAuto launches) never block.
        if (!may_build) return nullptr;
        entry->cv.wait(lk);
        continue;
      case Slot::kMissing:
        if (may_build) break;
        // The load-only ladder already came up empty. Once a variant is hot,
        // submit its background promotion (a repeat submit coalesces onto the
        // queued or running task); the generic TU serves this launch.
        if (shape && slot.heat >= opts_.shape_hot_threshold && ToolchainAvailable()) {
          lk.unlock();
          std::lock_guard<std::mutex> plk(mu_);
          if (!shape_builds_) {
            shape_builds_ = std::make_unique<serve::CompileExecutor>(
                serve::ExecutorOptions{.workers = 1});
          }
          shape_builds_->SubmitTask(VariantKeyText(key, *shape), [this, key, mod, s = *shape] {
            if (!closing_) LoadOrBuild(key, mod, &s, /*may_build=*/true);
          });
        }
        return nullptr;
      case Slot::kUnknown:
        break;
    }
    break;
  }
  slot.state = Slot::kBuilding;
  lk.unlock();

  std::shared_ptr<LoadedModule> lm;
  try {
    lm = FetchOrBuild(key, *mod, shape, may_build);
  } catch (...) {
    lm = nullptr;
  }

  // Evicted variants are released outside the lock: the shared_ptr dlcloses
  // the SO once the last in-flight launch using it drops its reference.
  std::vector<std::shared_ptr<LoadedModule>> evicted;
  lk.lock();
  if (!lm) {
    // A failed *build* is sticky; a fruitless load-only probe is retriable
    // once somebody may build.
    slot.state = may_build ? Slot::kFailed : Slot::kMissing;
  } else {
    slot.loaded = lm;
    slot.state = Slot::kReady;
    slot.last_used = ++lru_tick_;
    unsigned ready = 0;
    if (shape) {
      for (const auto& [text, vs] : entry->variants) ready += vs.state == Slot::kReady ? 1 : 0;
    }
    while (ready > opts_.max_shape_variants) {
      auto victim = entry->variants.end();
      for (auto it = entry->variants.begin(); it != entry->variants.end(); ++it) {
        if (it->first == shape_text || it->second.state != Slot::kReady) continue;
        if (victim == entry->variants.end() || it->second.last_used < victim->second.last_used) {
          victim = it;
        }
      }
      if (victim == entry->variants.end()) break;  // only the new variant left
      // Back to kUnknown: the disk/store artifact survives eviction, so a
      // future launch re-enters the load ladder instead of rebuilding.
      evicted.push_back(std::move(victim->second.loaded));
      victim->second = Slot{};
      --ready;
    }
  }
  entry->cv.notify_all();
  lk.unlock();
  if (!evicted.empty()) {
    std::lock_guard<std::mutex> slk(mu_);
    stats_.shape_evicted += evicted.size();
  }
  return lm;
}

std::shared_ptr<NativeEngine::LoadedModule> NativeEngine::FetchOrBuild(
    const kcc::ModuleCacheKey& key, const kcc::CompiledModule& mod, const ShapeSpec* shape,
    bool may_build) {
  // The generic artifact is the shape-less case: a variant differs only in
  // file name, embedded key text, closeability, counters and the shape
  // compiled into its TU.
  const std::string key_text = shape ? VariantKeyText(key, *shape) : GenericKeyText(key);
  const std::string file_name = shape ? VariantFileName(key, *shape) : ArtifactFileName(key);
  const bool closeable = shape != nullptr;
  const LadderCounters& n = shape ? kShapeCounters : kGenericCounters;

  std::shared_ptr<LoadedModule> lm;
  bool stale = false;
  const kcc::ArtifactDir::BodyFn open = [&](std::span<const std::uint8_t> body) {
    lm = OpenSharedObject(kcc::DecodeNativeBody(body), key_text, mod, closeable, &stale);
  };

  // 2. Disk.
  if (disk_) {
    switch (disk_->Load(kcc::ArtifactKind::kNative, file_name, key_text, open)) {
      case kcc::LoadResult::kHit:
        if (lm) {
          Bump(n.disk_hits);
          return lm;
        }
        // A stale SO is quarantined so the rebuild replaces it.
        if (stale) disk_->Quarantine(file_name);
        break;
      case kcc::LoadResult::kCorrupt:
        Bump(&NativeEngineStats::corrupt_quarantined);
        break;
      case kcc::LoadResult::kCollision:
        // Another key's artifact: left in place for it, a miss for us.
        Bump(&NativeEngineStats::stale_discarded);
        break;
      case kcc::LoadResult::kMissing:
        break;
    }
  }

  // 3. Shared store, written through to disk on a hit. The store's load
  // already validated the envelope, so it is written as is.
  if (opts_.store) {
    std::vector<std::uint8_t> envelope;
    if (opts_.store->LoadNative(file_name, key_text, open, &envelope) && lm) {
      if (disk_) WriteFileAtomic(disk_->PathFor(file_name), envelope);
      Bump(n.store_hits);
      return lm;
    }
  }

  // 4. Build.
  if (!may_build || !ToolchainAvailable()) return nullptr;
  Bump(n.builds_started);
  std::string error = "the built shared object failed to load";
  const std::vector<std::uint8_t> so_bytes =
      CompileSharedObject(EmitModuleSource(mod, key_text, shape), &error);
  if (!so_bytes.empty()) lm = OpenSharedObject(so_bytes, key_text, mod, closeable, nullptr);
  if (!lm) {
    KSPEC_LOG_WARN << "native tier: build failed for " << key.Describe()
                   << (shape ? " at shape " + shape->CanonicalText() : std::string()) << ": "
                   << error;
    Bump(n.build_failures);
    return nullptr;
  }
  Bump(n.builds_completed);
  const std::vector<std::uint8_t> envelope = kcc::SerializeNative(so_bytes, key_text);
  if (disk_) disk_->Publish(kcc::ArtifactKind::kNative, file_name, key_text, envelope);
  if (opts_.store) opts_.store->PublishNative(file_name, key_text, envelope);
  return lm;
}

void NativeEngine::DrainShapeBuilds() {
  serve::CompileExecutor* builds;
  {
    std::lock_guard<std::mutex> lk(mu_);
    builds = shape_builds_.get();
  }
  if (builds) builds->Drain();
}

bool NativeEngine::TryLaunch(vcuda::Context& ctx, const vcuda::NativeLaunchRequest& req,
                             vgpu::LaunchStats* out) {
  if (req.served_shape != nullptr) *req.served_shape = false;
  if (req.key == nullptr || req.module == nullptr || req.kernel == nullptr ||
      req.cfg == nullptr || out == nullptr) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.fallbacks;
    return false;
  }

  // The generic artifact resolves first and stays resident: it is the
  // always-available fallback the variant ladder sits on, and the build/hit
  // counters it feeds keep their exact meanings whether or not a variant
  // ends up serving. Only once the generic tier can serve this key at all do
  // we look for a shape-specialized variant on top. Variants assume the
  // 32-lane warp layout their codegen bakes in, so any other warp size stays
  // on the generic path.
  std::shared_ptr<LoadedModule> lm =
      LoadOrBuild(*req.key, req.module, /*shape=*/nullptr, /*may_build=*/req.require);
  bool shape_served = false;
  if (lm != nullptr) {
    const vgpu::ShapeMode mode = vgpu::ResolveShapeMode(opts_.shape_mode);
    if (mode != vgpu::ShapeMode::kOff && ctx.device().warp_size == 32) {
      const ShapeSpec shape = ShapeSpec::FromConfig(*req.cfg);
      std::shared_ptr<LoadedModule> variant =
          LoadOrBuild(*req.key, req.module, &shape,
                      /*may_build=*/mode == vgpu::ShapeMode::kEager);
      if (variant != nullptr) {
        lm = std::move(variant);
        shape_served = true;
      }
    }
  }
  if (!lm) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.fallbacks;
    return false;
  }
  auto it = lm->kernels.find(req.kernel->name);
  if (it == lm->kernels.end()) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.fallbacks;
    return false;
  }
  *out = RunNative(ctx, *lm, it->second, req);
  if (shape_served && req.served_shape != nullptr) *req.served_shape = true;
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.served_launches;
  if (shape_served) {
    ++stats_.shape_served_launches;
    ++stats_.shape_memory_hits;
  } else {
    ++stats_.memory_hits;
  }
  return true;
}

vgpu::LaunchStats NativeEngine::RunNative(vcuda::Context& ctx, const LoadedModule& lm,
                                          const LoadedKernel& kernel,
                                          const vcuda::NativeLaunchRequest& req) {
  const vgpu::CompiledKernel& k = *req.kernel;
  const vgpu::LaunchConfig& cfg = *req.cfg;
  const vgpu::DeviceProfile& dev = ctx.device();

  // The shared launch shell — the same validation, spill clamping, policy
  // resolution, block layout and chunk driver the interpreter runs.
  vgpu::LaunchShell shell = vgpu::PrepareLaunch(dev, cfg, k.stats.reg_count, k.static_smem_bytes,
                                                kernel.has_global_atomic);
  KSPEC_CHECK_MSG(cfg.args.size() == k.params.size(), "argument count mismatch");

  const std::size_t shared_bytes =
      static_cast<std::size_t>(k.static_smem_bytes) + cfg.dynamic_smem_bytes;
  vgpu::FaultSite site{&k.code, shared_bytes, req.const_mem.size()};

  KspecNativeLaunch L;
  L.dev = shell.consts;
  L.grid_x = cfg.grid.x;
  L.grid_y = cfg.grid.y;
  L.grid_z = cfg.grid.z;
  L.block_x = cfg.block.x;
  L.block_y = cfg.block.y;
  L.block_z = cfg.block.z;
  L.args = cfg.args.data();
  L.nargs = cfg.args.size();
  L.cmem = req.const_mem.data();
  L.cmem_bytes = req.const_mem.size();
  L.textures = cfg.textures.data();
  L.ntextures = cfg.textures.size();
  L.tid_x = shell.layout.tid_x.data();
  L.tid_y = shell.layout.tid_y.data();
  L.tid_z = shell.layout.tid_z.data();
  L.cb.gmem = &ctx.memory();
  L.cb.try_access = &TryAccessCb;
  L.cb.access = &AccessCb;
  L.cb.fail_ctx = &site;
  L.cb.fail = &vgpu::RaiseFault;

  const std::size_t regs = static_cast<std::size_t>(k.num_vregs) * shell.layout.stride;
  return vgpu::ExecuteLaunch(dev, shell, cfg.grid, [&] {
    return std::make_unique<NativeRunner>(lm.run_block, kernel.index, L, regs, shared_bytes);
  });
}

}  // namespace kspec::native
