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
#include "vgpu/exec_pool.hpp"
#include "vgpu/isa.hpp"
#include "vgpu/tier.hpp"

namespace kspec::native {
namespace {

using vgpu::Opcode;
using vgpu::Space;

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

bool IsGlobalAtomic(const vgpu::Instr& i) {
  switch (i.op) {
    case Opcode::kAtomAdd:
    case Opcode::kAtomMin:
    case Opcode::kAtomMax:
    case Opcode::kAtomExch:
    case Opcode::kAtomCas:
      return i.space == Space::kGlobal;
    default:
      return false;
  }
}

// ---- launch callbacks (the SO's only way back into the host) ----

const unsigned char* TryAccessCb(void* gmem, std::uint64_t addr, std::uint64_t len) {
  return static_cast<const vgpu::GlobalMemory*>(gmem)->TryAccess(addr, len);
}

unsigned char* AccessCb(void* gmem, std::uint64_t addr, std::uint64_t len) {
  return static_cast<vgpu::GlobalMemory*>(gmem)->Access(addr, len);
}

// Context for formatting the interpreter's exact error text host-side: the
// SO reports (code, a, b); the host owns the kernel and launch geometry.
struct FailCtx {
  const vgpu::CompiledKernel* kernel = nullptr;
  std::size_t shared_size = 0;
  std::size_t const_size = 0;
};

[[noreturn]] void FailCb(void* ctx, int code, std::uint64_t a, std::uint64_t b) {
  const FailCtx& fc = *static_cast<const FailCtx*>(ctx);
  switch (static_cast<KspecNativeFail>(code)) {
    case kFailSharedOob:
      throw DeviceError(Format("shared-memory access out of bounds: 0x%llx (+%zu) of %zu bytes",
                               static_cast<unsigned long long>(a),
                               static_cast<std::size_t>(b), fc.shared_size));
    case kFailConstOob:
      throw DeviceError(Format("constant-memory access out of bounds: 0x%llx of %zu bytes",
                               static_cast<unsigned long long>(a), fc.const_size));
    case kFailConstStore:
      throw DeviceError("store to constant memory");
    case kFailBadSpace:
      throw DeviceError("unsupported memory space in ld/st");
    case kFailMisalignedAtomic:
      throw DeviceError(Format("misaligned %zu-byte atomic at 0x%llx",
                               static_cast<std::size_t>(a),
                               static_cast<unsigned long long>(b)));
    case kFailTexUnbound:
      throw DeviceError(Format("texture slot %d is not bound at launch",
                               static_cast<int>(static_cast<std::int64_t>(a))));
    case kFailTexInvalid:
      throw DeviceError(Format("texture slot %d has an invalid binding",
                               static_cast<int>(static_cast<std::int64_t>(a))));
    case kFailDivergentBarrier:
      throw DeviceError("__syncthreads() executed in divergent control flow");
    case kFailWatchdog:
      throw DeviceError(
          "kernel exceeded the simulator watchdog limit (likely a non-terminating loop); raise "
          "DeviceProfile::watchdog_warp_instrs if the workload is legitimately huge");
    case kFailBarrierDeadlock:
      throw DeviceError("__syncthreads deadlock: a warp retired or diverged past the barrier");
    case kFailNoProgress:
      throw DeviceError("block made no progress (scheduler deadlock)");
    case kFailBadOp: {
      // a = pc of the invalid (opcode, type) pair; mirror BlockRunner::BadOp.
      const vgpu::Instr& i = fc.kernel->code[static_cast<std::size_t>(a)];
      if (i.type == vgpu::Type::kF32) {
        throw InternalError(Format("op %s invalid for f32", vgpu::OpcodeName(i.op)));
      }
      if (i.type == vgpu::Type::kF64) {
        throw InternalError(Format("op %s invalid for f64", vgpu::OpcodeName(i.op)));
      }
      throw InternalError(Format("unhandled opcode %s for type %s", vgpu::OpcodeName(i.op),
                                 vgpu::TypeName(i.type)));
    }
    case kFailBadDispatch:
      throw InternalError(Format("native tier: branch to non-leader pc %llu",
                                 static_cast<unsigned long long>(a)));
    case kFailBadAtomic:
      throw InternalError("bad atomic opcode");
    case kFailNoReconv:
      throw InternalError("divergent branch without reconvergence point");
  }
  throw InternalError(Format("native tier: unknown failure code %d", code));
}

}  // namespace

struct NativeEngine::LoadedModule {
  // Generic TUs are never dlclosed once any kernel ran: they hold
  // thread_local state whose destructors would run after the handle is gone.
  // Shape-variant TUs are emitted without thread_local state precisely so
  // closeable can be true and LRU eviction can really unload them.
  void* handle = nullptr;
  bool closeable = false;
  RunBlockFn run_block = nullptr;
  std::map<std::string, unsigned> kernels;  // name -> export index

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

std::string NativeEngine::VariantKeyText(const kcc::ModuleCacheKey& key,
                                         const ShapeSpec& shape) {
  // The module canonical text is length-prefixed binary, so appending a
  // suffix cannot collide with any other module's bare text — and no generic
  // artifact ever embeds a text with this suffix.
  return key.CanonicalText() + "\n" + shape.CanonicalText();
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
    std::span<const std::uint8_t> so_bytes, const std::string& expect_key_text, bool closeable,
    bool* stale) {
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
  for (unsigned i = 0; i < n; ++i) lm->kernels[name(i)] = i;
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
        if (shape && mod && slot.heat >= opts_.shape_hot_threshold && ToolchainAvailable()) {
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
    lm = FetchOrBuild(key, mod.get(), shape, may_build);
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
    const kcc::ModuleCacheKey& key, const kcc::CompiledModule* mod, const ShapeSpec* shape,
    bool may_build) {
  // The generic artifact is the shape-less case: a variant differs only in
  // file name, embedded key text, closeability, counters and the shape
  // compiled into its TU.
  const std::string key_text = shape ? VariantKeyText(key, *shape) : key.CanonicalText();
  const std::string file_name = shape ? VariantFileName(key, *shape) : ArtifactFileName(key);
  const bool closeable = shape != nullptr;
  const LadderCounters& n = shape ? kShapeCounters : kGenericCounters;

  std::shared_ptr<LoadedModule> lm;
  bool stale = false;
  const kcc::ArtifactDir::BodyFn open = [&](std::span<const std::uint8_t> body) {
    lm = OpenSharedObject(kcc::DecodeNativeBody(body), key_text, closeable, &stale);
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
  if (!may_build || mod == nullptr || !ToolchainAvailable()) return nullptr;
  Bump(n.builds_started);
  std::string error = "the built shared object failed to load";
  const std::vector<std::uint8_t> so_bytes =
      CompileSharedObject(EmitModuleSource(*mod, key_text, shape), &error);
  if (!so_bytes.empty()) lm = OpenSharedObject(so_bytes, key_text, closeable, nullptr);
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
  if (req.key == nullptr || req.kernel == nullptr || req.cfg == nullptr || out == nullptr) {
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
                      /*may_build=*/mode == vgpu::ShapeMode::kEager && req.module != nullptr);
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
                                          unsigned kernel_index,
                                          const vcuda::NativeLaunchRequest& req) {
  const vgpu::CompiledKernel& k = *req.kernel;
  const vgpu::LaunchConfig& cfg = *req.cfg;
  const vgpu::DeviceProfile& dev = ctx.device();

  bool has_global_atomic = false;
  for (const vgpu::Instr& i : k.code) {
    if (IsGlobalAtomic(i)) {
      has_global_atomic = true;
      break;
    }
  }

  // The shared launch shell — the same validation, spill clamping, policy
  // resolution, and chunk plan the interpreter runs (vgpu/tier.hpp).
  vgpu::LaunchShell shell =
      vgpu::PrepareLaunch(dev, cfg, k.stats.reg_count, k.static_smem_bytes, has_global_atomic);
  KSPEC_CHECK_MSG(cfg.args.size() == k.params.size(), "argument count mismatch");

  const unsigned nthreads = static_cast<unsigned>(cfg.block.Count());
  const unsigned nwarps = CeilDiv(nthreads, dev.warp_size);
  const unsigned stride = nwarps * dev.warp_size;

  // Per-lane thread coordinates, the interpreter's exact formula (padding
  // lanes clamp to the last thread).
  std::vector<std::uint32_t> tid_x(stride), tid_y(stride), tid_z(stride);
  for (unsigned t = 0; t < stride; ++t) {
    const unsigned lin = std::min(t, nthreads - 1);
    tid_x[t] = lin % cfg.block.x;
    tid_y[t] = (lin / cfg.block.x) % cfg.block.y;
    tid_z[t] = lin / (cfg.block.x * cfg.block.y);
  }

  std::vector<KspecNativeTexture> textures(cfg.textures.size());
  for (std::size_t i = 0; i < cfg.textures.size(); ++i) {
    textures[i].base = cfg.textures[i].base;
    textures[i].w = cfg.textures[i].w;
    textures[i].h = cfg.textures[i].h;
  }

  const std::size_t shared_bytes =
      static_cast<std::size_t>(k.static_smem_bytes) + cfg.dynamic_smem_bytes;
  FailCtx fctx;
  fctx.kernel = &k;
  fctx.shared_size = shared_bytes;
  fctx.const_size = req.const_mem.size();

  KspecNativeLaunch L;
  L.is_fermi = dev.IsFermi() ? 1 : 0;
  L.warp_size = dev.warp_size;
  L.shared_mem_banks = dev.shared_mem_banks;
  L.cycles_per_global_tx = dev.cycles_per_global_tx;
  L.shared_access_cost = dev.shared_access_cost;
  L.watchdog_warp_instrs = dev.watchdog_warp_instrs;
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
  L.textures = textures.data();
  L.ntextures = textures.size();
  L.tid_x = tid_x.data();
  L.tid_y = tid_y.data();
  L.tid_z = tid_z.data();
  L.cb.gmem = &ctx.memory();
  L.cb.try_access = &TryAccessCb;
  L.cb.access = &AccessCb;
  L.cb.fail_ctx = &fctx;
  L.cb.fail = &FailCb;

  // The per-worker execution state the SO borrows for each block. Mirrors
  // BlockRunner: the register file and shared array are reused across blocks
  // and chunks, the watchdog accumulator spans the runner's lifetime.
  struct Runner {
    std::vector<std::uint64_t> regs;
    std::vector<unsigned char> shared;
    std::uint64_t wd_accum = 0;
  };
  auto make_runner = [&] {
    auto r = std::make_unique<Runner>();
    r->regs.resize(static_cast<std::size_t>(k.num_vregs) * stride);
    r->shared.resize(shared_bytes);
    return r;
  };

  std::vector<vgpu::BlockStats> parts(shell.nparts);
  auto run_chunk = [&](Runner& r, std::size_t ci) {
    KspecNativeStats ns;  // zero-initialized; the SO only accumulates
    const std::uint64_t b0 = static_cast<std::uint64_t>(ci) * shell.chunk;
    const std::uint64_t b1 = std::min<std::uint64_t>(shell.nblocks, b0 + shell.chunk);
    for (std::uint64_t b = b0; b < b1; ++b) {
      const vgpu::Dim3 cta = vgpu::LinearToCta(cfg.grid, b);
      KspecNativeBlock blk;
      blk.ctaid_x = cta.x;
      blk.ctaid_y = cta.y;
      blk.ctaid_z = cta.z;
      blk.regs = r.regs.data();
      blk.shared = r.shared.data();
      blk.shared_bytes = shared_bytes;
      blk.stats = &ns;
      blk.wd_accum = &r.wd_accum;
      lm.run_block(kernel_index, &L, &blk);
    }
    vgpu::BlockStats& p = parts[ci];
    p.warp_instrs = ns.warp_instrs;
    p.lane_instrs = ns.lane_instrs;
    p.global_instrs = ns.global_instrs;
    p.mem_transactions = ns.mem_transactions;
    p.texture_fetches = ns.texture_fetches;
    p.shared_conflict_cycles = ns.shared_conflict_cycles;
    p.barriers = ns.barriers;
    p.issue_cycles = ns.issue_cycles;
    p.memory_cycles = ns.memory_cycles;
    p.ilp_sum = ns.ilp_sum;
  };

  if (!shell.parallel) {
    std::unique_ptr<Runner> runner = make_runner();
    for (std::size_t ci = 0; ci < shell.nparts; ++ci) run_chunk(*runner, ci);
  } else {
    std::mutex mu;
    std::vector<std::unique_ptr<Runner>> idle;
    std::function<void(std::size_t)> fn = [&](std::size_t ci) {
      std::unique_ptr<Runner> runner;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (!idle.empty()) {
          runner = std::move(idle.back());
          idle.pop_back();
        }
      }
      if (!runner) runner = make_runner();
      run_chunk(*runner, ci);
      std::lock_guard<std::mutex> lk(mu);
      idle.push_back(std::move(runner));
    };
    vgpu::ExecPool::Instance().ParallelFor(shell.workers, shell.nparts, fn);
  }

  vgpu::FinalizeLaunchStats(dev, shell, parts);
  return shell.stats;
}

}  // namespace kspec::native
