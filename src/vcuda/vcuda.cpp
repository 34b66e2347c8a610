#include "vcuda/vcuda.hpp"

#include <filesystem>

#include "kcc/artifact_dir.hpp"
#include "support/log.hpp"
#include "support/status.hpp"
#include "support/str.hpp"

namespace kspec::vcuda {

Module::Module(std::shared_ptr<const kcc::CompiledModule> compiled,
               std::shared_ptr<const kcc::ModuleCacheKey> key)
    : compiled_(std::move(compiled)), key_(std::move(key)) {
  const_mem_.assign(compiled_->const_bytes, 0);
  textures_.resize(compiled_->textures.size());
}

void Module::BindTexture(const std::string& name, DevPtr base, int w, int h) {
  for (std::size_t i = 0; i < compiled_->textures.size(); ++i) {
    if (compiled_->textures[i] == name) {
      if (w <= 0 || h <= 0) throw DeviceError("texture dimensions must be positive");
      textures_[i] = {base, w, h};
      return;
    }
  }
  throw DeviceError("module has no __texture named '" + name + "'");
}

const vgpu::CompiledKernel& Module::GetKernel(const std::string& name) const {
  const vgpu::CompiledKernel* k = compiled_->FindKernel(name);
  if (!k) throw DeviceError("module has no kernel named '" + name + "'");
  return *k;
}

bool Module::HasKernel(const std::string& name) const {
  return compiled_->FindKernel(name) != nullptr;
}

std::shared_ptr<const vgpu::DecodedKernel> Module::Decoded(
    const vgpu::CompiledKernel& kernel, const vgpu::DeviceProfile& dev) const {
  // Issue costs are device dependent, so the cache key carries the device
  // name alongside the kernel (one module may serve several contexts).
  const std::string key = dev.name + "/" + kernel.name;
  std::lock_guard<std::mutex> lk(decoded_mutex_);
  auto it = decoded_.find(key);
  if (it != decoded_.end()) return it->second;
  auto dk = vgpu::DecodeKernel(kernel, dev);
  decoded_.emplace(key, dk);
  return dk;
}

void Module::SetConstant(const std::string& name, const void* data, std::size_t bytes) {
  const kcc::ConstantInfo* c = compiled_->FindConstant(name);
  if (!c) throw DeviceError("module has no __constant named '" + name + "'");
  if (bytes > c->bytes) {
    throw DeviceError(Format("constant '%s' holds %u bytes; %zu provided", name.c_str(),
                             c->bytes, bytes));
  }
  std::memcpy(const_mem_.data() + c->offset, data, bytes);
}

ArgPack& ArgPack::Int(std::int32_t v) {
  values_.push_back(vgpu::EncodeI32(v));
  types_.push_back(vgpu::Type::kI32);
  return *this;
}
ArgPack& ArgPack::Uint(std::uint32_t v) {
  values_.push_back(v);
  types_.push_back(vgpu::Type::kU32);
  return *this;
}
ArgPack& ArgPack::Long(std::int64_t v) {
  values_.push_back(static_cast<std::uint64_t>(v));
  types_.push_back(vgpu::Type::kI64);
  return *this;
}
ArgPack& ArgPack::Ulong(std::uint64_t v) {
  values_.push_back(v);
  types_.push_back(vgpu::Type::kU64);
  return *this;
}
ArgPack& ArgPack::Float(float v) {
  values_.push_back(vgpu::EncodeF32(v));
  types_.push_back(vgpu::Type::kF32);
  return *this;
}
ArgPack& ArgPack::Double(double v) {
  values_.push_back(vgpu::EncodeF64(v));
  types_.push_back(vgpu::Type::kF64);
  return *this;
}
ArgPack& ArgPack::Ptr(DevPtr p) {
  values_.push_back(p);
  types_.push_back(vgpu::Type::kU64);
  return *this;
}

Context::Context(vgpu::DeviceProfile profile, std::uint64_t heap_bytes)
    : device_(std::move(profile)), memory_(heap_bytes) {}

void Context::set_cache_dir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_dir_ = dir;
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      KSPEC_LOG_WARN << "specialization cache: cannot create cache_dir '" << dir
                     << "': " << ec.message() << " — persistence disabled";
      cache_dir_.clear();
    }
  }
}

void Context::set_cache_byte_budget(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_.set_byte_budget(bytes);
}

CacheStats Context::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  CacheStats stats = cache_stats_;
  stats.evictions = cache_.evictions();
  stats.collisions_detected = cache_.collisions_detected();
  stats.bytes_cached = cache_.bytes_cached();
  return stats;
}

std::shared_ptr<Module> Context::LoadModule(const std::string& source,
                                            const kcc::CompileOptions& opts) {
  auto key = std::make_shared<const kcc::ModuleCacheKey>(
      kcc::ModuleCacheKey::Make(source, opts, device_.name));
  const std::uint64_t hash = key->Hash();

  std::string dir;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (auto cached = cache_.Get(hash, *key)) {
      ++cache_stats_.hits;
      KSPEC_LOG_DEBUG << "module cache hit (" << key->Describe() << ")";
      return std::make_shared<Module>(std::move(cached), std::move(key));
    }
    dir = cache_dir_;
  }

  // Disk tier (outside the lock: file I/O + deserialization). A corrupt
  // artifact is quarantined and a colliding one left in place; both recompile.
  const kcc::ArtifactDir disk(dir);
  if (!dir.empty()) {
    std::shared_ptr<const kcc::CompiledModule> from_disk;
    const kcc::LoadResult r =
        disk.Load(kcc::ArtifactKind::kModule, key->FileName(), key->CanonicalText(),
                  [&](std::span<const std::uint8_t> body) {
                    from_disk = std::make_shared<const kcc::CompiledModule>(
                        kcc::DecodeModuleBody(body));
                  });
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (r == kcc::LoadResult::kCollision) ++cache_stats_.collisions_detected;
    if (from_disk) {
      ++cache_stats_.disk_hits;
      KSPEC_LOG_DEBUG << "module disk cache hit (" << key->Describe() << ")";
      return std::make_shared<Module>(cache_.Put(hash, *key, std::move(from_disk)),
                                      std::move(key));
    }
  }

  // Compile outside the lock so independent specializations build in
  // parallel; a lost race is resolved by Put reusing the winner's module.
  auto compiled = std::make_shared<const kcc::CompiledModule>(kcc::CompileModule(source, opts));
  if (!dir.empty()) {
    disk.Publish(kcc::ArtifactKind::kModule, key->FileName(), key->CanonicalText(),
                 kcc::Serialize(*compiled, key->CanonicalText()));
  }
  KSPEC_LOG_DEBUG << "compiled module (" << key->Describe() << ") in "
                  << compiled->compile_millis << " ms";

  std::lock_guard<std::mutex> lock(cache_mutex_);
  ++cache_stats_.misses;
  cache_stats_.compile_millis_total += compiled->compile_millis;
  return std::make_shared<Module>(cache_.Put(hash, *key, std::move(compiled)), std::move(key));
}

std::shared_ptr<Module> Context::AdoptCompiledModule(
    const kcc::ModuleCacheKey& key, std::shared_ptr<const kcc::CompiledModule> compiled) {
  KSPEC_CHECK(compiled != nullptr);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  ++cache_stats_.adopted;
  return std::make_shared<Module>(cache_.Put(key.Hash(), key, std::move(compiled)),
                                  std::make_shared<const kcc::ModuleCacheKey>(key));
}

bool Context::HasCachedModule(const std::string& source, const kcc::CompileOptions& opts) const {
  kcc::ModuleCacheKey key = kcc::ModuleCacheKey::Make(source, opts, device_.name);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.Contains(key.Hash(), key);
}

SubmitResult Context::LoadModuleAsync(const std::string& source,
                                      const kcc::CompileOptions& opts,
                                      std::chrono::milliseconds deadline) {
  CompileRequest req;
  req.source = source;
  req.opts = opts;
  if (deadline.count() > 0) req.deadline = std::chrono::steady_clock::now() + deadline;
  if (AsyncCompileService* svc = async_service_.load()) {
    return svc->SubmitLoad(*this, req);
  }
  // No service attached: compile inline, but still deliver the result (or the
  // compile error) through the future so callers handle one channel.
  std::promise<std::shared_ptr<Module>> promise;
  SubmitResult result;
  result.status = SubmitStatus::kInline;
  result.future = promise.get_future().share();
  try {
    promise.set_value(LoadModule(source, opts));
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
  return result;
}

TierStats Context::tier_stats() const {
  TierStats s;
  s.launches_interp = tier_interp_.load();
  s.launches_decoded = tier_decoded_.load();
  s.launches_native = tier_native_.load();
  s.launches_native_shape = tier_native_shape_.load();
  s.native_fallbacks = tier_fallbacks_.load();
  return s;
}

vgpu::LaunchStats Context::Launch(const Module& module, const std::string& kernel,
                                  vgpu::Dim3 grid, vgpu::Dim3 block, const ArgPack& args,
                                  unsigned dynamic_smem_bytes, LaunchExecution* exec) {
  const vgpu::CompiledKernel& k = module.GetKernel(kernel);
  if (args.values().size() != k.params.size()) {
    throw DeviceError(Format("kernel %s takes %zu arguments; %zu supplied", kernel.c_str(),
                             k.params.size(), args.values().size()));
  }
  for (std::size_t i = 0; i < k.params.size(); ++i) {
    vgpu::Type want = k.params[i].type;
    vgpu::Type got = args.types()[i];
    bool ok = want == got ||
              // signed/unsigned of the same width are interchangeable slots
              (vgpu::TypeSize(want) == vgpu::TypeSize(got) && vgpu::IsIntType(want) &&
               vgpu::IsIntType(got));
    if (!ok) {
      throw DeviceError(Format("kernel %s argument %zu ('%s') expects %s, got %s",
                               kernel.c_str(), i, k.params[i].name.c_str(),
                               vgpu::TypeName(want), vgpu::TypeName(got)));
    }
  }
  vgpu::LaunchConfig cfg;
  cfg.grid = grid;
  cfg.block = block;
  cfg.dynamic_smem_bytes = dynamic_smem_bytes;
  cfg.args = args.values();
  cfg.textures = module.texture_bindings();
  cfg.exec = exec_policy_;

  // Resolve the execution tier: test override > VGPU_TIER > per-launch
  // request > context policy. kAuto means "decoded now, native when ready".
  const vgpu::ExecutionTier tier = vgpu::ResolveTier(
      exec ? exec->request : vgpu::ExecutionTier::kAuto, tier_policy_);
  NativeExecutionService* native = native_service_.load();
  const bool want_native =
      tier == vgpu::ExecutionTier::kNative ||
      (tier == vgpu::ExecutionTier::kAuto && native != nullptr);

  vgpu::LaunchStats stats;
  vgpu::ExecutionTier served = vgpu::ExecutionTier::kDecoded;
  bool ran = false;
  bool served_shape = false;
  if (want_native && native != nullptr && module.cache_key() != nullptr) {
    NativeLaunchRequest req;
    req.key = module.cache_key().get();
    req.module = module.compiled_ptr();
    req.kernel = &k;
    req.cfg = &cfg;
    req.const_mem = module.const_mem();
    req.require = tier == vgpu::ExecutionTier::kNative;
    req.served_shape = &served_shape;
    if (native->TryLaunch(*this, req, &stats)) {
      served = vgpu::ExecutionTier::kNative;
      ran = true;
    }
  }
  if (!ran) {
    vgpu::Interpreter interp(device_, &memory_);
    if (tier == vgpu::ExecutionTier::kInterp) {
      // Decode-per-launch reference tier.
      stats = interp.Launch(k, cfg, module.const_mem());
      served = vgpu::ExecutionTier::kInterp;
    } else {
      stats = interp.Launch(*module.Decoded(k, device_), cfg, module.const_mem());
      served = vgpu::ExecutionTier::kDecoded;
    }
  }

  const bool fallback =
      tier == vgpu::ExecutionTier::kNative && served != vgpu::ExecutionTier::kNative;
  switch (served) {
    case vgpu::ExecutionTier::kInterp: ++tier_interp_; break;
    case vgpu::ExecutionTier::kNative:
      ++tier_native_;
      if (served_shape) ++tier_native_shape_;
      break;
    default: ++tier_decoded_; break;
  }
  if (fallback) ++tier_fallbacks_;
  if (exec) {
    exec->served = served;
    exec->native_fallback = fallback;
    exec->native_shape = served == vgpu::ExecutionTier::kNative && served_shape;
  }
  total_sim_millis_ += stats.sim_millis;
  return stats;
}

}  // namespace kspec::vcuda
