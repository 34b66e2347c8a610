// vcuda: a CUDA-driver-API-shaped layer over kcc + vgpu.
//
// Mirrors the machinery the dissertation's GPU-PF framework drives
// (Section 4.4): contexts own a device and its memory; modules are compiled
// *at run time* from Kernel-C source plus -D definitions (the kernel
// specialization step); compiled binaries are cached so that re-encountering
// a parameter set loads "with speed similar to loading a dynamically linked
// shared object" (Section 4.3); launches return the simulated execution
// statistics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "kcc/cache_key.hpp"
#include "kcc/compiler.hpp"
#include "vcuda/async.hpp"
#include "vcuda/module_cache.hpp"
#include "vcuda/native_hook.hpp"
#include "vgpu/device.hpp"
#include "vgpu/interp.hpp"
#include "vgpu/memory.hpp"
#include "vgpu/tier.hpp"

namespace kspec::vcuda {

using vgpu::DevPtr;

class Context;

// A loaded module: immutable compiled code (possibly shared through the
// specialization cache) plus this instance's own constant-memory segment.
class Module {
 public:
  // `key` is the specialization identity the module was compiled/served
  // under; Modules created through Context::LoadModule / AdoptCompiledModule
  // always carry one. A keyless Module (direct construction) still runs on
  // the interp/decoded tiers — only the content-addressed native tier needs
  // the key and degrades to decoded without it.
  explicit Module(std::shared_ptr<const kcc::CompiledModule> compiled,
                  std::shared_ptr<const kcc::ModuleCacheKey> key = nullptr);

  const kcc::CompiledModule& compiled() const { return *compiled_; }
  // Identity of the underlying compiled binary: two Modules served from the
  // same cache entry (or the same tiered promotion) share one pointer.
  const std::shared_ptr<const kcc::CompiledModule>& compiled_ptr() const { return compiled_; }

  // The specialization cache key the module was loaded under, or nullptr for
  // a keyless Module (see the constructor comment).
  const std::shared_ptr<const kcc::ModuleCacheKey>& cache_key() const { return key_; }

  // Returns the kernel or throws DeviceError if absent.
  const vgpu::CompiledKernel& GetKernel(const std::string& name) const;
  bool HasKernel(const std::string& name) const;

  // Copies `bytes` of host data into the constant array `name`.
  void SetConstant(const std::string& name, const void* data, std::size_t bytes);

  // Binds the named __texture to linear device memory holding w x h floats
  // (cudaBindTexture2D-style). Bindings persist until rebound.
  void BindTexture(const std::string& name, DevPtr base, int w, int h = 1);

  std::span<const unsigned char> const_mem() const { return const_mem_; }
  const std::vector<vgpu::TextureBinding>& texture_bindings() const { return textures_; }

  // Returns the kernel pre-decoded for `dev` (handler table + issue costs),
  // decoding at most once per (device, kernel) over the module's lifetime.
  // Thread-safe; Context::Launch goes through this so repeated launches skip
  // the per-launch decode entirely.
  std::shared_ptr<const vgpu::DecodedKernel> Decoded(const vgpu::CompiledKernel& kernel,
                                                     const vgpu::DeviceProfile& dev) const;

 private:
  std::shared_ptr<const kcc::CompiledModule> compiled_;
  std::shared_ptr<const kcc::ModuleCacheKey> key_;
  std::vector<unsigned char> const_mem_;
  std::vector<vgpu::TextureBinding> textures_;
  mutable std::mutex decoded_mutex_;
  mutable std::map<std::string, std::shared_ptr<const vgpu::DecodedKernel>> decoded_;
};

// Typed argument pack checked against the kernel's parameter list at launch.
class ArgPack {
 public:
  ArgPack& Int(std::int32_t v);
  ArgPack& Uint(std::uint32_t v);
  ArgPack& Long(std::int64_t v);
  ArgPack& Ulong(std::uint64_t v);
  ArgPack& Float(float v);
  ArgPack& Double(double v);
  ArgPack& Ptr(DevPtr p);

  const std::vector<std::uint64_t>& values() const { return values_; }
  const std::vector<vgpu::Type>& types() const { return types_; }

 private:
  std::vector<std::uint64_t> values_;
  std::vector<vgpu::Type> types_;
};

// Per-tier launch accounting: which execution tier actually served each
// Launch from this context, and how often a native request degraded.
struct TierStats {
  std::size_t launches_interp = 0;
  std::size_t launches_decoded = 0;
  std::size_t launches_native = 0;
  // Of launches_native, how many were served by a shape-specialized variant
  // rather than the module's generic artifact.
  std::size_t launches_native_shape = 0;
  // Launches where the native tier was requested (forced, or picked by kAuto
  // with a service attached) but the decoded tier had to serve instead.
  std::size_t native_fallbacks = 0;
};

// Optional in/out channel for a single Launch: callers that care which tier
// runs (StageRunner, tests, kccc) pass one; everyone else keeps the old
// signature. `request` feeds the precedence chain in vgpu::ResolveTier.
struct LaunchExecution {
  vgpu::ExecutionTier request = vgpu::ExecutionTier::kAuto;  // in
  vgpu::ExecutionTier served = vgpu::ExecutionTier::kDecoded;  // out
  bool native_fallback = false;  // out: native wanted, decoded served
  bool native_shape = false;     // out: served by a shape-specialized variant
};

struct CacheStats {
  std::size_t hits = 0;        // served from the in-memory cache
  std::size_t misses = 0;      // compiled from source (== compile count)
  std::size_t disk_hits = 0;   // deserialized from cache_dir, no compile
  std::size_t adopted = 0;     // installed pre-compiled (daemon/store fetch)
  std::size_t evictions = 0;   // entries dropped by the LRU byte budget
  std::size_t collisions_detected = 0;  // hash matches with unequal full keys
  std::size_t bytes_cached = 0;         // approximate in-memory footprint
  double compile_millis_total = 0;
};

class Context {
 public:
  explicit Context(vgpu::DeviceProfile profile,
                   std::uint64_t heap_bytes = 1ull << 30);

  const vgpu::DeviceProfile& device() const { return device_; }
  vgpu::GlobalMemory& memory() { return memory_; }

  // -------- memory --------
  DevPtr Malloc(std::uint64_t bytes) { return memory_.Alloc(bytes); }
  void Free(DevPtr p) { memory_.Free(p); }
  void MemcpyHtoD(DevPtr dst, const void* src, std::uint64_t bytes) {
    memory_.Write(dst, src, bytes);
  }
  void MemcpyDtoH(void* dst, DevPtr src, std::uint64_t bytes) const {
    memory_.Read(dst, src, bytes);
  }
  void Memset(DevPtr dst, unsigned char v, std::uint64_t bytes) {
    memory_.Memset(dst, v, bytes);
  }

  // -------- modules --------
  // Compiles (or retrieves from the specialization cache) a module. The cache
  // key covers the source text, every -D definition, every compile option,
  // and the device name; lookups verify the full key, not just its hash.
  // Thread-safe: concurrent LoadModule calls are allowed, and compilation
  // runs outside the cache lock.
  std::shared_ptr<Module> LoadModule(const std::string& source,
                                     const kcc::CompileOptions& opts = {});

  // Installs an externally obtained compiled binary (a daemon response or a
  // shared-store artifact) into the in-memory cache under `key`, as if it had
  // been compiled here — subsequent LoadModule calls for the same key are
  // cache hits. The caller is responsible for having verified the artifact
  // against the key (the netd deserialization path does). Counts in
  // CacheStats::adopted, never in misses: no compile ran in this process.
  std::shared_ptr<Module> AdoptCompiledModule(
      const kcc::ModuleCacheKey& key,
      std::shared_ptr<const kcc::CompiledModule> compiled);

  // Shard-visible cache residency probe: true when the specialization for
  // (source, opts, this device) is resident in the in-memory tier right now.
  // No compile, no disk probe, no LRU bump — safe and cheap to call from a
  // scheduler's routing loop against every shard. A true answer means a
  // LoadModule for the same key will be a ~microseconds cache hit.
  bool HasCachedModule(const std::string& source,
                       const kcc::CompileOptions& opts = {}) const;

  // Attaches (or detaches, with nullptr) the background compile service used
  // by LoadModuleAsync and by TieredLoader's non-blocking promotion. The
  // service is not owned and must outlive every Context it is attached to.
  void set_async_service(AsyncCompileService* svc) { async_service_.store(svc); }
  AsyncCompileService* async_service() const { return async_service_.load(); }

  // Non-blocking load: schedules compilation through the attached service and
  // returns a shared future immediately (status kScheduled, or kCoalesced if
  // an equal request is already in flight), or kRejected when the service's
  // bounded queue is full. Without a service the module is compiled inline
  // and the returned future is already ready (status kInline). Compile
  // failures surface through the future on every path. `deadline` (zero =
  // none) bounds how long the request may wait for a worker; an expired
  // flight resolves to a null module.
  SubmitResult LoadModuleAsync(const std::string& source,
                               const kcc::CompileOptions& opts = {},
                               std::chrono::milliseconds deadline = {});

  // Enables the persistent cache tier: compiled specializations are written
  // to `dir` (created if absent) and later Contexts — including ones in other
  // processes — load them from disk instead of recompiling. Corrupt, stale,
  // or version-mismatched artifacts are recompiled with a warning, never
  // fatal. Empty string disables persistence.
  void set_cache_dir(const std::string& dir);
  const std::string& cache_dir() const { return cache_dir_; }

  // Byte budget for the in-memory tier (LRU eviction beyond it).
  void set_cache_byte_budget(std::size_t bytes);

  CacheStats cache_stats() const;

  // -------- execution --------
  // Launches and runs to completion; returns simulated statistics (including
  // sim_millis from the cost model). Argument types are validated. The
  // execution tier resolves as test override > VGPU_TIER > exec->request >
  // tier_policy(); all tiers produce bit-identical LaunchStats. When `exec`
  // is non-null its out fields report which tier actually served.
  vgpu::LaunchStats Launch(const Module& module, const std::string& kernel, vgpu::Dim3 grid,
                           vgpu::Dim3 block, const ArgPack& args,
                           unsigned dynamic_smem_bytes = 0, LaunchExecution* exec = nullptr);

  // Attaches (or detaches, with nullptr) the native execution tier. The
  // service is not owned and must outlive every Context it is attached to.
  // Without one, native-tier requests degrade to the decoded tier (counted
  // in TierStats::native_fallbacks).
  void set_native_service(NativeExecutionService* svc) { native_service_.store(svc); }
  NativeExecutionService* native_service() const { return native_service_.load(); }

  // Default execution tier for launches from this context (still subject to
  // the VGPU_TIER environment override, the test override, and per-launch
  // LaunchExecution::request).
  void set_tier_policy(vgpu::ExecutionTier tier) { tier_policy_ = tier; }
  vgpu::ExecutionTier tier_policy() const { return tier_policy_; }

  TierStats tier_stats() const;

  // Total simulated GPU milliseconds accumulated across launches (the
  // "GPU time" the benchmark tables report).
  double total_sim_millis() const { return total_sim_millis_; }
  void reset_sim_clock() { total_sim_millis_ = 0; }

  // Execution policy applied to every launch from this context (still subject
  // to the VGPU_WORKERS environment override and the test override).
  void set_exec_policy(vgpu::ExecPolicy policy) { exec_policy_ = policy; }
  vgpu::ExecPolicy exec_policy() const { return exec_policy_; }

 private:
  vgpu::DeviceProfile device_;
  vgpu::GlobalMemory memory_;
  mutable std::mutex cache_mutex_;  // guards cache_, cache_stats_
  ModuleCache cache_;
  CacheStats cache_stats_;
  std::string cache_dir_;
  std::atomic<AsyncCompileService*> async_service_{nullptr};
  std::atomic<NativeExecutionService*> native_service_{nullptr};
  vgpu::ExecutionTier tier_policy_ = vgpu::ExecutionTier::kAuto;
  std::atomic<std::size_t> tier_interp_{0};
  std::atomic<std::size_t> tier_decoded_{0};
  std::atomic<std::size_t> tier_native_{0};
  std::atomic<std::size_t> tier_native_shape_{0};
  std::atomic<std::size_t> tier_fallbacks_{0};
  double total_sim_millis_ = 0;
  vgpu::ExecPolicy exec_policy_;
};

// Convenience: uploads a host vector and returns the device pointer.
template <typename T>
DevPtr Upload(Context& ctx, std::span<const T> host) {
  DevPtr p = ctx.Malloc(host.size_bytes());
  ctx.MemcpyHtoD(p, host.data(), host.size_bytes());
  return p;
}

template <typename T>
std::vector<T> Download(Context& ctx, DevPtr p, std::size_t count) {
  std::vector<T> out(count);
  ctx.MemcpyDtoH(out.data(), p, count * sizeof(T));
  return out;
}

}  // namespace kspec::vcuda
