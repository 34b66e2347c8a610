// The C ABI between the host engine and a dlopen'd native-tier shared object.
//
// Every generated translation unit embeds this header's text, after the
// text of vgpu/simt.hpp (the build strips comments and the kspec #include
// below; see src/native/CMakeLists.txt), so the host and the SO compile the
// same struct definitions. Any layout or semantic change here MUST bump
// kNativeAbiVersion; the engine refuses (and rebuilds) artifacts whose
// kspec_native_abi_version() disagrees, so stale shared objects degrade to
// the decoded tier instead of corrupting memory. The ABI also covers the
// vgpu types it names: BlockStats, TextureBinding, DeviceConsts, Warp and
// its StackEntry, simt::Env and the Fault codes.
//
// Device cost constants travel in the launch struct at run time rather than
// being baked into the generated code (see vgpu::DeviceConsts).
#pragma once

#include <cstdint>

#include "vgpu/simt.hpp"

namespace kspec::native {

// Version 4: kernel-only TUs. The engine runs the block scheduler over warps
// it owns and calls each kernel's warp function (kspec_native_warp_fn) with a
// KspecNativeState it builds; the reconvergence stack's pushes and pops are
// host functions (KspecNativeStack). Version 3: the block scheduler's two
// unreachable faults are gone, so every vgpu::Fault code after kWatchdog
// moved down by two. Version 2: shape-specialized variants (KSPEC_SHAPE).
inline constexpr int kNativeAbiVersion = 4;

struct KspecNativeCallbacks {
  // Opaque vgpu::GlobalMemory*. try_access returns nullptr when the range is
  // not inside one live allocation; access throws the interpreter's precise
  // DeviceError host-side (the exception unwinds through the SO's frames).
  void* gmem = nullptr;
  const unsigned char* (*try_access)(void* gmem, std::uint64_t addr, std::uint64_t len) = nullptr;
  unsigned char* (*access)(void* gmem, std::uint64_t addr, std::uint64_t len) = nullptr;
  // vgpu::RaiseFault: throws host-side; never returns.
  void* fail_ctx = nullptr;
  void (*fail)(void* fail_ctx, int code, std::uint64_t a, std::uint64_t b) = nullptr;

  // The global-memory policy of vgpu::simt::Env.
  const unsigned char* TryAccess(std::uint64_t addr, std::uint64_t len) const {
    return try_access(gmem, addr, len);
  }
  unsigned char* Access(std::uint64_t addr, std::uint64_t len) const {
    return access(gmem, addr, len);
  }
};

// The reconvergence stack policy of a TU's simt::Env: simt::InlineStack's
// Push and Pop, compiled host-side and filled in by the engine, so no TU
// instantiates the stack's std::vector operations.
struct KspecNativeStack {
  void (*push)(vgpu::Warp& w, vgpu::StackEntry join, vgpu::StackEntry other) = nullptr;
  bool (*pop)(vgpu::Warp& w) = nullptr;

  void Push(vgpu::Warp& w, vgpu::StackEntry join, vgpu::StackEntry other) const {
    push(w, join, other);
  }
  bool Pop(vgpu::Warp& w) const { return pop(w); }
};

struct KspecNativeLaunch {
  vgpu::DeviceConsts dev;

  unsigned grid_x = 1, grid_y = 1, grid_z = 1;
  unsigned block_x = 1, block_y = 1, block_z = 1;

  const std::uint64_t* args = nullptr;
  std::uint64_t nargs = 0;
  const unsigned char* cmem = nullptr;
  std::uint64_t cmem_bytes = 0;
  const vgpu::TextureBinding* textures = nullptr;
  std::uint64_t ntextures = 0;

  // Per-slot thread coordinates, stride entries (vgpu::BlockLayout).
  const std::uint32_t* tid_x = nullptr;
  const std::uint32_t* tid_y = nullptr;
  const std::uint32_t* tid_z = nullptr;

  KspecNativeCallbacks cb;
};

// One block as a warp function sees it: the simt environment, the launch,
// the block's coordinates and the runner's watchdog accumulator. The engine's
// runner builds it once and sets ctaid and st per block.
struct KspecNativeState : vgpu::simt::Env<const KspecNativeCallbacks*, KspecNativeStack> {
  const KspecNativeLaunch* L = nullptr;
  unsigned ctaid_x = 0, ctaid_y = 0, ctaid_z = 0;
  std::uint64_t* wd_accum = nullptr;  // per-runner watchdog accumulator
};

// One kernel's warp run: runs warp `w`, whose lanes start at slot
// `lane_base`, until it stops at a barrier or is done (simt::Resume).
using RunWarpFn = void (*)(KspecNativeState& S, vgpu::Warp& w, unsigned lane_base);

// Entry points every generated shared object exports with default visibility:
//   int         kspec_native_abi_version(void);
//   const char* kspec_native_build_key(void);      // ModuleCacheKey canonical text
//   unsigned long long kspec_native_build_key_size(void);  // bytes in build_key
//   unsigned    kspec_native_kernel_count(void);
//   const char* kspec_native_kernel_name(unsigned index);
//   RunWarpFn   kspec_native_warp_fn(unsigned index, const KspecNativeLaunch*);
// warp_fn resolves a kernel's warp function for one launch; a shape variant
// faults (Fault::kBadDispatch) on a launch whose shape is not its own.
// The canonical key text is binary (length-prefixed fields, embedded NULs), so
// build_key is NOT a C string — always pair it with build_key_size.
using AbiVersionFn = int (*)();
using BuildKeyFn = const char* (*)();
using BuildKeySizeFn = unsigned long long (*)();
using KernelCountFn = unsigned (*)();
using KernelNameFn = const char* (*)(unsigned);
using WarpFnFn = RunWarpFn (*)(unsigned, const KspecNativeLaunch*);

}  // namespace kspec::native
