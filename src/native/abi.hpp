// The C ABI between the host engine and a dlopen'd native-tier shared object.
//
// Every generated translation unit embeds this header's text, after the
// text of vgpu/simt.hpp (the build strips comments and the kspec #include
// below; see src/native/CMakeLists.txt), so the host and the SO compile the
// same struct definitions. Any layout or semantic change here MUST bump
// kNativeAbiVersion; the engine refuses (and rebuilds) artifacts whose
// kspec_native_abi_version() disagrees, so stale shared objects degrade to
// the decoded tier instead of corrupting memory. The ABI also covers the
// vgpu types it names: BlockStats, TextureBinding, DeviceConsts and the Fault
// codes.
//
// Device cost constants travel in the launch struct at run time rather than
// being baked into the generated code (see vgpu::DeviceConsts).
#pragma once

#include <cstdint>

#include "vgpu/simt.hpp"

namespace kspec::native {

// Version 3: the block scheduler's two unreachable faults are gone, so every
// vgpu::Fault code after kWatchdog moved down by two. Version 2:
// shape-specialized variants (KSPEC_SHAPE).
inline constexpr int kNativeAbiVersion = 3;

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

struct KspecNativeBlock {
  unsigned ctaid_x = 0, ctaid_y = 0, ctaid_z = 0;
  std::uint64_t* regs = nullptr;  // num_vregs x stride SoA register file
  unsigned char* shared = nullptr;
  std::uint64_t shared_bytes = 0;
  vgpu::BlockStats* stats = nullptr;  // accumulated, never reset by the SO
  std::uint64_t* wd_accum = nullptr;  // per-runner watchdog accumulator
};

// Entry points every generated shared object exports with default visibility:
//   int         kspec_native_abi_version(void);
//   const char* kspec_native_build_key(void);      // ModuleCacheKey canonical text
//   unsigned long long kspec_native_build_key_size(void);  // bytes in build_key
//   unsigned    kspec_native_kernel_count(void);
//   const char* kspec_native_kernel_name(unsigned index);
//   void        kspec_native_run_block(unsigned index, const KspecNativeLaunch*,
//                                      KspecNativeBlock*);
// The canonical key text is binary (length-prefixed fields, embedded NULs), so
// build_key is NOT a C string — always pair it with build_key_size.
using AbiVersionFn = int (*)();
using BuildKeyFn = const char* (*)();
using BuildKeySizeFn = unsigned long long (*)();
using KernelCountFn = unsigned (*)();
using KernelNameFn = const char* (*)(unsigned);
using RunBlockFn = void (*)(unsigned, const KspecNativeLaunch*, KspecNativeBlock*);

}  // namespace kspec::native
