// The execution-tier abstraction and the shared launch shell.
//
// The vgpu executes a kernel through one of three tiers, trading setup cost
// for steady-state speed exactly the way the dissertation trades compile time
// for specialized-kernel speed:
//
//   kInterp  — decode per launch: the decoded tier's handlers, with the
//              kernel decoded again at every launch (no per-kernel state).
//              Not a separate semantics: every tier runs simt.hpp's rules.
//   kDecoded — decode-once dispatch (the PR 5 fast path): a cached
//              DecodedKernel with pre-selected handlers and issue costs.
//   kNative  — a specialized C++ translation unit emitted from the decoded
//              module, compiled by the host toolchain, and dlopen'd
//              (src/native/). Built once per ModuleCacheKey, reused across
//              launches and processes.
//
// All three tiers produce bit-identical LaunchStats: the cost-model charges
// are defined by the instruction stream, never by how it is executed. This
// header also hosts the launch shell that guarantees it — validation,
// occupancy, register-spill clamping, execution-policy resolution, the
// block layout, the grid-chunking rule and chunk driver, the final
// fold/spill/cost-model steps and the fault texts are shared code, and the
// lane and warp rules are one header (simt.hpp), so the interpreter and the
// native backend cannot drift apart.
//
// Tier selection mirrors the VGPU_WORKERS precedence chain: test override >
// VGPU_TIER environment variable > per-launch request > context default.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "vgpu/device.hpp"
#include "vgpu/isa.hpp"
#include "vgpu/launch.hpp"

namespace kspec::vgpu {

enum class ExecutionTier : std::uint8_t {
  kAuto = 0,  // let the runtime pick: decoded now, native once it is ready
  kInterp,
  kDecoded,
  kNative,
};

// How the native tier treats launch-shape-specialized variants. The shape
// (block and grid dimensions) is a launch-time constant exactly like the
// kernel's `#define` parameters, so the native backend can bake it into the
// emitted TU: `ntid`/`nctaid` become `constexpr`, boundary-warp masks become
// provable constants, and per-lane bit-scan loops collapse to straight-line
// full-mask code where the mask-constant-propagation pass proves them full.
enum class ShapeMode : std::uint8_t {
  kOff = 0,   // serve only the shape-generic TU; never build variants
  kAuto,      // serve generic immediately, promote hot shapes in background
  kEager,     // build the shape variant inline on first use (tests, benches)
};

// Stable lower-case name ("off", "auto", "eager") for logs and reports.
const char* ShapeModeName(ShapeMode mode);

// Parses a shape-mode name (as accepted in KSPEC_NATIVE_SHAPE). Returns false
// on anything unrecognized; `out` is untouched then.
bool ParseShapeMode(std::string_view text, ShapeMode* out);

// KSPEC_NATIVE_SHAPE: "off" / "auto" / "eager"; unset or garbage = kAuto.
// Parsed once, like VGPU_TIER.
ShapeMode EnvShapeMode();

// Process-wide shape-mode override for tests and tools: while set, it wins
// over KSPEC_NATIVE_SHAPE and the engine default. Pass nullptr to clear. Not
// thread-safe against concurrent launches — set it between runs.
void SetShapeModeOverride(const ShapeMode* mode);

// Precedence chain: test override > KSPEC_NATIVE_SHAPE > `fallback`.
ShapeMode ResolveShapeMode(ShapeMode fallback = ShapeMode::kAuto);

// Stable lower-case name ("auto", "interp", "decoded", "native") for logs,
// reports, and JSON.
const char* TierName(ExecutionTier tier);

// Parses a tier name (as accepted in VGPU_TIER / --tier). Returns false on
// anything unrecognized; `out` is untouched then.
bool ParseTier(std::string_view text, ExecutionTier* out);

// VGPU_TIER: "interp" / "decoded" / "native" force that tier, "auto" / unset /
// garbage = no override. Parsed once, like VGPU_WORKERS.
ExecutionTier EnvTier();

// Process-wide tier override for tests and tools: while set, it wins over
// VGPU_TIER and every per-launch request. Pass nullptr to clear. The
// pointed-to value is copied. Not thread-safe against concurrent launches —
// set it from the test main thread between runs.
void SetTierOverride(const ExecutionTier* tier);

// Applies the precedence chain: test override > VGPU_TIER > `request` >
// `context_default`. A kAuto at every level resolves to kAuto — the caller
// (vcuda::Context) then picks decoded-or-native by artifact readiness.
ExecutionTier ResolveTier(ExecutionTier request,
                          ExecutionTier context_default = ExecutionTier::kAuto);

// Resolves the block-level execution policy for one launch: test override
// (SetExecPolicyOverride) > VGPU_WORKERS > `requested` (LaunchConfig::exec).
ExecPolicy ResolveExecPolicy(const ExecPolicy& requested);

// Where a block's threads sit: the warps that hold them, the register-row
// length, and each lane slot's thread coordinates (padding lanes of a
// partial last warp clamp to the last thread). One table per launch, read by
// the interpreter's special-register handler and by a native TU.
struct BlockLayout {
  unsigned nthreads = 0;
  unsigned nwarps = 0;
  unsigned stride = 0;  // nwarps * warp_size: register-row length
  std::vector<std::uint32_t> tid_x, tid_y, tid_z;
};

// Everything a tier backend needs to run a launch the standard way, computed
// by PrepareLaunch before any block executes. The stats member arrives with
// the configuration echo and occupancy filled in; ExecuteLaunch runs the
// `nparts` chunks of `chunk` blocks and folds them into it.
struct LaunchShell {
  LaunchStats stats;
  DeviceConsts consts;       // what the lane rules read of the device
  BlockLayout layout;
  unsigned wanted_regs = 1;  // pre-clamp register demand (spill accounting)
  unsigned spilled = 0;
  std::uint64_t nblocks = 0;
  std::uint64_t chunk = 1;   // blocks per chunk; depends only on the grid
  std::size_t nparts = 0;
  unsigned workers = 1;      // resolved worker count (>= 1)
  bool parallel = false;     // run chunks on the worker pool?
};

// True when `code` holds an atomic on global space. Its *returned* old
// values are schedule-dependent, so PrepareLaunch keeps kAuto launches of
// such a kernel serial. Each tier computes it once per loaded kernel.
bool HasGlobalAtomic(const std::vector<Instr>& code);

// Validates the configuration (empty launch, block size, shared-memory and
// occupancy limits — throws DeviceError exactly like the interpreter always
// did), clamps register demand to the device limit, resolves the execution
// policy, lays out the block, and fixes the grid-chunking plan.
// `has_global_atomic` keeps kAuto launches of schedule-dependent kernels on
// the serial reference schedule.
LaunchShell PrepareLaunch(const DeviceProfile& dev, const LaunchConfig& cfg,
                          int reg_count, unsigned static_smem_bytes,
                          bool has_global_atomic);

// One host thread's block executor: it owns the per-block state (register
// file, shared memory, watchdog budget) and reuses it across the blocks and
// chunks it runs, so the per-block cost is a reset, not an allocation.
class BlockExecutor {
 public:
  virtual ~BlockExecutor() = default;
  // Runs block `ctaid` to completion, accumulating into `stats`.
  virtual void RunBlock(const Dim3& ctaid, BlockStats& stats) = 0;
};

// The chunk driver every tier runs: executes the shell's chunks serially on
// one executor, or on the worker pool with per-worker executors from a free
// list; each chunk accumulates its own BlockStats in block order. Then it
// folds the partials in chunk order (what makes the result independent of
// which worker ran which chunk), applies the register-spill charge and runs
// the cost model.
LaunchStats ExecuteLaunch(const DeviceProfile& dev, LaunchShell& shell, const Dim3& grid,
                          const std::function<std::unique_ptr<BlockExecutor>()>& make_executor);

// What a fault's text needs beyond (code, a, b): the kernel (for kBadOp)
// and the launch's memory sizes.
struct FaultSite {
  const std::vector<Instr>* code = nullptr;
  std::size_t shared_bytes = 0;
  std::size_t const_bytes = 0;
};

// The fault hook of both tiers (simt::Env::fail, KspecNativeCallbacks::fail):
// throws the DeviceError — or InternalError, for faults that mean a decoder
// or emitter bug — carrying the fault's one text. `site` is a FaultSite*.
[[noreturn]] void RaiseFault(void* site, int code, std::uint64_t a, std::uint64_t b);

}  // namespace kspec::vgpu
