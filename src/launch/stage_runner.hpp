// StageRunner: one call site for module load + launch + accounting.
//
// The app drivers each repeated the same four chores per pipeline stage:
// build defines, LoadModule, Launch, then copy sim_millis / reg_count /
// transfer costs into an app-specific stats struct. StageRunner owns all of
// it behind a load *policy*:
//
//   kInline        — Context::LoadModule (blocking compile + two-tier cache),
//                    the exact pre-refactor behavior;
//   kTiered        — TieredLoader per source: the run-time-evaluated build
//                    serves cold parameter sets, specialization happens at
//                    the hot threshold (blocking, or in the background when
//                    the Context has an AsyncCompileService attached).
//
// Per-stage records accumulate into a LaunchBreakdown (compile / transfer /
// sim millis plus per-stage reg counts) that every app's result struct now
// carries; transfers charged through Upload/Download/Account* use the shared
// TransferModel. TakeBreakdown() hands the accumulated numbers over and
// clears them, so one long-lived runner (with its tiered heat state intact)
// yields a fresh breakdown per app call.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "launch/spec_builder.hpp"
#include "launch/transfer_model.hpp"
#include "vcuda/device_buffer.hpp"
#include "vcuda/tiered.hpp"
#include "vcuda/vcuda.hpp"
#include "vgpu/launch.hpp"

namespace kspec::launch {

// Per-stage accounting (the app-side StageStats, unified).
struct StageRecord {
  std::string name;
  vgpu::LaunchStats launch;   // last launch of the stage
  int reg_count = 0;          // registers/thread of the last kernel launched
  double sim_millis = 0;      // accumulated over the stage's launches
  double compile_millis = 0;  // build cost of the modules the stage loaded
  double wall_millis = 0;     // host wall-clock time spent inside Launch
};

// The unified timing story of one app call.
struct LaunchBreakdown {
  double compile_millis = 0;   // sum of loaded modules' build costs
  double transfer_millis = 0;  // modeled host<->device transfer time
  double sim_millis = 0;       // simulated GPU execution time
  double wall_millis = 0;      // host wall-clock time spent inside Launch
  // Which execution tier actually served each launch this runner issued
  // (vcuda::LaunchExecution out-fields, accumulated).
  std::size_t launches_interp = 0;
  std::size_t launches_decoded = 0;
  std::size_t launches_native = 0;
  // Of launches_native, served by a shape-specialized variant (the rest ran
  // the module's shape-generic artifact).
  std::size_t launches_native_shape = 0;
  std::size_t native_fallbacks = 0;  // native requested, decoded served
  std::vector<StageRecord> stages;

  const StageRecord* Stage(const std::string& name) const;
};

enum class LoadPolicy {
  kInline,
  kTiered,
};

struct RunnerOptions {
  LoadPolicy policy = LoadPolicy::kInline;
  int hot_threshold = 3;  // tiered policies: promote after this many requests
  TransferModel transfer{};
  // Execution-tier request forwarded with every launch (still subject to the
  // test override and VGPU_TIER; see vgpu::ResolveTier). kAuto lets the
  // context pick decoded-or-native by artifact readiness.
  vgpu::ExecutionTier tier = vgpu::ExecutionTier::kAuto;
};

class StageRunner {
 public:
  explicit StageRunner(vcuda::Context& ctx, RunnerOptions opts = {});

  vcuda::Context& ctx() { return *ctx_; }
  const RunnerOptions& options() const { return opts_; }
  const TransferModel& transfer_model() const { return opts_.transfer; }

  // Loads the stage's module under the configured policy and charges its
  // build cost to the stage record — once per distinct compiled binary per
  // breakdown, however many launches reload it. Under a tiered policy a cold
  // parameter set is answered with the shared RE build of `source`.
  std::shared_ptr<vcuda::Module> LoadStage(const std::string& stage, const std::string& source,
                                           const SpecBuilder& spec);

  // Launches and folds the statistics into the stage record.
  vgpu::LaunchStats Launch(const std::string& stage, const vcuda::Module& module,
                           const std::string& kernel, vgpu::Dim3 grid, vgpu::Dim3 block,
                           const vcuda::ArgPack& args, unsigned dynamic_smem_bytes = 0);

  // LoadStage + Launch in one call for single-kernel stages.
  vgpu::LaunchStats Run(const std::string& stage, const std::string& source,
                        const SpecBuilder& spec, const std::string& kernel, vgpu::Dim3 grid,
                        vgpu::Dim3 block, const vcuda::ArgPack& args,
                        unsigned dynamic_smem_bytes = 0);

  // -------- device memory with transfer accounting --------
  template <typename T>
  vcuda::TypedBuffer<T> Alloc(std::size_t count) {
    return vcuda::TypedBuffer<T>(*ctx_, count);
  }
  template <typename T>
  vcuda::TypedBuffer<T> Upload(std::span<const T> host) {
    vcuda::TypedBuffer<T> buf = vcuda::UploadBuffer<T>(*ctx_, host);
    AccountHtoD(host.size_bytes());
    return buf;
  }
  template <typename T>
  std::vector<T> Download(const vcuda::TypedBuffer<T>& buf) {
    AccountDtoH(buf.bytes());
    return buf.Download();
  }

  // Charges modeled transfer time for copies done outside Upload/Download
  // (constant-memory tables, texture uploads).
  void AccountHtoD(std::uint64_t bytes);
  void AccountDtoH(std::uint64_t bytes);

  // -------- accounting --------
  const LaunchBreakdown& breakdown() const { return breakdown_; }
  // Returns the accumulated breakdown and starts a fresh one. Tiered loader
  // state (heat, promotions) persists across calls.
  LaunchBreakdown TakeBreakdown();

  // -------- tiered introspection --------
  // Aggregated TieredLoader statistics over every source this runner loads.
  vcuda::TieredLoader::Stats tiered_stats() const;
  // True when the given (source, parameter set) is currently served by its
  // specialized build. Always true under kInline (loads always specialize).
  bool IsSpecialized(const std::string& source, const SpecBuilder& spec) const;

 private:
  StageRecord& StageFor(const std::string& name);
  vcuda::TieredLoader& LoaderFor(const std::string& source);

  vcuda::Context* ctx_;
  RunnerOptions opts_;
  LaunchBreakdown breakdown_;
  // (stage, compiled binary) pairs whose build cost is already in the current
  // breakdown. Repeated LoadStage calls for the same binary — one per launch
  // in every multi-launch stage — must not re-charge its compile time.
  // Cleared by TakeBreakdown; a tiered promotion swaps in a new binary and is
  // charged as such.
  std::set<std::pair<std::string, const kcc::CompiledModule*>> charged_;
  std::map<std::string, std::unique_ptr<vcuda::TieredLoader>> loaders_;  // by source
};

}  // namespace kspec::launch
