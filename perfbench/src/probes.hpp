// Traced-run probes: per-layer timings taken by calling each layer's public
// entry points directly, outside the measured clock.
//
// The app drivers compile, decode and build inside opaque calls, so the
// traced run finds out what they compiled from the .kmod artifacts a
// context with a cache directory writes (each embeds its ModuleCacheKey),
// then replays those compiles phase by phase and checks that the replay
// reproduces the listing CompileModule produced.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "kcc/cache_key.hpp"
#include "kcc/compiler.hpp"
#include "vgpu/device.hpp"

namespace kbench {

class Tracer;

struct CompiledArtifact {
  kspec::kcc::ModuleCacheKey key;
  std::shared_ptr<const kspec::kcc::CompiledModule> module;
};

// Watches cache directories for .kmod artifacts not seen before.
class ArtifactWatcher {
 public:
  // New artifacts in `dir` since the last call for that directory.
  std::vector<CompiledArtifact> Collect(const std::string& dir);

 private:
  std::set<std::string> seen_;  // full paths
};

// Wall time of each kcc phase for one compile, ms.
struct PhaseMs {
  double preprocess = 0, parse = 0, sema = 0, unroll = 0, lower = 0, optimize = 0,
         regalloc = 0, listing = 0;
  double Total() const {
    return preprocess + parse + sema + unroll + lower + optimize + regalloc + listing;
  }
};

// Recompiles the artifact's key through the public kcc phase functions
// (Preprocess, Parse, Analyze, UnrollLoops, ScalarizeLocalArrays,
// AnalyzeKernel, Lower, Optimize, AllocateRegisters, Disassemble), in
// CompileModule's order. Returns false with `error` if any kernel's replayed
// listing differs from the artifact's.
bool ReplayCompile(const CompiledArtifact& art, Tracer* tracer, PhaseMs* ms, std::string* error);

// Mean ms of one vgpu::DecodeKernel call over every kernel of `arts`.
double MeanDecodeMs(const std::vector<CompiledArtifact>& arts,
                    const kspec::vgpu::DeviceProfile& dev, Tracer* tracer);

struct NativeBuildMs {
  double emit_ms = 0, cc_ms = 0, tu_kb = 0, so_kb = 0;
};

// Emits the module's generic native TU and compiles it with the host
// compiler, timing each step. False if the compile fails.
bool ReplayNativeBuild(const CompiledArtifact& art, Tracer* tracer, NativeBuildMs* out,
                       std::string* error);

// Mean ms to make each artifact's generic shared object servable from the
// warm cache directory `dir` (read + validate + dlopen) in a fresh engine.
// Artifacts without a shared object in `dir` are skipped.
double MeanNativeLoadMs(const std::vector<CompiledArtifact>& arts, const std::string& dir,
                        Tracer* tracer);

// Mean ms of a Context::LoadModule memory-cache hit and of a disk-cache hit
// (a fresh context over `dir`) for each artifact.
struct LoadProbeMs {
  double hit_ms = 0, disk_ms = 0;
};
LoadProbeMs ProbeModuleLoads(const std::vector<CompiledArtifact>& arts, const std::string& dir,
                             const kspec::vgpu::DeviceProfile& dev, Tracer* tracer);

}  // namespace kbench
