#include "probes.hpp"

#include <algorithm>
#include <filesystem>

#include "kcc/lower.hpp"
#include "kcc/parser.hpp"
#include "kcc/passes.hpp"
#include "kcc/preprocess.hpp"
#include "kcc/regalloc.hpp"
#include "kcc/sema.hpp"
#include "kcc/serialize.hpp"
#include "kcc/unroll.hpp"
#include "native/build.hpp"
#include "native/codegen.hpp"
#include "native/engine.hpp"
#include "support/serialize.hpp"
#include "support/str.hpp"
#include "trace.hpp"
#include "vcuda/vcuda.hpp"
#include "vgpu/interp.hpp"
#include "vgpu/isa.hpp"

namespace kbench {

namespace fs = std::filesystem;
using namespace kspec;

std::vector<CompiledArtifact> ArtifactWatcher::Collect(const std::string& dir) {
  std::vector<std::string> fresh;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string path = entry.path().string();
    if (entry.path().extension() == ".kmod" && !seen_.count(path)) fresh.push_back(path);
  }
  std::sort(fresh.begin(), fresh.end());
  std::vector<CompiledArtifact> out;
  for (const std::string& path : fresh) {
    seen_.insert(path);
    std::vector<std::uint8_t> bytes;
    if (!ReadFileBytes(path, &bytes)) continue;
    std::string key_text;
    CompiledArtifact art;
    art.module = std::make_shared<kcc::CompiledModule>(kcc::Deserialize(bytes, &key_text));
    art.key = kcc::ModuleCacheKey::FromCanonicalText(key_text);
    out.push_back(std::move(art));
  }
  return out;
}

namespace {

// Times `fn`, adding the elapsed ms to `*acc`, inside a span named `name`.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, double* acc, Fn&& fn) {
  auto span = tracer->Open(name);
  const auto t0 = Clock::now();
  struct Adder {
    double* acc;
    Clock::time_point t0;
    ~Adder() { *acc += MsSince(t0); }
  } adder{acc, t0};
  return fn();
}

}  // namespace

bool ReplayCompile(const CompiledArtifact& art, Tracer* tracer, PhaseMs* ms, std::string* error) {
  const kcc::CompileOptions opts = art.key.Options();
  auto span = tracer->Open("kcc.compile");
  const std::string pre =
      Timed(tracer, "kcc.preprocess", &ms->preprocess,
            [&] { return kcc::Preprocess(art.key.source, opts.defines); });
  kcc::ModuleAst ast = Timed(tracer, "kcc.parse", &ms->parse, [&] { return kcc::Parse(pre); });
  Timed(tracer, "kcc.sema", &ms->sema, [&] {
    kcc::Analyze(ast);
    return 0;
  });
  std::size_t index = 0;
  for (auto& kdecl : ast.kernels) {
    const kcc::UnrollResult unrolled = Timed(tracer, "kcc.unroll", &ms->unroll, [&] {
      kcc::UnrollResult result = kcc::UnrollLoops(kdecl, opts.enable_unroll ? opts.max_unroll : 1);
      kcc::ScalarizeLocalArrays(kdecl);
      return result;
    });
    Timed(tracer, "kcc.sema", &ms->sema, [&] {
      kcc::AnalyzeKernel(ast, kdecl);
      return 0;
    });
    kcc::LoweredKernel low =
        Timed(tracer, "kcc.lower", &ms->lower, [&] { return kcc::Lower(ast, kdecl); });
    kcc::PassStats passes = Timed(tracer, "kcc.optimize", &ms->optimize, [&] {
      kcc::PassStats stats;
      if (opts.optimize) {
        kcc::PassOptions pass_opts;
        pass_opts.strength_reduction = opts.enable_strength_reduction;
        pass_opts.cse = opts.enable_cse;
        stats = kcc::Optimize(low.code, low.vreg_types, pass_opts);
      }
      return stats;
    });
    kcc::AllocResult alloc = Timed(tracer, "kcc.regalloc", &ms->regalloc, [&] {
      return kcc::AllocateRegisters(low.code, low.vreg_types);
    });
    const std::string listing = Timed(tracer, "kcc.listing", &ms->listing, [&] {
      std::string text = Format(
          "// MiniPTX for kernel %s\n"
          "// %s\n"
          "// regs/thread: %d, static smem: %u bytes, instrs: %d, "
          "unrolled loops: %d, folded: %d, strength-reduced: %d\n",
          low.name.c_str(), kcc::DefinesToString(opts.defines).c_str(), alloc.reg_count,
          low.static_smem_bytes, static_cast<int>(low.code.size()), unrolled.loops_unrolled,
          passes.folded_consts, passes.strength_reduced);
      text += ".entry " + low.name + "(";
      for (std::size_t p = 0; p < low.params.size(); ++p) {
        if (p) text += ", ";
        text += Format(".param .%s %s", vgpu::TypeName(low.params[p].type),
                       low.params[p].name.c_str());
      }
      text += ")\n{\n" + vgpu::Disassemble(low.code) + "}\n";
      return text;
    });
    if (index >= art.module->kernels.size() ||
        art.module->kernels[index].listing != listing) {
      *error = "kcc replay listing differs from CompileModule for kernel " + low.name + " (" +
               art.key.Describe() + ")";
      return false;
    }
    ++index;
  }
  if (index != art.module->kernels.size()) {
    *error = "kcc replay produced a different kernel count (" + art.key.Describe() + ")";
    return false;
  }
  return true;
}

double MeanDecodeMs(const std::vector<CompiledArtifact>& arts, const vgpu::DeviceProfile& dev,
                    Tracer* tracer) {
  double total = 0;
  std::size_t n = 0;
  for (const CompiledArtifact& art : arts) {
    for (const vgpu::CompiledKernel& k : art.module->kernels) {
      Timed(tracer, "vgpu.decode", &total, [&] { return vgpu::DecodeKernel(k, dev); });
      ++n;
    }
  }
  return n ? total / static_cast<double>(n) : 0;
}

bool ReplayNativeBuild(const CompiledArtifact& art, Tracer* tracer, NativeBuildMs* out,
                       std::string* error) {
  const std::string tu = Timed(tracer, "native.emit", &out->emit_ms, [&] {
    return native::EmitModuleSource(*art.module, art.key.CanonicalText());
  });
  const std::vector<std::uint8_t> so = Timed(tracer, "native.cc", &out->cc_ms, [&] {
    return native::CompileSharedObject(tu, error);
  });
  out->tu_kb += static_cast<double>(tu.size()) / 1024.0;
  out->so_kb += static_cast<double>(so.size()) / 1024.0;
  return !so.empty();
}

double MeanNativeLoadMs(const std::vector<CompiledArtifact>& arts, const std::string& dir,
                        Tracer* tracer) {
  native::NativeEngine::Options opts;
  opts.cache_dir = dir;
  opts.shape_mode = vgpu::ShapeMode::kOff;
  native::NativeEngine engine(opts);
  double total = 0;
  std::size_t n = 0;
  for (const CompiledArtifact& art : arts) {
    // Only artifacts already on disk: EnsureReady would build a missing one.
    if (!fs::exists(fs::path(dir) / native::NativeEngine::ArtifactFileName(art.key))) continue;
    const bool ready = Timed(tracer, "native.load", &total,
                             [&] { return engine.EnsureReady(art.key, *art.module); });
    n += ready ? 1 : 0;
  }
  return n ? total / static_cast<double>(n) : 0;
}

LoadProbeMs ProbeModuleLoads(const std::vector<CompiledArtifact>& arts, const std::string& dir,
                             const vgpu::DeviceProfile& dev, Tracer* tracer) {
  vcuda::Context ctx(dev);
  ctx.set_cache_dir(dir);
  LoadProbeMs out;
  std::size_t n = 0;
  for (const CompiledArtifact& art : arts) {
    // Only artifacts in `dir`: LoadModule would compile a missing one.
    if (!fs::exists(fs::path(dir) / art.key.FileName())) continue;
    ++n;
    const kcc::CompileOptions opts = art.key.Options();
    Timed(tracer, "vcuda.disk_load", &out.disk_ms,
          [&] { return ctx.LoadModule(art.key.source, opts); });
    Timed(tracer, "vcuda.load_hit", &out.hit_ms,
          [&] { return ctx.LoadModule(art.key.source, opts); });
  }
  if (n) {
    out.hit_ms /= static_cast<double>(n);
    out.disk_ms /= static_cast<double>(n);
  }
  return out;
}

}  // namespace kbench
