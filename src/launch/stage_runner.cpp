#include "launch/stage_runner.hpp"

#include <chrono>

namespace kspec::launch {

const StageRecord* LaunchBreakdown::Stage(const std::string& name) const {
  for (const StageRecord& s : stages) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

StageRunner::StageRunner(vcuda::Context& ctx, RunnerOptions opts)
    : ctx_(&ctx), opts_(opts) {}

StageRecord& StageRunner::StageFor(const std::string& name) {
  for (StageRecord& s : breakdown_.stages) {
    if (s.name == name) return s;
  }
  breakdown_.stages.emplace_back();
  breakdown_.stages.back().name = name;
  return breakdown_.stages.back();
}

vcuda::TieredLoader& StageRunner::LoaderFor(const std::string& source) {
  auto it = loaders_.find(source);
  if (it == loaders_.end()) {
    it = loaders_
             .emplace(source, std::make_unique<vcuda::TieredLoader>(ctx_, source,
                                                                    opts_.hot_threshold))
             .first;
  }
  return *it->second;
}

std::shared_ptr<vcuda::Module> StageRunner::LoadStage(const std::string& stage,
                                                      const std::string& source,
                                                      const SpecBuilder& spec) {
  const kcc::CompileOptions opts = spec.Build();
  std::shared_ptr<vcuda::Module> mod;
  if (opts_.policy == LoadPolicy::kInline) {
    mod = ctx_->LoadModule(source, opts);
  } else {
    mod = LoaderFor(source).Get(opts);
  }
  // Charge the module's (possibly amortized) build cost once per (stage,
  // binary) per breakdown. A cached load still reports the original compile
  // time — but a stage that loads the same binary on every frame must not
  // multiply that one compile by the launch count.
  if (charged_.insert({stage, mod->compiled_ptr().get()}).second) {
    const double compile = mod->compiled().compile_millis;
    StageFor(stage).compile_millis += compile;
    breakdown_.compile_millis += compile;
  }
  return mod;
}

vgpu::LaunchStats StageRunner::Launch(const std::string& stage, const vcuda::Module& module,
                                      const std::string& kernel, vgpu::Dim3 grid,
                                      vgpu::Dim3 block, const vcuda::ArgPack& args,
                                      unsigned dynamic_smem_bytes) {
  const auto t0 = std::chrono::steady_clock::now();
  vcuda::LaunchExecution exec;
  exec.request = opts_.tier;
  vgpu::LaunchStats st =
      ctx_->Launch(module, kernel, grid, block, args, dynamic_smem_bytes, &exec);
  const double wall =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  switch (exec.served) {
    case vgpu::ExecutionTier::kInterp: ++breakdown_.launches_interp; break;
    case vgpu::ExecutionTier::kNative:
      ++breakdown_.launches_native;
      if (exec.native_shape) ++breakdown_.launches_native_shape;
      break;
    default: ++breakdown_.launches_decoded; break;
  }
  if (exec.native_fallback) ++breakdown_.native_fallbacks;
  StageRecord& rec = StageFor(stage);
  rec.launch = st;
  rec.reg_count = module.GetKernel(kernel).stats.reg_count;
  rec.sim_millis += st.sim_millis;
  rec.wall_millis += wall;
  breakdown_.sim_millis += st.sim_millis;
  breakdown_.wall_millis += wall;
  return st;
}

vgpu::LaunchStats StageRunner::Run(const std::string& stage, const std::string& source,
                                   const SpecBuilder& spec, const std::string& kernel,
                                   vgpu::Dim3 grid, vgpu::Dim3 block,
                                   const vcuda::ArgPack& args, unsigned dynamic_smem_bytes) {
  std::shared_ptr<vcuda::Module> mod = LoadStage(stage, source, spec);
  return Launch(stage, *mod, kernel, grid, block, args, dynamic_smem_bytes);
}

void StageRunner::AccountHtoD(std::uint64_t bytes) {
  breakdown_.transfer_millis += opts_.transfer.HtoDMillis(bytes);
}

void StageRunner::AccountDtoH(std::uint64_t bytes) {
  breakdown_.transfer_millis += opts_.transfer.DtoHMillis(bytes);
}

LaunchBreakdown StageRunner::TakeBreakdown() {
  LaunchBreakdown out = std::move(breakdown_);
  breakdown_ = LaunchBreakdown{};
  charged_.clear();  // next breakdown charges each binary's compile afresh
  return out;
}

vcuda::TieredLoader::Stats StageRunner::tiered_stats() const {
  vcuda::TieredLoader::Stats total;
  for (const auto& [source, loader] : loaders_) {
    vcuda::TieredLoader::Stats s = loader->stats();
    total.re_served += s.re_served;
    total.sk_served += s.sk_served;
    total.specializations += s.specializations;
    total.background_compiles += s.background_compiles;
    total.promotions_pending += s.promotions_pending;
    total.re_served_while_compiling += s.re_served_while_compiling;
    total.failed_promotions += s.failed_promotions;
  }
  return total;
}

bool StageRunner::IsSpecialized(const std::string& source, const SpecBuilder& spec) const {
  if (opts_.policy == LoadPolicy::kInline) return true;
  auto it = loaders_.find(source);
  return it != loaders_.end() && it->second->IsSpecialized(spec.Build());
}

}  // namespace kspec::launch
