#include "gpupf/pipeline.hpp"

#include <cstring>
#include <fstream>

#include "support/log.hpp"
#include "support/timer.hpp"

namespace kspec::gpupf {

namespace {

// Binds a parameter's current value onto the define set. Stringification is
// the launch layer's: SpecBuilder is the single implementation of -D macro
// formatting across gpupf and the app drivers.
void BindParamDefine(launch::SpecBuilder& spec, const std::string& macro, const Param* p) {
  if (auto* i = dynamic_cast<const IntParam*>(p)) {
    spec.Value(macro, i->value());
  } else if (auto* b = dynamic_cast<const BoolParam*>(p)) {
    spec.Value(macro, b->value());
  } else if (auto* f = dynamic_cast<const FloatParam*>(p)) {
    spec.Value(macro, f->value());
  } else if (auto* ptr = dynamic_cast<const PointerParam*>(p)) {
    spec.Pointer(macro, ptr->value());
  } else if (auto* s = dynamic_cast<const StepParam*>(p)) {
    spec.Value(macro, s->value());
  } else {
    throw PipelineError("parameter '" + p->name() + "' cannot be bound to a #define");
  }
}

struct ResolvedEndpoint {
  MemoryRes* mem = nullptr;
  std::uint64_t offset = 0;  // byte offset (subsets)
  std::uint64_t bytes = 0;
};

ResolvedEndpoint Resolve(const CopyAction::Endpoint& ep, std::uint64_t iter) {
  ResolvedEndpoint out;
  if (std::holds_alternative<MemoryRes*>(ep)) {
    out.mem = std::get<MemoryRes*>(ep);
    out.bytes = out.mem->extent().bytes();
  } else {
    SubsetRes* s = std::get<SubsetRes*>(ep);
    out.mem = s->base();
    out.offset = s->OffsetBytesAt(iter);
    out.bytes = s->window().bytes();
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Resources
// ---------------------------------------------------------------------------

bool ModuleRes::Refresh(Pipeline& p) {
  std::vector<const Param*> deps;
  deps.reserve(bindings_.size());
  for (const auto& [macro, param] : bindings_) deps.push_back(param);
  if (DepsChanged(deps)) {
    spec_ = launch::SpecBuilder();  // gpupf modules always specialize; duplicate
                                    // fixed-define/binding macros are rejected
    for (const auto& [macro, text] : fixed_defines_) spec_.Value(macro, text);
    for (const auto& [macro, param] : bindings_) BindParamDefine(spec_, macro, param);
  } else if (p.runner_.options().policy == launch::LoadPolicy::kInline) {
    return false;
  }
  std::shared_ptr<vcuda::Module> mod = p.runner_.LoadStage(name(), source_, spec_);
  if (mod == module_) return false;  // tiered: the same build keeps serving
  module_ = std::move(mod);
  KSPEC_LOG_INFO << "gpupf: refreshed module '" << name() << "' ("
                 << kcc::DefinesToString(spec_.defines()) << ")";
  return true;
}

bool MemoryRes::Refresh(Pipeline& p) {
  if (!DepsChanged({extent_})) return false;
  const std::uint64_t bytes = extent_->bytes();
  switch (loc_) {
    case Loc::kHost:
      host_.assign(bytes, 0);
      break;
    case Loc::kGlobal:
      if (dev_ != 0) p.ctx().Free(dev_);
      owner_ = &p.ctx();
      dev_ = p.ctx().Malloc(bytes);
      dev_bytes_ = bytes;
      p.ctx().Memset(dev_, 0, bytes);
      break;
    case Loc::kConstant:
      break;  // storage lives in the module
  }
  KSPEC_LOG_INFO << "gpupf: refreshed memory '" << name() << "' (" << extent_->Describe() << ")";
  return true;
}

bool TextureRes::Refresh(Pipeline&) {
  bool stale = module_->generation() != bound_module_gen_ ||
               source_->generation() != bound_source_gen_ ||
               dims_->version() != bound_dims_version_;
  if (!stale) return false;
  module_->module().BindTexture(texture_, source_->dev_ptr(),
                                static_cast<int>(dims_->x()),
                                static_cast<int>(std::max<std::uint64_t>(dims_->y(), 1)));
  bound_module_gen_ = module_->generation();
  bound_source_gen_ = source_->generation();
  bound_dims_version_ = dims_->version();
  KSPEC_LOG_INFO << "gpupf: bound texture '" << texture_ << "' in '" << name() << "'";
  return true;
}

// ---------------------------------------------------------------------------
// Actions
// ---------------------------------------------------------------------------

void CopyAction::Execute(Pipeline& p, std::uint64_t iter) {
  WallTimer wall;
  ResolvedEndpoint src = Resolve(src_, iter);
  ResolvedEndpoint dst = Resolve(dst_, iter);
  std::uint64_t bytes = std::min(src.bytes, dst.bytes);
  using Loc = MemoryRes::Loc;
  Loc sl = src.mem->loc(), dl = dst.mem->loc();
  const launch::TransferModel& model = p.runner().transfer_model();

  if (sl == Loc::kHost && dl == Loc::kGlobal) {
    p.ctx().MemcpyHtoD(dst.mem->dev_ptr() + dst.offset, src.mem->host().data() + src.offset,
                       bytes);
    timing_.sim_millis += model.HtoDMillis(bytes);
  } else if (sl == Loc::kGlobal && dl == Loc::kHost) {
    p.ctx().MemcpyDtoH(dst.mem->host().data() + dst.offset, src.mem->dev_ptr() + src.offset,
                       bytes);
    timing_.sim_millis += model.DtoHMillis(bytes);
  } else if (sl == Loc::kGlobal && dl == Loc::kGlobal) {
    auto& mem = p.ctx().memory();
    std::memmove(mem.Access(dst.mem->dev_ptr() + dst.offset, bytes),
                 mem.Access(src.mem->dev_ptr() + src.offset, bytes), bytes);
    timing_.sim_millis += model.DtoDMillis(bytes);
  } else if (sl == Loc::kHost && dl == Loc::kHost) {
    std::memmove(dst.mem->host().data() + dst.offset, src.mem->host().data() + src.offset, bytes);
  } else if (dl == Loc::kConstant && sl != Loc::kConstant) {
    std::vector<unsigned char> staging(bytes);
    if (sl == Loc::kHost) {
      std::memcpy(staging.data(), src.mem->host().data() + src.offset, bytes);
    } else {
      p.ctx().MemcpyDtoH(staging.data(), src.mem->dev_ptr() + src.offset, bytes);
    }
    dst.mem->module_res()->module().SetConstant(dst.mem->constant_name(), staging.data(), bytes);
    timing_.sim_millis += model.HtoDMillis(bytes);
  } else {
    throw PipelineError("unsupported copy endpoints in action '" + name() + "'");
  }
  ++timing_.invocations;
  timing_.wall_millis += wall.ElapsedMillis();
}

void KernelExecAction::Execute(Pipeline& p, std::uint64_t iter) {
  WallTimer wall;
  const vgpu::CompiledKernel& k = kernel_->kernel();
  if (args_.size() != k.params.size()) {
    throw PipelineError(Format("action '%s': kernel %s takes %zu args, %zu bound",
                               name().c_str(), k.name.c_str(), k.params.size(), args_.size()));
  }
  vcuda::ArgPack pack;
  for (std::size_t i = 0; i < args_.size(); ++i) {
    vgpu::Type want = k.params[i].type;
    const Arg& a = args_[i];
    if (std::holds_alternative<const IntParam*>(a)) {
      std::int64_t v = std::get<const IntParam*>(a)->value();
      switch (want) {
        case vgpu::Type::kI32: pack.Int(static_cast<std::int32_t>(v)); break;
        case vgpu::Type::kU32: pack.Uint(static_cast<std::uint32_t>(v)); break;
        case vgpu::Type::kI64: pack.Long(v); break;
        case vgpu::Type::kU64: pack.Ulong(static_cast<std::uint64_t>(v)); break;
        default:
          throw PipelineError(Format("action '%s': integer parameter bound to %s argument",
                                     name().c_str(), vgpu::TypeName(want)));
      }
    } else if (std::holds_alternative<const FloatParam*>(a)) {
      double v = std::get<const FloatParam*>(a)->value();
      if (want == vgpu::Type::kF32) pack.Float(static_cast<float>(v));
      else if (want == vgpu::Type::kF64) pack.Double(v);
      else throw PipelineError("float parameter bound to non-float kernel argument");
    } else if (std::holds_alternative<const PointerParam*>(a)) {
      pack.Ptr(std::get<const PointerParam*>(a)->value());
    } else if (std::holds_alternative<MemoryRes*>(a)) {
      pack.Ptr(std::get<MemoryRes*>(a)->dev_ptr());
    } else {
      SubsetRes* s = std::get<SubsetRes*>(a);
      pack.Ptr(s->base()->dev_ptr() + s->OffsetBytesAt(iter));
    }
  }
  unsigned dyn_smem = dynamic_smem_ ? static_cast<unsigned>(dynamic_smem_->value()) : 0;
  last_stats_ = p.runner_.Launch(name(), kernel_->module_res()->module(), kernel_->kernel_name(),
                                grid_->value(), block_->value(), pack, dyn_smem);
  timing_.sim_millis += last_stats_.sim_millis;
  ++timing_.invocations;
  timing_.wall_millis += wall.ElapsedMillis();
}

void UserFnAction::Execute(Pipeline& p, std::uint64_t iter) {
  WallTimer wall;
  fn_(p, iter);
  ++timing_.invocations;
  timing_.wall_millis += wall.ElapsedMillis();
}

void FileIOAction::Execute(Pipeline&, std::uint64_t) {
  WallTimer wall;
  auto& buf = mem_->host();
  if (dir_ == Dir::kRead) {
    std::ifstream in(path_, std::ios::binary);
    if (!in) throw PipelineError("cannot open '" + path_ + "' for reading");
    in.read(reinterpret_cast<char*>(buf.data()), static_cast<std::streamsize>(buf.size()));
  } else {
    std::ofstream out(path_, std::ios::binary);
    if (!out) throw PipelineError("cannot open '" + path_ + "' for writing");
    out.write(reinterpret_cast<const char*>(buf.data()), static_cast<std::streamsize>(buf.size()));
  }
  ++timing_.invocations;
  timing_.wall_millis += wall.ElapsedMillis();
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

Pipeline::~Pipeline() {
  for (auto& r : resources_) {
    if (auto* m = dynamic_cast<MemoryRes*>(r.get())) {
      if (m->loc() == MemoryRes::Loc::kGlobal && m->dev_ != 0 && m->owner_) {
        m->owner_->Free(m->dev_);
      }
    }
  }
}

IntParam* Pipeline::AddInt(std::string name, std::int64_t v) {
  params_.push_back(std::make_unique<IntParam>(std::move(name), v));
  return static_cast<IntParam*>(params_.back().get());
}
FloatParam* Pipeline::AddFloat(std::string name, double v) {
  params_.push_back(std::make_unique<FloatParam>(std::move(name), v));
  return static_cast<FloatParam*>(params_.back().get());
}
BoolParam* Pipeline::AddBool(std::string name, bool v) {
  params_.push_back(std::make_unique<BoolParam>(std::move(name), v));
  return static_cast<BoolParam*>(params_.back().get());
}
TypeParam* Pipeline::AddType(std::string name, vgpu::Type t) {
  params_.push_back(std::make_unique<TypeParam>(std::move(name), t));
  return static_cast<TypeParam*>(params_.back().get());
}
TripletParam* Pipeline::AddTriplet(std::string name, vgpu::Dim3 v) {
  params_.push_back(std::make_unique<TripletParam>(std::move(name), v));
  return static_cast<TripletParam*>(params_.back().get());
}
PairParam* Pipeline::AddPair(std::string name, std::int64_t a, std::int64_t b) {
  params_.push_back(std::make_unique<PairParam>(std::move(name), a, b));
  return static_cast<PairParam*>(params_.back().get());
}
PointerParam* Pipeline::AddPointer(std::string name, vgpu::DevPtr p) {
  params_.push_back(std::make_unique<PointerParam>(std::move(name), p));
  return static_cast<PointerParam*>(params_.back().get());
}
ExtentParam* Pipeline::AddExtent(std::string name, std::size_t elem, std::uint64_t x,
                                 std::uint64_t y, std::uint64_t z) {
  params_.push_back(std::make_unique<ExtentParam>(std::move(name), elem, x, y, z));
  return static_cast<ExtentParam*>(params_.back().get());
}
ScheduleParam* Pipeline::AddSchedule(std::string name, std::uint64_t period, std::uint64_t delay) {
  params_.push_back(std::make_unique<ScheduleParam>(std::move(name), period, delay));
  return static_cast<ScheduleParam*>(params_.back().get());
}
StepParam* Pipeline::AddStep(std::string name, std::int64_t lo, std::int64_t hi,
                             std::int64_t stride) {
  params_.push_back(std::make_unique<StepParam>(std::move(name), lo, hi, stride));
  return static_cast<StepParam*>(params_.back().get());
}

ModuleRes* Pipeline::AddModule(std::string name, std::string source) {
  resources_.push_back(std::make_unique<ModuleRes>(std::move(name), std::move(source)));
  needs_refresh_ = true;
  return static_cast<ModuleRes*>(resources_.back().get());
}
KernelRes* Pipeline::AddKernel(std::string name, ModuleRes* module, std::string kernel_name) {
  resources_.push_back(std::make_unique<KernelRes>(std::move(name), module, std::move(kernel_name)));
  return static_cast<KernelRes*>(resources_.back().get());
}
MemoryRes* Pipeline::AddHostMemory(std::string name, const ExtentParam* extent) {
  resources_.push_back(
      std::make_unique<MemoryRes>(std::move(name), MemoryRes::Loc::kHost, extent));
  needs_refresh_ = true;
  return static_cast<MemoryRes*>(resources_.back().get());
}
MemoryRes* Pipeline::AddGlobalMemory(std::string name, const ExtentParam* extent) {
  resources_.push_back(
      std::make_unique<MemoryRes>(std::move(name), MemoryRes::Loc::kGlobal, extent));
  needs_refresh_ = true;
  return static_cast<MemoryRes*>(resources_.back().get());
}
MemoryRes* Pipeline::AddConstantMemory(std::string name, const ExtentParam* extent,
                                       ModuleRes* module, std::string constant_name) {
  resources_.push_back(std::make_unique<MemoryRes>(std::move(name), MemoryRes::Loc::kConstant,
                                                   extent, module, std::move(constant_name)));
  return static_cast<MemoryRes*>(resources_.back().get());
}
SubsetRes* Pipeline::AddSubset(std::string name, MemoryRes* base, const ExtentParam* window,
                               std::int64_t stride_elems, std::uint64_t reset_period) {
  resources_.push_back(
      std::make_unique<SubsetRes>(std::move(name), base, window, stride_elems, reset_period));
  return static_cast<SubsetRes*>(resources_.back().get());
}
TextureRes* Pipeline::AddTexture(std::string name, ModuleRes* module, std::string texture_name,
                                 MemoryRes* source, const ExtentParam* dims) {
  resources_.push_back(std::make_unique<TextureRes>(std::move(name), module,
                                                    std::move(texture_name), source, dims));
  needs_refresh_ = true;
  return static_cast<TextureRes*>(resources_.back().get());
}

CopyAction* Pipeline::AddCopy(std::string name, const ScheduleParam* schedule,
                              CopyAction::Endpoint src, CopyAction::Endpoint dst) {
  actions_.push_back(std::make_unique<CopyAction>(std::move(name), schedule, src, dst));
  return static_cast<CopyAction*>(actions_.back().get());
}
KernelExecAction* Pipeline::AddKernelExec(std::string name, const ScheduleParam* schedule,
                                          KernelRes* kernel, const TripletParam* grid,
                                          const TripletParam* block,
                                          std::vector<KernelExecAction::Arg> args,
                                          const IntParam* dynamic_smem) {
  actions_.push_back(std::make_unique<KernelExecAction>(std::move(name), schedule, kernel, grid,
                                                        block, std::move(args), dynamic_smem));
  return static_cast<KernelExecAction*>(actions_.back().get());
}
UserFnAction* Pipeline::AddUserFn(std::string name, const ScheduleParam* schedule,
                                  std::function<void(Pipeline&, std::uint64_t)> fn) {
  actions_.push_back(std::make_unique<UserFnAction>(std::move(name), schedule, std::move(fn)));
  return static_cast<UserFnAction*>(actions_.back().get());
}
FileIOAction* Pipeline::AddFileIO(std::string name, const ScheduleParam* schedule, MemoryRes* mem,
                                  std::string path, FileIOAction::Dir dir) {
  actions_.push_back(
      std::make_unique<FileIOAction>(std::move(name), schedule, mem, std::move(path), dir));
  return static_cast<FileIOAction*>(actions_.back().get());
}

int Pipeline::Refresh() {
  int refreshed = 0;
  for (auto& r : resources_) {
    if (r->Refresh(*this)) {
      r->BumpGeneration();
      ++refreshed;
    }
  }
  needs_refresh_ = false;
  if (refreshed) {
    KSPEC_LOG_INFO << "gpupf: refresh complete, " << refreshed << " resource(s) updated";
  }
  return refreshed;
}

void Pipeline::Run(std::uint64_t iterations) {
  for (std::uint64_t n = 0; n < iterations; ++n) {
    Refresh();  // no-op when nothing changed
    for (auto& a : actions_) {
      if (a->FiresAt(iter_)) a->Execute(*this, iter_);
    }
    ++iter_;
  }
}

double Pipeline::TotalSimMillis() const {
  double total = 0;
  for (const auto& a : actions_) total += a->timing().sim_millis;
  return total;
}

void Pipeline::ResetTiming() {
  for (auto& a : actions_) a->ResetTiming();
  runner_.TakeBreakdown();
}

std::string Pipeline::TimingReport() const {
  std::string out = "=== GPU-PF per-operation timing ===\n";
  for (const auto& a : actions_) {
    const ActionTiming& t = a->timing();
    out += Format("  %-28s invocations=%-6llu sim=%9.4f ms  wall=%9.4f ms\n", a->name().c_str(),
                  static_cast<unsigned long long>(t.invocations), t.sim_millis, t.wall_millis);
  }
  out += Format("  %-28s sim=%9.4f ms\n", "TOTAL", TotalSimMillis());
  return out;
}

}  // namespace kspec::gpupf
