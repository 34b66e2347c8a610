// The GPU-PF pipeline: resources (Tables 4.2/4.3), actions (Table 4.4), and
// the specification / refresh / execution program phases (Section 4.4.1).
//
// A pipeline is *specified* once by instantiating parameters, resources, and
// actions through the factory methods. Nothing is allocated or compiled at
// specification time. The *refresh* phase (run automatically before the first
// execution and after any parameter change) re-derives exactly the resources
// whose parameter dependencies changed: modules whose bound defines changed
// are recompiled (kernel re-specialization), memory whose extent changed is
// reallocated. The *execution* phase runs the scheduled actions per pipeline
// iteration and accumulates per-action timing, printable in the style of the
// dissertation's Appendix G.
//
// Module loads, kernel launches and the copy cost model all go through one
// launch::StageRunner, the shell every app driver uses: a module's compile
// time is charged to its stage once per binary, each launch is attributed to
// the tier that served it, and a kTiered pipeline re-specializes through the
// runner's TieredLoader.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "gpupf/params.hpp"
#include "launch/stage_runner.hpp"

namespace kspec::gpupf {

class Pipeline;

// ---------------------------------------------------------------------------
// Resources
// ---------------------------------------------------------------------------

class Resource {
 public:
  explicit Resource(std::string name) : name_(std::move(name)) {}
  virtual ~Resource() = default;
  const std::string& name() const { return name_; }

  // Re-derives the resource if any dependency changed. Returns true when work
  // was done (for the refresh log).
  virtual bool Refresh(Pipeline& p) = 0;

  // Bumped by the pipeline each time Refresh() reported work; downstream
  // resources (e.g. texture bindings onto a recompiled module) depend on it.
  std::uint64_t generation() const { return generation_; }
  void BumpGeneration() { ++generation_; }

 protected:
  // Version snapshot helper: true when any watched param changed since the
  // last call.
  bool DepsChanged(const std::vector<const Param*>& deps) {
    std::uint64_t sum = 0;
    for (const Param* d : deps) sum = sum * 1099511628211ull + d->version();
    if (sum == dep_snapshot_ && initialized_) return false;
    dep_snapshot_ = sum;
    initialized_ = true;
    return true;
  }

 private:
  std::string name_;
  std::uint64_t dep_snapshot_ = 0;
  std::uint64_t generation_ = 0;
  bool initialized_ = false;
};

// A Kernel-C module compiled at refresh time with -D values taken from bound
// parameters (the kernel-specialization automation of Section 4.4.1).
class ModuleRes : public Resource {
 public:
  ModuleRes(std::string name, std::string source) : Resource(std::move(name)), source_(std::move(source)) {}

  // Binds macro NAME to a parameter; the parameter's current value is
  // stringified into -D NAME=<value> at every refresh.
  void BindDefine(const std::string& macro, const Param* param) {
    bindings_.emplace_back(macro, param);
  }
  // Fixed define (not parameter-driven).
  void SetDefine(const std::string& macro, std::string value) {
    fixed_defines_[macro] = std::move(value);
  }

  // Loads through the pipeline's StageRunner under the module's name. Under
  // kInline only a bound-parameter change reloads; under kTiered every
  // refresh asks the loader, so heat counts pipeline iterations, and a newly
  // served build (RE to SK) reports work so dependent textures rebind.
  bool Refresh(Pipeline& p) override;

  vcuda::Module& module() const {
    KSPEC_CHECK_MSG(module_ != nullptr, "module used before refresh");
    return *module_;
  }

 private:
  std::string source_;
  std::vector<std::pair<std::string, const Param*>> bindings_;
  std::map<std::string, std::string> fixed_defines_;
  launch::SpecBuilder spec_;  // the define set of the current parameter values
  std::shared_ptr<vcuda::Module> module_;
};

// A kernel within a module (Table 4.2).
class KernelRes : public Resource {
 public:
  KernelRes(std::string name, ModuleRes* module, std::string kernel_name)
      : Resource(std::move(name)), module_(module), kernel_(std::move(kernel_name)) {}

  bool Refresh(Pipeline&) override { return false; }  // module handles it

  ModuleRes* module_res() const { return module_; }
  const std::string& kernel_name() const { return kernel_; }
  const vgpu::CompiledKernel& kernel() const { return module_->module().GetKernel(kernel_); }

 private:
  ModuleRes* module_;
  std::string kernel_;
};

// Generic memory reference (Tables 4.2/4.3): host, device-global, or a
// module's constant array. A subset view is a separate resource below.
class MemoryRes : public Resource {
 public:
  enum class Loc { kHost, kGlobal, kConstant };

  MemoryRes(std::string name, Loc loc, const ExtentParam* extent, ModuleRes* module = nullptr,
            std::string constant_name = {})
      : Resource(std::move(name)),
        loc_(loc),
        extent_(extent),
        module_(module),
        constant_name_(std::move(constant_name)) {}

  bool Refresh(Pipeline& p) override;

  Loc loc() const { return loc_; }
  const ExtentParam& extent() const { return *extent_; }

  // Device address (global memory only).
  vgpu::DevPtr dev_ptr() const {
    KSPEC_CHECK_MSG(loc_ == Loc::kGlobal && dev_ != 0, "not a refreshed device allocation");
    return dev_;
  }
  // Host buffer (host memory only).
  std::vector<unsigned char>& host() {
    KSPEC_CHECK_MSG(loc_ == Loc::kHost, "not host memory");
    return host_;
  }
  const std::vector<unsigned char>& host() const {
    KSPEC_CHECK_MSG(loc_ == Loc::kHost, "not host memory");
    return host_;
  }
  ModuleRes* module_res() const { return module_; }
  const std::string& constant_name() const { return constant_name_; }

  template <typename T>
  std::span<T> host_span() {
    return {reinterpret_cast<T*>(host_.data()), host_.size() / sizeof(T)};
  }

 private:
  friend class Pipeline;
  Loc loc_;
  const ExtentParam* extent_;
  ModuleRes* module_;
  std::string constant_name_;
  vgpu::DevPtr dev_ = 0;
  std::uint64_t dev_bytes_ = 0;
  std::vector<unsigned char> host_;
  vcuda::Context* owner_ = nullptr;
};

// A texture reference (Table 4.2): binds a module's __texture to a global
// memory reference with the given 2D extent. Re-binds automatically whenever
// the module is re-specialized or the backing memory is reallocated.
class TextureRes : public Resource {
 public:
  TextureRes(std::string name, ModuleRes* module, std::string texture_name, MemoryRes* source,
             const ExtentParam* dims)
      : Resource(std::move(name)),
        module_(module),
        texture_(std::move(texture_name)),
        source_(source),
        dims_(dims) {}

  bool Refresh(Pipeline& p) override;

 private:
  ModuleRes* module_;
  std::string texture_;
  MemoryRes* source_;
  const ExtentParam* dims_;
  std::uint64_t bound_module_gen_ = ~0ull;
  std::uint64_t bound_source_gen_ = ~0ull;
  std::uint64_t bound_dims_version_ = 0;
};

// A moving window over another memory reference (Table 4.3 "Subset"): each
// pipeline iteration advances the element offset by `stride_elems`, wrapping
// every `reset_period` iterations. Usable wherever a full reference is.
class SubsetRes : public Resource {
 public:
  SubsetRes(std::string name, MemoryRes* base, const ExtentParam* window,
            std::int64_t stride_elems, std::uint64_t reset_period)
      : Resource(std::move(name)),
        base_(base),
        window_(window),
        stride_elems_(stride_elems),
        reset_period_(reset_period ? reset_period : 1) {}

  bool Refresh(Pipeline&) override { return false; }

  MemoryRes* base() const { return base_; }
  const ExtentParam& window() const { return *window_; }

  std::uint64_t OffsetBytesAt(std::uint64_t iter) const {
    std::uint64_t k = iter % reset_period_;
    return static_cast<std::uint64_t>(stride_elems_ * static_cast<std::int64_t>(k)) *
           window_->elem_size();
  }

 private:
  MemoryRes* base_;
  const ExtentParam* window_;
  std::int64_t stride_elems_;
  std::uint64_t reset_period_;
};

// ---------------------------------------------------------------------------
// Actions
// ---------------------------------------------------------------------------

struct ActionTiming {
  std::uint64_t invocations = 0;
  double sim_millis = 0;    // simulated device/transfer time
  double wall_millis = 0;   // host wall time (compilation, user functions)
};

class Action {
 public:
  Action(std::string name, const ScheduleParam* schedule)
      : name_(std::move(name)), schedule_(schedule) {}
  virtual ~Action() = default;

  const std::string& name() const { return name_; }
  bool FiresAt(std::uint64_t iter) const { return !schedule_ || schedule_->FiresAt(iter); }
  const ActionTiming& timing() const { return timing_; }
  void ResetTiming() { timing_ = {}; }

  virtual void Execute(Pipeline& p, std::uint64_t iter) = 0;

 protected:
  ActionTiming timing_;

 private:
  std::string name_;
  const ScheduleParam* schedule_;
};

// Any-to-any memory copy (Table 4.4): the endpoint kinds determine the
// transfer direction and its timing model.
class CopyAction : public Action {
 public:
  using Endpoint = std::variant<MemoryRes*, SubsetRes*>;
  CopyAction(std::string name, const ScheduleParam* schedule, Endpoint src, Endpoint dst)
      : Action(std::move(name), schedule), src_(src), dst_(dst) {}

  void Execute(Pipeline& p, std::uint64_t iter) override;

 private:
  Endpoint src_, dst_;
};

// Kernel launch (Table 4.4). Arguments are parameters or memory references,
// marshalled against the kernel's parameter list at execution time.
class KernelExecAction : public Action {
 public:
  using Arg = std::variant<const IntParam*, const FloatParam*, const PointerParam*, MemoryRes*,
                           SubsetRes*>;

  KernelExecAction(std::string name, const ScheduleParam* schedule, KernelRes* kernel,
                   const TripletParam* grid, const TripletParam* block,
                   std::vector<Arg> args, const IntParam* dynamic_smem = nullptr)
      : Action(std::move(name), schedule),
        kernel_(kernel),
        grid_(grid),
        block_(block),
        args_(std::move(args)),
        dynamic_smem_(dynamic_smem) {}

  void Execute(Pipeline& p, std::uint64_t iter) override;

  const vgpu::LaunchStats& last_stats() const { return last_stats_; }

 private:
  KernelRes* kernel_;
  const TripletParam* grid_;
  const TripletParam* block_;
  std::vector<Arg> args_;
  const IntParam* dynamic_smem_;
  vgpu::LaunchStats last_stats_;
};

// Arbitrary host callback (Table 4.4 "User function").
class UserFnAction : public Action {
 public:
  UserFnAction(std::string name, const ScheduleParam* schedule,
               std::function<void(Pipeline&, std::uint64_t)> fn)
      : Action(std::move(name), schedule), fn_(std::move(fn)) {}

  void Execute(Pipeline& p, std::uint64_t iter) override;

 private:
  std::function<void(Pipeline&, std::uint64_t)> fn_;
};

// Binary file input/output (Table 4.4 "File I/O") against a host memory
// reference.
class FileIOAction : public Action {
 public:
  enum class Dir { kRead, kWrite };
  FileIOAction(std::string name, const ScheduleParam* schedule, MemoryRes* mem, std::string path,
               Dir dir)
      : Action(std::move(name), schedule), mem_(mem), path_(std::move(path)), dir_(dir) {}

  void Execute(Pipeline& p, std::uint64_t iter) override;

 private:
  MemoryRes* mem_;
  std::string path_;
  Dir dir_;
};

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

class Pipeline {
 public:
  // kInline compiles each module's specialization when its bound parameters
  // change. kTiered serves a changed parameter set from the module's
  // run-time-evaluated build until the set turns hot and its specialized
  // build is ready (compiled in the background when the context has an
  // AsyncCompileService attached); every module source must then compile
  // with no defines at all (the Appendix B single-source pattern).
  explicit Pipeline(vcuda::Context* ctx, launch::LoadPolicy policy = launch::LoadPolicy::kInline)
      : runner_(*ctx, {.policy = policy}) {}
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  vcuda::Context& ctx() { return runner_.ctx(); }
  // The launch shell: per-stage compile ms (one stage per module), launches
  // per kernel action with the tier that served them, and the tiered stats.
  const launch::StageRunner& runner() const { return runner_; }

  // ---- specification phase: parameters ----
  IntParam* AddInt(std::string name, std::int64_t v);
  FloatParam* AddFloat(std::string name, double v);
  BoolParam* AddBool(std::string name, bool v);
  TypeParam* AddType(std::string name, vgpu::Type t);
  TripletParam* AddTriplet(std::string name, vgpu::Dim3 v);
  PairParam* AddPair(std::string name, std::int64_t a, std::int64_t b);
  PointerParam* AddPointer(std::string name, vgpu::DevPtr p);
  ExtentParam* AddExtent(std::string name, std::size_t elem, std::uint64_t x, std::uint64_t y = 1,
                         std::uint64_t z = 1);
  ScheduleParam* AddSchedule(std::string name, std::uint64_t period = 1, std::uint64_t delay = 0);
  StepParam* AddStep(std::string name, std::int64_t lo, std::int64_t hi, std::int64_t stride);

  // ---- specification phase: resources ----
  ModuleRes* AddModule(std::string name, std::string source);
  KernelRes* AddKernel(std::string name, ModuleRes* module, std::string kernel_name);
  MemoryRes* AddHostMemory(std::string name, const ExtentParam* extent);
  MemoryRes* AddGlobalMemory(std::string name, const ExtentParam* extent);
  MemoryRes* AddConstantMemory(std::string name, const ExtentParam* extent, ModuleRes* module,
                               std::string constant_name);
  SubsetRes* AddSubset(std::string name, MemoryRes* base, const ExtentParam* window,
                       std::int64_t stride_elems, std::uint64_t reset_period);
  TextureRes* AddTexture(std::string name, ModuleRes* module, std::string texture_name,
                         MemoryRes* source, const ExtentParam* dims);

  // ---- specification phase: actions ----
  CopyAction* AddCopy(std::string name, const ScheduleParam* schedule, CopyAction::Endpoint src,
                      CopyAction::Endpoint dst);
  KernelExecAction* AddKernelExec(std::string name, const ScheduleParam* schedule,
                                  KernelRes* kernel, const TripletParam* grid,
                                  const TripletParam* block,
                                  std::vector<KernelExecAction::Arg> args,
                                  const IntParam* dynamic_smem = nullptr);
  UserFnAction* AddUserFn(std::string name, const ScheduleParam* schedule,
                          std::function<void(Pipeline&, std::uint64_t)> fn);
  FileIOAction* AddFileIO(std::string name, const ScheduleParam* schedule, MemoryRes* mem,
                          std::string path, FileIOAction::Dir dir);

  // ---- refresh phase ----
  // Refreshes stale resources; returns the number refreshed.
  int Refresh();

  // ---- execution phase ----
  // Runs `iterations` pipeline iterations (refreshing first if needed).
  void Run(std::uint64_t iterations = 1);

  std::uint64_t iteration() const { return iter_; }
  void ResetIteration() { iter_ = 0; }

  // Total simulated milliseconds across all actions since the last reset.
  double TotalSimMillis() const;
  // Clears every action's timing and starts a fresh runner breakdown.
  void ResetTiming();

  // Appendix-G-style per-operation timing report.
  std::string TimingReport() const;

  const std::vector<std::unique_ptr<Action>>& actions() const { return actions_; }

 private:
  friend class ModuleRes;
  friend class KernelExecAction;

  launch::StageRunner runner_;
  std::vector<std::unique_ptr<Param>> params_;
  std::vector<std::unique_ptr<Resource>> resources_;
  std::vector<std::unique_ptr<Action>> actions_;
  std::uint64_t iter_ = 0;
  bool needs_refresh_ = true;
};

}  // namespace kspec::gpupf
