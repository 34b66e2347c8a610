// Interpreter internals: the decoded-dispatch fast path over the shared SIMT
// rules. See the header comment and DESIGN.md section 8 for the
// architecture; the short version:
//
//   decode once   — DecodeKernel builds the kernel's vgpu::Cfg and turns the
//                   static instruction stream into per-pc handler and ILP
//                   rows plus one record per block: where it ends, where its
//                   straight-line part ends, and its BlockIssueCost. The
//                   per-issue switches over opcode, operand type, and issue
//                   cost run once per *static* instruction instead of once
//                   per *dynamic* one.
//   one semantics — every handler is a thin adapter onto simt.hpp, the lane
//                   rules a native TU runs too, and RunWarp runs each block
//                   the way an emitted run_warp does: Resume, one
//                   WarpTally::Charge for the whole block (so the watchdog
//                   counts a block at entry), the ILP adds in pc order, one
//                   indirect call per straight-line instruction, then the
//                   simt.hpp control rule the block's last instruction names.
//   run chunked   — ExecuteLaunch (tier.hpp) splits the grid into chunks by a
//                   rule that depends only on the grid and folds the
//                   per-chunk partials in chunk order, so stats are
//                   bit-identical across worker counts, serial included.
#include "vgpu/interp.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "support/status.hpp"
#include "vgpu/cost.hpp"
#include "vgpu/isa.hpp"
#include "vgpu/simt.hpp"
#include "vgpu/tier.hpp"

namespace kspec::vgpu {

// Internal machinery. Deliberately *not* in an anonymous namespace:
// DecodedKernel has external linkage (it is forward-declared in the header),
// so the types it embeds must too.
namespace interp_detail {

class BlockRunner;

// One decoded-instruction handler. The Instr is passed alongside so handlers
// stay stateless function pointers (operand registers, immediates, and the
// compare/space/target fields live on the Instr row).
using ExecFn = void (*)(BlockRunner&, const Instr&, Warp&, unsigned lane_base);

// One vgpu::Cfg block, stored at its first pc. Handlers run for the pcs
// [begin, body_end); when body_end < end, the control instruction at
// end - 1 ends the block.
struct DecodedBlock {
  std::uint32_t end = 0;
  std::uint32_t body_end = 0;
  double issue_cost = 0.0;  // BlockIssueCost, charged once per entry
};

// An operand with its per-lane row pointer hoisted: resolved once per
// warp-instruction instead of once per lane access. The simt lane rules'
// operand accessor on this tier.
struct LaneSrc {
  const std::uint64_t* row;  // pre-offset by lane_base; nullptr -> immediate
  std::uint64_t imm;
  std::uint64_t operator[](unsigned l) const { return row ? row[l] : imm; }
};

}  // namespace interp_detail

using namespace interp_detail;

struct DecodedKernel {
  std::string name;
  std::vector<Instr> code;
  // Per pc: the straight-line handler (null for control instructions) and
  // the static ILP the warp adds on entering the pc's block.
  std::vector<ExecFn> fn;
  std::vector<float> ilp;
  std::vector<DecodedBlock> blocks;  // indexed by each block's first pc
  std::size_t num_params = 0;
  int num_vregs = 0;
  unsigned static_smem_bytes = 0;
  int reg_count = 0;  // compile-time register demand (pre-clamp)
  bool has_global_atomic = false;  // HasGlobalAtomic(code)
};

namespace interp_detail {

// Executes blocks on one host thread. A runner owns the per-block state
// (register file, shared memory, warps) and is reused across blocks — and
// across chunks, through ExecuteLaunch's free list.
class BlockRunner final : public BlockExecutor {
 public:
  BlockRunner(const DecodedKernel& dk, const LaunchConfig& cfg, const LaunchShell& shell,
              GlobalMemory* gmem, std::span<const unsigned char> const_mem, FaultSite* site)
      : dk_(dk), cfg_(cfg), layout_(shell.layout) {
    regs_.resize(static_cast<std::size_t>(dk.num_vregs) * layout_.stride);
    shared_.resize(dk.static_smem_bytes + cfg.dynamic_smem_bytes);
    warps_.resize(layout_.nwarps);
    env_.dev = &shell.consts;
    env_.gm = gmem;
    env_.regs = regs_.data();
    env_.stride = layout_.stride;
    env_.shared = shared_.data();
    env_.shared_size = shared_.size();
    env_.cmem = const_mem.data();
    env_.cmem_size = const_mem.size();
    env_.textures = cfg.textures.data();
    env_.ntextures = cfg.textures.size();
    env_.fail_ctx = site;
    env_.fail = &RaiseFault;
  }

  void RunBlock(const Dim3& ctaid, BlockStats& stats) override {
    ctaid_ = ctaid;
    env_.st = &stats;
    simt::RunBlock(env_, warps_.data(), env_.dev->warp_size, layout_.nthreads,
                   cfg_.args.data(), cfg_.args.size(),
                   [this](Warp& w, unsigned lane_base) { RunWarp(w, lane_base); });
  }

  std::uint64_t* Row(std::int32_t reg) { return env_.Row(reg); }
  LaneSrc Src(const Operand& o, unsigned lane_base) {
    if (o.is_reg()) return {Row(o.reg) + lane_base, 0};
    return {nullptr, o.imm};
  }

  // ---- handlers (selected at decode, one indirect call per issue) ----

  // The register-only forms: one handler per simt.hpp lane body, picked by
  // vgpu::WithLaneRule.
  template <simt::LaneFn BODY>
  static void LaneOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lb) {
    simt::Lanes<BODY>(w.mask, R.Row(i.dst) + lb, R.Src(i.a, lb), R.Src(i.b, lb), R.Src(i.c, lb));
  }
  static void NopOp(BlockRunner&, const Instr&, Warp&, unsigned) {}
  template <SpecialReg SR>
  static void SregOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lb) {
    simt::Sreg<SR>(R, w.mask, lb, R.Row(i.dst) + lb);
  }
  // Invalid (opcode, type) pairs decode to this: the fault still fires at
  // execution time (not decode time), exactly like a native TU's.
  static void BadOp(BlockRunner& R, const Instr& i, Warp&, unsigned) {
    R.env_.Fail(Fault::kBadOp, static_cast<std::uint64_t>(&i - R.dk_.code.data()));
  }

  // Memory handler specialized at decode on (space, direction, element size,
  // i32 sign handling): the per-issue space/size branching disappears and the
  // copy loops use fixed-width accesses.
  template <Space SP, bool LOAD, int ESZ, bool SEXT>
  static void MemOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lb) {
    simt::Mem<SP, LOAD, ESZ, SEXT>(R.env_, w, LOAD ? R.Row(i.dst) + lb : nullptr, R.Src(i.a, lb),
                                   static_cast<std::uint64_t>(static_cast<std::int64_t>(i.b.imm)),
                                   R.Src(i.c, lb));
  }
  static void MemFaultOp(BlockRunner& R, const Instr& i, Warp&, unsigned) {
    R.env_.Fail(simt::MemFault(i.space));
  }
  static void AtomicOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lb) {
    simt::Atomic(R.env_, w, i.op, i.type, i.space, i.dst >= 0 ? R.Row(i.dst) + lb : nullptr,
                 R.Src(i.a, lb), R.Src(i.b, lb), R.Src(i.c, lb));
  }
  template <bool IS2D>
  static void TexOp(BlockRunner& R, const Instr& i, Warp& w, unsigned lb) {
    simt::Tex<IS2D>(R.env_, w, i.target, R.Row(i.dst) + lb, R.Src(i.a, lb), R.Src(i.b, lb));
  }

  // The coordinate source simt::Sreg reads, axis 0..2 for x..z.
  const std::uint32_t* tid(int a) const {
    return a == 0 ? layout_.tid_x.data() : a == 1 ? layout_.tid_y.data() : layout_.tid_z.data();
  }
  std::uint64_t ntid(int a) const { return Axis(cfg_.block, a); }
  std::uint64_t ctaid(int a) const { return Axis(ctaid_, a); }
  std::uint64_t nctaid(int a) const { return Axis(cfg_.grid, a); }
  unsigned warp_size() const { return env_.dev->warp_size; }

 private:
  static std::uint64_t Axis(const Dim3& d, int a) { return a == 0 ? d.x : a == 1 ? d.y : d.z; }
  void RunWarp(Warp& w, unsigned lane_base);

  const DecodedKernel& dk_;
  const LaunchConfig& cfg_;
  const BlockLayout& layout_;
  simt::Env<GlobalMemory*> env_;
  Dim3 ctaid_;
  std::vector<std::uint64_t> regs_;
  std::vector<unsigned char> shared_;
  std::vector<Warp> warps_;
  // Warp instructions retired by this runner so far (across blocks): the
  // watchdog budget is per runner, so a non-terminating loop still trips it.
  std::uint64_t wd_accum_ = 0;
};

// Runs the warp block by block, as an emitted run_warp does. `continue`
// keeps the warp running; leaving the switch ends the run, at a barrier or
// done.
void BlockRunner::RunWarp(Warp& w, unsigned lane_base) {
  const Instr* code = dk_.code.data();
  const ExecFn* fn = dk_.fn.data();
  const float* ilp = dk_.ilp.data();
  const DecodedBlock* blocks = dk_.blocks.data();
  const std::uint32_t ncode = static_cast<std::uint32_t>(dk_.code.size());
  simt::WarpTally tally(*env_.dev, wd_accum_);
  while (simt::Resume(env_, w, ncode)) {
    // Every pc Resume lets through starts a block (a branch target, a
    // reconvergence pc or the pc after a control instruction).
    const std::uint32_t begin = w.pc;
    const DecodedBlock b = blocks[begin];
    const std::uint64_t n = b.end - begin;
    tally.Charge(env_, n, n * simt::LaneCount(w.mask), b.issue_cost);
    for (std::uint32_t pc = begin; pc < b.end; ++pc) tally.ilp_sum += ilp[pc];
    for (std::uint32_t pc = begin; pc < b.body_end; ++pc) fn[pc](*this, code[pc], w, lane_base);
    const std::uint32_t last = b.end - 1;
    const Instr& inst = code[last];
    switch (inst.op) {
      case Opcode::kBra:
        w.pc = static_cast<std::uint32_t>(inst.target);
        continue;
      case Opcode::kBraPred:
        simt::Branch(env_, w, Row(inst.a.reg) + lane_base, inst.neg, last,
                     static_cast<std::uint32_t>(inst.target), inst.reconv);
        continue;
      case Opcode::kBarSync:
        simt::Barrier(env_, w, b.end);
        break;
      case Opcode::kExit:
        if (simt::ExitLanes(env_, w)) continue;
        break;
      default:
        w.pc = b.end;
        continue;
    }
    break;
  }
  tally.Flush(*env_.st, wd_accum_);
}

// ---- handler selection (once per *static* instruction) ----

template <Space SP>
ExecFn PickMemSized(bool load, std::size_t esz, bool sext) {
  if (load) {
    switch (esz) {
      case 1: return &BlockRunner::MemOp<SP, true, 1, false>;
      case 2: return &BlockRunner::MemOp<SP, true, 2, false>;
      case 4:
        return sext ? ExecFn(&BlockRunner::MemOp<SP, true, 4, true>)
                    : ExecFn(&BlockRunner::MemOp<SP, true, 4, false>);
      case 8: return &BlockRunner::MemOp<SP, true, 8, false>;
    }
  } else if constexpr (SP != Space::kConst) {
    switch (esz) {
      case 1: return &BlockRunner::MemOp<SP, false, 1, false>;
      case 2: return &BlockRunner::MemOp<SP, false, 2, false>;
      case 4: return &BlockRunner::MemOp<SP, false, 4, false>;
      case 8: return &BlockRunner::MemOp<SP, false, 8, false>;
    }
  }
  return nullptr;
}

ExecFn SelectMem(const Instr& i) {
  const bool load = i.op == Opcode::kLd;
  if (!simt::MemSupported(i.space, load)) return &BlockRunner::MemFaultOp;
  const std::size_t esz = TypeSize(i.type);
  const bool sext = load && i.type == Type::kI32;
  switch (i.space) {
    case Space::kGlobal: return PickMemSized<Space::kGlobal>(load, esz, sext);
    case Space::kShared: return PickMemSized<Space::kShared>(load, esz, sext);
    default: return PickMemSized<Space::kConst>(load, esz, sext);
  }
}

}  // namespace interp_detail

std::shared_ptr<const DecodedKernel> DecodeKernel(const CompiledKernel& kernel,
                                                  const DeviceProfile& dev) {
  auto dk = std::make_shared<DecodedKernel>();
  dk->name = kernel.name;
  dk->code = kernel.code;
  dk->num_params = kernel.params.size();
  dk->num_vregs = kernel.num_vregs;
  dk->static_smem_bytes = kernel.static_smem_bytes;
  dk->reg_count = kernel.stats.reg_count;
  dk->has_global_atomic = HasGlobalAtomic(kernel.code);
  const std::size_t ncode = kernel.code.size();
  dk->ilp = kernel.ilp_at_pc.size() == ncode ? kernel.ilp_at_pc : std::vector<float>(ncode);
  dk->fn.resize(ncode);
  for (std::size_t pc = 0; pc < ncode; ++pc) {
    const Instr& i = kernel.code[pc];
    ExecFn& fn = dk->fn[pc];
    switch (i.op) {
      case Opcode::kBra:
      case Opcode::kBraPred:
      case Opcode::kBarSync:
      case Opcode::kExit: continue;  // RunWarp runs these itself
      case Opcode::kNop: fn = &BlockRunner::NopOp; break;
      case Opcode::kLd:
      case Opcode::kSt: fn = SelectMem(i); break;
      case Opcode::kAtomAdd:
      case Opcode::kAtomMin:
      case Opcode::kAtomMax:
      case Opcode::kAtomExch:
      case Opcode::kAtomCas: fn = &BlockRunner::AtomicOp; break;
      case Opcode::kTex2D: fn = &BlockRunner::TexOp<true>; break;
      case Opcode::kTex1D: fn = &BlockRunner::TexOp<false>; break;
      case Opcode::kSreg:
        fn = WithEnum<SpecialReg, static_cast<std::size_t>(SpecialReg::kWarpId) + 1>(
            static_cast<SpecialReg>(i.a.imm),
            [&]<SpecialReg SR>() -> ExecFn { return &BlockRunner::SregOp<SR>; });
        break;
      default:
        fn = WithLaneRule(i, []<simt::LaneFn BODY>(LaneBodyName) -> ExecFn {
          return &BlockRunner::LaneOp<BODY>;
        });
        break;
    }
    if (!fn) fn = &BlockRunner::BadOp;
  }
  dk->blocks.resize(ncode);
  const Cfg cfg(kernel.code);
  for (const Cfg::Block& block : cfg.blocks()) {
    const auto end = static_cast<std::uint32_t>(block.end);
    DecodedBlock& b = dk->blocks[static_cast<std::size_t>(block.begin)];
    b.end = end;
    b.body_end = dk->fn[end - 1] ? end : end - 1;  // a control instruction has no handler
    b.issue_cost = BlockIssueCost(dev.IsFermi(), kernel.code, block);
  }
  return dk;
}

LaunchStats Interpreter::Launch(const CompiledKernel& kernel, const LaunchConfig& cfg,
                                std::span<const unsigned char> const_mem) {
  return Launch(*DecodeKernel(kernel, dev_), cfg, const_mem);
}

LaunchStats Interpreter::Launch(const DecodedKernel& kernel, const LaunchConfig& cfg,
                                std::span<const unsigned char> const_mem) {
  // Validation, spill clamping, policy resolution, the block layout, the
  // chunk driver and the final fold are the tier-shared launch shell
  // (vgpu/tier.hpp) — the native backend runs the exact same code.
  LaunchShell shell = PrepareLaunch(dev_, cfg, kernel.reg_count, kernel.static_smem_bytes,
                                    kernel.has_global_atomic);
  KSPEC_CHECK_MSG(cfg.args.size() == kernel.num_params, "argument count mismatch");
  FaultSite site{&kernel.code, kernel.static_smem_bytes + cfg.dynamic_smem_bytes,
                 const_mem.size()};
  return ExecuteLaunch(dev_, shell, cfg.grid, [&] {
    return std::make_unique<BlockRunner>(kernel, cfg, shell, gmem_, const_mem, &site);
  });
}

}  // namespace kspec::vgpu
