// See codegen.hpp. The emitted translation unit holds only its kernels, in
// four parts:
//
//   1. the runtime text: vgpu/simt.hpp and native/abi.hpp, embedded by the
//      build — the very lane rules, cost charges and ABI structs the
//      interpreter and the engine compile. It opens the TU with nothing
//      before it, so a build can load it precompiled (build.hpp);
//   2. the TU-only prelude (kPrelude below): the special registers'
//      coordinate source and the operand accessors, preceded in a shape
//      variant by its KSPEC_SHAPE* #defines;
//   3. one run_warp_kN function per kernel, a RunWarpFn over the block state
//      the engine builds (abi.hpp's KspecNativeState): a `dispatch` label
//      over simt::Resume, and a switch over the vgpu::Cfg basic blocks whose
//      cases are straight-line code over the simt rules, control
//      instructions included, each opening with the block's charges. Each
//      maximal run of register-only instructions is one fused lane loop
//      (EmitLaneRun) calling, per lane and in pc order, the lane body
//      vgpu::WithLaneRule maps each instruction to, as the decoder picks
//      it; a form that keeps a loop of its own (simt::LaneLoopOfItsOwn) is
//      one `Lanes<BODY>(…)` call, and every other instruction one call;
//   4. the kernel tables, the embedded build key and the extern "C" entry
//      points, kspec_native_warp_fn among them.
//
// The block scheduler (simt::RunBlock), the warps and the reconvergence
// stack's pushes and pops are not in the TU: the engine's runner runs the
// scheduler host-side and calls a kernel's warp function per warp run, and
// the stack is reached through the state's stack policy. So a TU instantiates
// no std::vector operation, holds no thread_local state, and every SO can be
// unloaded.
//
// The charge rule is the decoded tier's too (interp.cpp): a warp entering a
// block charges it once, with WarpTally::Charge(n, n * LaneCount(mask),
// BlockIssueCost), so the watchdog counts the whole block at entry; then it
// adds the block's ILP values in pc order. The mask is constant inside a
// block (control flow only happens at block boundaries), and all
// memory-side charges stay per instruction inside the simt rules. So both
// tiers fold the same values in the same order, bit for bit (COSTMODEL.md).
#include "native/codegen.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "support/str.hpp"
#include "native/maskprop.hpp"
#include "native/shape.hpp"
#include "vgpu/cost.hpp"
#include "vgpu/isa.hpp"
#include "vgpu/simt.hpp"

namespace kspec::native {
namespace {

using vgpu::CompiledKernel;
using vgpu::Instr;
using vgpu::Opcode;
using vgpu::Operand;
using vgpu::Space;
using vgpu::Type;

// The TU-only prelude. It follows kEmbeddedRuntime — the text of
// vgpu/simt.hpp and native/abi.hpp, generated by src/native/CMakeLists.txt —
// and holds only what exists in a TU alone: the coordinate source of the
// special registers and the operand accessors. The block state the warp
// functions take (KspecNativeState) is built by the engine.
constexpr const char* kPrelude = R"kspecrt(
namespace kspec_rt {

using namespace kspec::vgpu;
using namespace kspec::vgpu::simt;
using namespace kspec::native;
// The emitter names enumerators by value: Op(3) is Opcode::kAdd.
using Op = Opcode;
using Ty = Type;
using Cmp = CmpOp;
using Sp = Space;
using SR = SpecialReg;
using State = KspecNativeState;

// The coordinate source SregLane reads (axis 0..2 for x..z). Shape-specialized
// TUs #define KSPEC_SHAPE and the KSPEC_SHAPE_* launch dimensions between the
// runtime text and this prelude, so there the block and grid dimensions are
// constants; the generic TU reads them from the launch descriptor.
struct Coords {
  const State& S;
  const u32* tid(int a) const { return a == 0 ? S.L->tid_x : a == 1 ? S.L->tid_y : S.L->tid_z; }
  u64 ctaid(int a) const { return a == 0 ? S.ctaid_x : a == 1 ? S.ctaid_y : S.ctaid_z; }
#ifdef KSPEC_SHAPE
  u64 ntid(int a) const {
    return a == 0 ? KSPEC_SHAPE_BLOCK_X : a == 1 ? KSPEC_SHAPE_BLOCK_Y : KSPEC_SHAPE_BLOCK_Z;
  }
  u64 nctaid(int a) const {
    return a == 0 ? KSPEC_SHAPE_GRID_X : a == 1 ? KSPEC_SHAPE_GRID_Y : KSPEC_SHAPE_GRID_Z;
  }
#else
  u64 ntid(int a) const { return a == 0 ? S.L->block_x : a == 1 ? S.L->block_y : S.L->block_z; }
  u64 nctaid(int a) const { return a == 0 ? S.L->grid_x : a == 1 ? S.L->grid_y : S.L->grid_z; }
#endif
  unsigned warp_size() const { return S.L->dev.warp_size; }
};

// Operands: the emitter writes `RS{RW(S,n)+lb}` for a register and `IM{imm}`
// for an immediate, so the lane loops specialize on the operand kind at
// host-compile time.
inline u64* RW(State& S, int r) { return S.Row(r); }
struct RS { const u64* p; u64 operator[](unsigned l) const { return p[l]; } };
struct IM { u64 v; u64 operator[](unsigned) const { return v; } };

)kspecrt";

// The exported entry points, after the emitted kernels and their tables.
constexpr const char* kEntryPoints = R"kspecrt(}  // namespace kspec_rt

#define KSPEC_EXPORT extern "C" __attribute__((visibility("default")))

KSPEC_EXPORT int kspec_native_abi_version() { return kspec::native::kNativeAbiVersion; }
KSPEC_EXPORT const char* kspec_native_build_key() { return kspec_rt::kBuildKey; }
// The canonical key text is binary (embedded NULs), so its size travels
// separately — the loader must not strlen kBuildKey.
KSPEC_EXPORT unsigned long long kspec_native_build_key_size() {
  return sizeof(kspec_rt::kBuildKey) - 1;
}
KSPEC_EXPORT unsigned kspec_native_kernel_count() { return kspec_rt::kNumKernels; }
KSPEC_EXPORT const char* kspec_native_kernel_name(unsigned i) {
  return i < kspec_rt::kNumKernels ? kspec_rt::kKernelNames[i] : "";
}
KSPEC_EXPORT kspec::native::RunWarpFn kspec_native_warp_fn(
    unsigned k, const kspec::native::KspecNativeLaunch* L) {
#ifdef KSPEC_SHAPE
  // Defense in depth: the engine only routes matching launches here, but a
  // stale or mislabeled artifact must fail loudly, not corrupt the stats.
  if (L->dev.warp_size != 32u || L->block_x != KSPEC_SHAPE_BLOCK_X ||
      L->block_y != KSPEC_SHAPE_BLOCK_Y || L->block_z != KSPEC_SHAPE_BLOCK_Z ||
      L->grid_x != KSPEC_SHAPE_GRID_X || L->grid_y != KSPEC_SHAPE_GRID_Y ||
      L->grid_z != KSPEC_SHAPE_GRID_Z) {
    L->cb.fail(L->cb.fail_ctx, static_cast<int>(kspec::vgpu::Fault::kBadDispatch), 0, 1);
    return nullptr;
  }
#else
  (void)L;
#endif
  return k < kspec_rt::kNumKernels ? kspec_rt::kKernelFns[k] : nullptr;
}
)kspecrt";

// ---------------------------------------------------------------------------
// Emission helpers (the host-side mirror of the interpreter's decode).
// Enumerators are emitted by value (`Op(3)`, `Ty(1)`): both sides compile
// the same enum definitions, and each statement carries its disassembly.
// ---------------------------------------------------------------------------

unsigned Val(auto e) { return static_cast<unsigned>(e); }

// Exact double literal (issue-cost sums are integer-valued; ILP values come
// from floats — hexfloat round-trips both without rounding).
std::string DoubleLit(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string SrcExpr(const Operand& o) {
  if (o.is_reg()) return Format("RS{RW(S,%d)+lb}", o.reg);
  return Format("IM{0x%llxull}", static_cast<unsigned long long>(o.imm));
}

std::string DstExpr(std::int32_t reg) { return Format("RW(S,%d)+lb", reg); }

// The statement for one non-control instruction at `pc`, mirroring the
// interpreter's decode: the same simt rule, or the same fault at execution
// time. `full` pins the mask to the proven full warp (shape variants): the
// kFullMask literal for Lanes, the FULL flag for the warp-level rules, so
// lane loops run straight-line.
std::string Stmt(const Instr& i, std::uint32_t pc, bool full) {
  const char* msk = full ? "kFullMask" : "w.mask";
  const std::string d = DstExpr(i.dst), a = SrcExpr(i.a), b = SrcExpr(i.b), c = SrcExpr(i.c);
  const std::string bad_op = Format("S.Fail(Fault::kBadOp, %uu);", pc);
  switch (i.op) {
    case Opcode::kSreg:  // a valid one joins a fused lane run (Fusable)
      return bad_op;
    case Opcode::kLd:
    case Opcode::kSt: {
      const bool load = i.op == Opcode::kLd;
      if (!vgpu::simt::MemSupported(i.space, load)) {
        return Format("S.Fail(Fault(%u));", Val(vgpu::simt::MemFault(i.space)));
      }
      const std::size_t esz = vgpu::TypeSize(i.type);
      if (esz != 1 && esz != 2 && esz != 4 && esz != 8) return bad_op;
      return Format("Mem<Sp(%u), %s, %zu, %s%s>(S, w, %s, %s, 0x%llxull, %s);", Val(i.space),
                    load ? "true" : "false", esz, load && i.type == Type::kI32 ? "true" : "false",
                    full ? ", true" : "", load ? d.c_str() : "nullptr", a.c_str(),
                    static_cast<unsigned long long>(i.b.imm), load ? "IM{0}" : c.c_str());
    }
    case Opcode::kTex2D:
    case Opcode::kTex1D:
      return Format("Tex<%s%s>(S, w, %d, %s, %s, %s);", i.op == Opcode::kTex2D ? "true" : "false",
                    full ? ", true" : "", i.target, d.c_str(), a.c_str(), b.c_str());
    default: {
      if (vgpu::IsAtomicOp(i.op)) {
        return Format("Atomic%s(S, w, Op(%u), Ty(%u), Sp(%u), %s, %s, %s, %s);",
                      full ? "<true>" : "", Val(i.op), Val(i.type), Val(i.space),
                      i.dst >= 0 ? d.c_str() : "nullptr", a.c_str(), b.c_str(), c.c_str());
      }
      const vgpu::LaneBodyName body =
          vgpu::WithLaneRule(i, []<vgpu::simt::LaneFn>(vgpu::LaneBodyName n) { return n; });
      if (body.format == nullptr) return bad_op;
      return Format("Lanes<%s>(%s, %s, %s, %s, %s);", Format(body.format, body.x, body.y).c_str(),
                    msk, d.c_str(), a.c_str(), b.c_str(), c.c_str());
    }
  }
}

// A register-only form that joins a fused lane run: a valid sreg, or a lane
// form whose body vgpu::WithLaneRule maps it to does not keep a loop of its
// own (simt::LaneLoopOfItsOwn). Anything else is a statement of its own and
// ends the run before it.
bool Fusable(const Instr& i) {
  if (i.dst < 0) return false;
  if (i.op == Opcode::kSreg) {
    return static_cast<vgpu::SpecialReg>(i.a.imm) <= vgpu::SpecialReg::kWarpId;
  }
  const vgpu::LaneBodyName body =
      vgpu::WithLaneRule(i, []<vgpu::simt::LaneFn>(vgpu::LaneBodyName n) { return n; });
  return body.format != nullptr && !body.own_loop;
}

// One lane's value of operand `o` inside a fused run: the local holding its
// vreg, or the immediate.
std::string LaneOperand(const Operand& o) {
  if (o.is_reg()) return Format("x%d", o.reg);
  return Format("0x%llxull", static_cast<unsigned long long>(o.imm));
}

// A straight-line run [begin, end) of Fusable instructions, emitted as one
// loop over the lanes (MCUDA's thread loop): each lane runs every
// instruction's simt.hpp lane body in pc order, on locals. A vreg the run
// reads before writing it is loaded once per lane; of the vregs it writes,
// only those in `stored` (live after the run) are stored back. The mask is
// constant inside a block and each form reads and writes only its own
// lane's slots, so the result bits are the per-instruction loops' bits.
//
// The row pointers are hoisted out of the loop as __restrict (distinct vregs
// own disjoint rows) and the loop is written out, not passed to a helper as
// a lambda: the host compiler vectorizes the full-warp loop only so. `full`:
// the block is proven full, so the loop is 0..31; otherwise the full-mask
// test picks that loop or the active-lane loop at run time.
void EmitLaneRun(std::string& out, const std::vector<Instr>& code, std::uint32_t begin,
                 std::uint32_t end, const std::vector<int>& stored, bool full,
                 std::vector<std::uint8_t>& touched) {
  // touched[r]: kLoaded and/or kWritten for a vreg this run names; all zero
  // on entry and again on return.
  constexpr std::uint8_t kLoaded = 1, kWritten = 2;
  auto is_stored = [&](int r) { return std::binary_search(stored.begin(), stored.end(), r); };
  std::vector<int> loaded, written;  // in first-touch order
  std::vector<std::string> body;
  out += Format("      {  // fused lane run, pcs %u..%u\n", begin, end - 1);
  for (std::uint32_t pc = begin; pc < end; ++pc) {
    const Instr& i = code[pc];
    out += Format("        // pc %u: %s\n", pc, vgpu::Disassemble(i, pc).c_str());
    vgpu::ForEachUse(i, [&](int r) {
      if (touched[r] != 0) return;
      touched[r] = kLoaded;
      loaded.push_back(r);
      body.push_back(Format("u64 x%d = r%d[l];", r, r));
    });
    std::string value;
    if (i.op == Opcode::kSreg) {
      value = Format("SregLane<SR(%u)>(Coords{S}, lb, l)", static_cast<unsigned>(i.a.imm));
    } else {
      const vgpu::LaneBodyName name =
          vgpu::WithLaneRule(i, []<vgpu::simt::LaneFn>(vgpu::LaneBodyName n) { return n; });
      value = Format("%s(%s, %s, %s)", Format(name.format, name.x, name.y).c_str(),
                     LaneOperand(i.a).c_str(), LaneOperand(i.b).c_str(),
                     LaneOperand(i.c).c_str());
    }
    const bool declared = touched[i.dst] != 0;
    if ((touched[i.dst] & kWritten) == 0) written.push_back(i.dst);
    touched[i.dst] |= kWritten;
    body.push_back(Format("%sx%d = %s;", declared ? "" : "u64 ", i.dst, value.c_str()));
  }
  for (const int r : written) {
    if (is_stored(r)) body.push_back(Format("r%d[l] = x%d;", r, r));
  }
  for (const int r : loaded) {
    if ((touched[r] & kWritten) == 0 || !is_stored(r)) {
      out += Format("        const u64* __restrict r%d = RW(S,%d)+lb;\n", r, r);
    }
  }
  for (const int r : written) {
    if (is_stored(r)) out += Format("        u64* __restrict r%d = RW(S,%d)+lb;\n", r, r);
  }
  for (const int r : loaded) touched[r] = 0;
  for (const int r : written) touched[r] = 0;
  auto loop = [&](const char* head, const char* first_line, const char* indent) {
    out += Format("%s%s {\n", indent, head);
    const std::string inner = std::string(indent) + "  ";
    if (first_line != nullptr) out += inner + first_line + "\n";
    for (const std::string& line : body) out += inner + line + "\n";
    out += Format("%s}\n", indent);
  };
  if (full) {
    loop("for (unsigned l = 0; l < 32; ++l)", nullptr, "        ");
  } else {
    out += "        if (w.mask == kFullMask) {\n";
    loop("for (unsigned l = 0; l < 32; ++l)", nullptr, "          ");
    out += "        } else {\n";
    loop("for (u32 m = w.mask; m != 0; m &= m - 1)", "const unsigned l = (unsigned)std::countr_zero(m);",
         "          ");
    out += "        }\n";
  }
  out += "      }\n";
}

// C string literal with fixed-width octal escapes (hex escapes would swallow
// following hex digits), split into chunks so lines stay reviewable.
std::string EscapedLiteral(const std::string& s, const char* indent) {
  std::string out = "\n";
  out += indent;
  out += '"';
  std::size_t col = 0;
  for (unsigned char ch : s) {
    if (col >= 96) {
      out += "\"\n";
      out += indent;
      out += '"';
      col = 0;
    }
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += static_cast<char>(ch);
      col += 2;
    } else if (ch >= 32 && ch < 127) {
      out += static_cast<char>(ch);
      ++col;
    } else {
      out += Format("\\%03o", ch);
      col += 4;
    }
  }
  out += '"';
  return out;
}

// One emitted run_warp body. The generic TU calls this once per kernel with
// no facts; a shape TU calls it for the `_full` body of interior warps and,
// when the block size is not a multiple of 32, for the `_gen` body of the
// boundary warp, each with the mask-propagation facts for that entry
// assumption, plus a tiny dispatcher that selects on `lb`.
struct KernelVariant {
  const char* suffix = "";          // "", "_full", or "_gen"
  const MaskFacts* facts = nullptr; // branch classifications + full blocks
  bool full_entry = false;          // body may trust facts->full_at
};

BranchKind BranchKindAt(const KernelVariant& v, std::uint32_t pc) {
  if (v.facts == nullptr || pc >= v.facts->branch.size()) return BranchKind::kScan;
  return v.facts->branch[pc];
}

void EmitKernel(std::string& out, const CompiledKernel& ker, unsigned idx,
                const KernelVariant& variant) {
  const std::vector<Instr>& code = ker.code;
  const std::uint32_t ncode = static_cast<std::uint32_t>(code.size());
  const bool has_ilp = ker.ilp_at_pc.size() == code.size();

  out += Format("// kernel %u: %s%s\n", idx, ker.name.c_str(),
                variant.full_entry ? " (full-warp body)" : "");
  out += Format("static void run_warp_k%u%s(State& S, Warp& w, const unsigned lb) {\n", idx,
                variant.suffix);
  out += "  (void)lb;\n";
  out += "  WarpTally T(*S.dev, *S.wd_accum);\n";
  // `goto dispatch` keeps the warp running; `break` ends its run, at a
  // barrier or done.
  out += " dispatch:\n";
  out += Format("  if (Resume(S, w, %uu)) switch (w.pc) {\n", ncode);

  // One case per block: every pc Resume lets through is a block's first pc
  // (a branch target, a reconvergence pc or a fall-through). Control-flow
  // instructions always end their block.
  const vgpu::Cfg cfg(code);
  const vgpu::Liveness liveness(code, cfg);
  // live_at[r] == stamp: vreg r is live at the current point of the backward
  // walk over the block stamped `stamp` (one stamp per block).
  std::vector<std::uint32_t> live_at(liveness.num_regs(), 0);
  std::uint32_t stamp = 0;
  std::vector<std::uint8_t> touched(liveness.num_regs(), 0);  // EmitLaneRun's scratch
  for (int bi = 0; bi < cfg.size(); ++bi) {
    const vgpu::Cfg::Block& block = cfg[bi];
    const auto leader = static_cast<std::uint32_t>(block.begin);
    const auto end = static_cast<std::uint32_t>(block.end);
    const std::uint64_t n = end - leader;
    // Proven-full block: w.mask == kFullMask on every entry, so lane charges
    // fold to constants and the helpers skip their mask scans.
    const bool full = variant.full_entry && variant.facts != nullptr &&
                      leader < variant.facts->full_at.size() &&
                      variant.facts->full_at[leader] != 0;
    // Both generations' block costs; the generated code selects on
    // S.dev->is_fermi.
    const double cost_nf = vgpu::BlockIssueCost(false, code, block);
    const double cost_f = vgpu::BlockIssueCost(true, code, block);

    out += Format("    case %uu: {\n", leader);
    // The block's one charge, as the decoded tier's RunWarp makes it.
    const std::string lanes = full ? Format("%lluull", static_cast<unsigned long long>(n) * 32ull)
                                   : Format("%lluull * (u64)LaneCount(w.mask)",
                                            static_cast<unsigned long long>(n));
    const std::string cost =
        cost_nf == cost_f
            ? DoubleLit(cost_nf)
            : Format("S.dev->is_fermi ? %s : %s", DoubleLit(cost_f).c_str(),
                     DoubleLit(cost_nf).c_str());
    out += Format("      T.Charge(S, %lluull, %s, %s);\n", static_cast<unsigned long long>(n),
                  lanes.c_str(), cost.c_str());
    if (has_ilp) {
      // ILP adds stay sequential in pc order: double += double(float) is not
      // associative, and the decoded tier adds them one at a time.
      for (std::uint32_t pc = leader; pc < end; ++pc) {
        const double ilp = static_cast<double>(ker.ilp_at_pc[pc]);
        if (ilp != 0.0) out += Format("      T.ilp_sum += %s;\n", DoubleLit(ilp).c_str());
      }
    }

    // The block's fused lane runs, [begin, end) each, and the vregs each
    // run stores back: those it writes that are live after it, found by a
    // backward walk from the block's live-out set.
    struct Run {
      std::uint32_t begin, end;
      std::vector<int> stored;
    };
    std::vector<Run> runs;
    for (std::uint32_t pc = leader; pc < end; ++pc) {
      if (!Fusable(code[pc])) continue;
      const std::uint32_t first = pc;
      while (pc + 1 < end && Fusable(code[pc + 1])) ++pc;
      runs.push_back({first, pc + 1, {}});
    }
    if (!runs.empty()) {
      ++stamp;
      for (const int r : liveness.live_out(bi)) live_at[r] = stamp;
      auto run = runs.rbegin();
      for (std::uint32_t pc = end; pc-- > leader;) {
        const Instr& i = code[pc];
        if (run != runs.rend() && pc + 1 == run->end) {
          for (std::uint32_t p = run->begin; p < run->end; ++p) {
            if (live_at[code[p].dst] == stamp) run->stored.push_back(code[p].dst);
          }
          std::sort(run->stored.begin(), run->stored.end());
          run->stored.erase(std::unique(run->stored.begin(), run->stored.end()),
                            run->stored.end());
          ++run;
        }
        if (i.dst >= 0) live_at[i.dst] = 0;
        vgpu::ForEachUse(i, [&](int r) { live_at[r] = stamp; });
      }
    }

    bool closed = false;  // block ended with an explicit transfer?
    auto next_run = runs.begin();
    for (std::uint32_t pc = leader; pc < end; ++pc) {
      if (next_run != runs.end() && pc == next_run->begin) {
        EmitLaneRun(out, code, pc, next_run->end, next_run->stored, full, touched);
        pc = next_run->end - 1;
        ++next_run;
        continue;
      }
      const Instr& i = code[pc];
      const std::string disasm = vgpu::Disassemble(i, pc);
      switch (i.op) {
        case Opcode::kNop:
          out += Format("      // pc %u: %s\n", pc, disasm.c_str());
          break;
        case Opcode::kBra:
          out += Format("      w.pc = %uu; goto dispatch;  // pc %u: %s\n",
                        static_cast<std::uint32_t>(i.target), pc, disasm.c_str());
          closed = true;
          break;
        case Opcode::kBraPred: {
          const BranchKind kind = BranchKindAt(variant, pc);
          const std::uint32_t target = static_cast<std::uint32_t>(i.target);
          const char* test = i.neg ? "==" : "!=";
          if (kind == BranchKind::kAlwaysTaken) {
            // Predicate proven nonzero for every active lane: taken == mask,
            // which the generic scan turns into this exact jump (no push).
            out += Format("      w.pc = %uu; goto dispatch;  // pc %u: %s [proven taken]\n",
                          target, pc, disasm.c_str());
            closed = true;
            break;
          }
          if (kind == BranchKind::kNeverTaken) {
            out += Format(
                "      w.pc = %uu; goto dispatch;  // pc %u: %s [proven not taken]\n", pc + 1,
                pc, disasm.c_str());
            closed = true;
            break;
          }
          if (kind == BranchKind::kUniform) {
            // Predicate proven uniform over active lanes: one active lane
            // decides for the warp, and both generic outcomes (taken == mask,
            // taken == 0) jump without a reconvergence push.
            out += Format("      {  // pc %u: %s [uniform]\n", pc, disasm.c_str());
            out += Format("        const u64* preds = RW(S,%d)+lb;\n", i.a.reg);
            if (full) {
              out += Format("        if (preds[0] %s 0) { w.pc = %uu; goto dispatch; }\n",
                            test, target);
            } else {
              out += Format(
                  "        if (preds[(unsigned)std::countr_zero(w.mask)] %s 0) "
                  "{ w.pc = %uu; goto dispatch; }\n",
                  test, target);
            }
            out += Format("        w.pc = %uu; goto dispatch;\n", pc + 1);
            out += "      }\n";
            closed = true;
            break;
          }
          out += Format("      Branch%s(S, w, RW(S,%d)+lb, %s, %uu, %uu, %d); goto dispatch;"
                        "  // pc %u: %s\n",
                        full ? "<true>" : "", i.a.reg, i.neg ? "true" : "false", pc, target,
                        i.reconv, pc, disasm.c_str());
          closed = true;
          break;
        }
        case Opcode::kBarSync:
          out += Format("      Barrier(S, w, %uu); break;  // pc %u: %s\n", pc + 1, pc,
                        disasm.c_str());
          closed = true;
          break;
        case Opcode::kExit:
          out += Format("      if (ExitLanes(S, w)) goto dispatch;  // pc %u: %s\n", pc,
                        disasm.c_str());
          out += "      break;\n";
          closed = true;
          break;
        default:
          out += Format("      %s  // pc %u: %s\n", Stmt(i, pc, full).c_str(), pc,
                        disasm.c_str());
          break;
      }
      if (closed) break;  // nothing after an unconditional transfer
    }
    if (!closed) {
      out += Format("      w.pc = %uu; goto dispatch;\n", end);
    }
    out += "    }\n";
  }

  out += "    default:\n";
  out += "      S.Fail(Fault::kBadDispatch, w.pc);\n";
  out += "  }\n";
  out += "  T.Flush(*S.st, *S.wd_accum);\n";
  out += "}\n\n";
}

}  // namespace

std::uint64_t EmbeddedRuntimeHash() {
  static const std::uint64_t hash = Fnv1a(kEmbeddedRuntime);
  return hash;
}

std::string EmitModuleSource(const kcc::CompiledModule& mod,
                             const std::string& key_canonical_text, const ShapeSpec* shape) {
  std::string out;
  out.reserve(64 * 1024);
  // The runtime text comes first, with nothing before it, so that a build
  // can take it from the precompiled header (build.hpp); it reads no macro.
  out += kEmbeddedRuntime;
  out += "// Generated by kspec native::EmitModuleSource. Do not edit.\n";
  if (shape != nullptr) {
    out += Format("// Shape-specialized variant: %s\n", shape->CanonicalText().c_str());
    out += "#define KSPEC_SHAPE 1\n";
    out += Format("#define KSPEC_SHAPE_BLOCK_X %uu\n", shape->block_x);
    out += Format("#define KSPEC_SHAPE_BLOCK_Y %uu\n", shape->block_y);
    out += Format("#define KSPEC_SHAPE_BLOCK_Z %uu\n", shape->block_z);
    out += Format("#define KSPEC_SHAPE_GRID_X %uu\n", shape->grid_x);
    out += Format("#define KSPEC_SHAPE_GRID_Y %uu\n", shape->grid_y);
    out += Format("#define KSPEC_SHAPE_GRID_Z %uu\n", shape->grid_z);
    out += Format("#define KSPEC_SHAPE_NTHREADS %uu\n", shape->threads_per_block());
  }
  out += kPrelude;

  for (std::size_t k = 0; k < mod.kernels.size(); ++k) {
    const CompiledKernel& ker = mod.kernels[k];
    const unsigned idx = static_cast<unsigned>(k);
    if (shape == nullptr) {
      EmitKernel(out, ker, idx, KernelVariant{});
      continue;
    }
    // Interior warps enter with the full live mask and may use the
    // proven-full-block facts. Only when the block size is not a multiple of
    // 32 is there a boundary warp: it starts with a partial mask and gets a
    // second body, which still benefits from the shape-driven branch
    // classifications (they are mask-independent).
    const MaskFacts facts_full = AnalyzeKernelMasks(ker, *shape, true);
    EmitKernel(out, ker, idx, KernelVariant{"_full", &facts_full, true});
    const bool tail_warp = shape->threads_per_block() % 32 != 0;
    if (tail_warp) {
      const MaskFacts facts_gen = AnalyzeKernelMasks(ker, *shape, false);
      EmitKernel(out, ker, idx, KernelVariant{"_gen", &facts_gen, false});
    }
    out += Format("static void run_warp_k%u(State& S, Warp& w, const unsigned lb) {\n", idx);
    if (tail_warp) {
      out += Format("  if (lb + 32u <= KSPEC_SHAPE_NTHREADS) run_warp_k%u_full(S, w, lb);\n",
                    idx);
      out += Format("  else run_warp_k%u_gen(S, w, lb);\n", idx);
    } else {
      out += Format("  run_warp_k%u_full(S, w, lb);\n", idx);
    }
    out += "}\n\n";
  }

  const unsigned nkernels = static_cast<unsigned>(mod.kernels.size());
  out += "inline const char kBuildKey[] =";
  out += EscapedLiteral(key_canonical_text, "    ");
  out += ";\n\n";
  out += Format("constexpr unsigned kNumKernels = %uu;\n", nkernels);
  out += "inline const char* const kKernelNames[] = {\n";
  for (const auto& ker : mod.kernels) {
    out += "   ";
    out += EscapedLiteral(ker.name, " ");
    out += ",\n";
  }
  if (nkernels == 0) out += "    \"\",\n";
  out += "};\n";
  out += "inline const RunWarpFn kKernelFns[] = {\n";
  for (unsigned k = 0; k < nkernels; ++k) out += Format("    &run_warp_k%u,\n", k);
  if (nkernels == 0) out += "    nullptr,\n";
  out += "};\n\n";
  out += kEntryPoints;
  return out;
}

}  // namespace kspec::native
