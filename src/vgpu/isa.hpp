// MiniPTX: the typed, virtual-register, load/store intermediate representation
// executed by the vgpu interpreter.
//
// MiniPTX stands in for NVIDIA's PTX (Section 2.4 of the dissertation): it is
// the target of the kcc compiler front-end, it has a printable textual form so
// that run-time-evaluated vs specialized code can be compared side by side
// (Appendices C/D), and register assignment happens when it is "translated"
// (here: register-allocated) for a device.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "vgpu/types.hpp"

namespace kspec::vgpu {

// Opcode, CmpOp and SpecialReg are defined in simt.hpp.
const char* OpcodeName(Opcode op);
const char* CmpOpName(CmpOp op);
const char* SpecialRegName(SpecialReg r);

// An operand is either a virtual register index or an immediate value encoded
// in a 64-bit slot (interpretation depends on the instruction type).
struct Operand {
  enum class Kind : std::uint8_t { kNone, kReg, kImm };
  Kind kind = Kind::kNone;
  std::int32_t reg = -1;
  std::uint64_t imm = 0;

  static Operand Reg(std::int32_t r) { return {Kind::kReg, r, 0}; }
  static Operand Imm(std::uint64_t v) { return {Kind::kImm, -1, v}; }
  static Operand ImmF32(float v) { return Imm(EncodeF32(v)); }
  static Operand ImmI32(std::int32_t v) { return Imm(EncodeI32(v)); }
  static Operand None() { return {}; }

  bool is_reg() const { return kind == Kind::kReg; }
  bool is_imm() const { return kind == Kind::kImm; }
  bool is_none() const { return kind == Kind::kNone; }
};

struct Instr {
  Opcode op = Opcode::kNop;
  Type type = Type::kI32;   // primary operand type
  Type type2 = Type::kI32;  // source type for kCvt
  CmpOp cmp = CmpOp::kEq;   // for kSetp
  Space space = Space::kGlobal;  // for kLd/kSt/atomics
  bool neg = false;         // for kBraPred: branch when predicate is false
  std::int32_t dst = -1;    // destination virtual register (or pred reg)
  Operand a, b, c;
  std::int32_t target = -1;  // branch target pc
  std::int32_t reconv = -1;  // reconvergence pc for divergent branches

  static Instr Make(Opcode op, Type t, std::int32_t dst, Operand a = Operand::None(),
                    Operand b = Operand::None(), Operand c = Operand::None()) {
    Instr i;
    i.op = op;
    i.type = t;
    i.dst = dst;
    i.a = a;
    i.b = b;
    i.c = c;
    return i;
  }
};

// Renders one instruction in MiniPTX textual syntax, e.g.
//   "mad.f32 %r12, %r3, %r7, %r11" or "ld.global.f32 %r4, [%r2+16]".
std::string Disassemble(const Instr& instr, std::size_t pc);

// Renders a whole instruction stream with pc labels.
std::string Disassemble(const std::vector<Instr>& code);

// Calls fn.template operator()<V>() with V == v, for an enum E whose values
// are 0..N-1, and returns its result (value-initialized when v is out of
// range): the bridge from a run-time opcode or type to a template
// instantiation of the simt lane rules.
template <class E, std::size_t N, class Fn>
auto WithEnum(E v, Fn&& fn) {
  using R = decltype(fn.template operator()<E{}>());
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    R r{};
    (void)((static_cast<std::size_t>(v) == I &&
            ((r = fn.template operator()<static_cast<E>(I)>()), true)) ||
           ...);
    return r;
  }(std::make_index_sequence<N>{});
}
template <class Fn>
auto WithType(Type t, Fn&& fn) {
  return WithEnum<Type, static_cast<std::size_t>(Type::kF64) + 1>(t, fn);
}
template <class Fn>
auto WithOpcode(Opcode op, Fn&& fn) {
  return WithEnum<Opcode, static_cast<std::size_t>(Opcode::kTex1D) + 1>(op, fn);
}

// How an emitted TU names a lane body: the printf format `format` over the
// body's template arguments, e.g. {"FloatLane<Op(%u), Ty(%u)>", 3, 5}.
// `own_loop`: the form keeps a warp loop of its own instead of joining a
// fused lane run (simt::LaneLoopOfItsOwn).
struct LaneBodyName {
  const char* format = nullptr;
  unsigned x = 0, y = 0;
  bool own_loop = false;
};

// The register-only forms' one map from an instruction to its simt.hpp lane
// body: ALU (FloatLane or IntLane on AluType(type)), setp, cvt, mov and sel.
// Calls fn.template operator()<BODY>(name), BODY a simt::LaneFn and `name`
// its spelling in an emitted TU, and returns the result. Returns a
// value-initialized result for an instruction that is no lane form, and for
// an (opcode, type) pair no body defines, which executes as a kBadOp fault.
// The decoder, EvalLane and the native emitter all choose through this map.
template <class Fn>
auto WithLaneRule(const Instr& i, Fn&& fn) {
  using R = decltype(fn.template operator()<&simt::MovLane>(LaneBodyName{}));
  auto val = [](auto e) { return static_cast<unsigned>(e); };
  switch (i.op) {
    case Opcode::kMov:
      return fn.template operator()<&simt::MovLane>(LaneBodyName{"MovLane"});
    case Opcode::kSel:
      return fn.template operator()<&simt::SelLane>(LaneBodyName{"SelLane"});
    case Opcode::kSetp:
      return WithType(i.type, [&]<Type TY>() {
        return WithEnum<CmpOp, 6>(i.cmp, [&]<CmpOp CMP>() {
          return fn.template operator()<&simt::SetpLane<TY, CMP>>(
              LaneBodyName{"SetpLane<Ty(%u), Cmp(%u)>", val(TY), val(CMP)});
        });
      });
    case Opcode::kCvt:
      return WithType(i.type, [&]<Type DT>() {
        return WithType(i.type2, [&]<Type ST>() {
          return fn.template operator()<&simt::CvtLane<DT, ST>>(
              LaneBodyName{"CvtLane<Ty(%u), Ty(%u)>", val(DT), val(ST)});
        });
      });
    default:
      return WithType(simt::AluType(i.type), [&]<Type TY>() {
        return WithOpcode(i.op, [&]<Opcode OP>() -> R {
          if constexpr (!simt::AluValid(OP, TY)) {
            return R{};
          } else if constexpr (IsFloatType(TY)) {
            return fn.template operator()<&simt::FloatLane<OP, TY>>(LaneBodyName{
                "FloatLane<Op(%u), Ty(%u)>", val(OP), val(TY), simt::LaneLoopOfItsOwn(OP)});
          } else {
            return fn.template operator()<&simt::IntLane<OP, TY>>(LaneBodyName{
                "IntLane<Op(%u), Ty(%u)>", val(OP), val(TY), simt::LaneLoopOfItsOwn(OP)});
          }
        });
      });
  }
}

// Runs `instr`'s lane body on one lane whose operands hold the raw slots a,
// b and c, and stores the lane's result in *out: the compile-time half of
// the one semantics source, so a value folded at compile time is the value
// the instruction computes at run time. Returns false, storing nothing, for
// an instruction WithLaneRule maps to no body.
bool EvalLane(const Instr& instr, std::uint64_t a, std::uint64_t b, std::uint64_t c,
              std::uint64_t* out);

// The basic blocks of an instruction stream and their static successors: the
// one control-flow graph kcc's optimizer and register allocator, the native
// emitter and mask propagation read. A block starts at pc 0, at every
// in-range bra/bra.pred target and bra.pred reconvergence pc, and after every
// bra, bra.pred, bar.sync and exit, so a control instruction always ends its
// block. Built in one pass over the code.
class Cfg {
 public:
  struct Block {
    std::int32_t begin = 0, end = 0;  // pcs [begin, end)
    // `begin` is a branch target or a reconvergence pc, not only the pc after
    // a control instruction (or pc 0).
    bool jump_entry = false;
    std::int32_t num_succs = 0;
    std::int32_t succ[2] = {-1, -1};

    // Block indices: bra -> target; bra.pred -> target, then fallthrough;
    // exit -> none; anything else -> fallthrough. A target or fallthrough
    // past the last instruction has no block and is left out.
    std::span<const std::int32_t> succs() const {
      return {succ, static_cast<std::size_t>(num_succs)};
    }
  };

  explicit Cfg(const std::vector<Instr>& code);

  // In pc order; empty for empty code.
  const std::vector<Block>& blocks() const { return blocks_; }
  int size() const { return static_cast<int>(blocks_.size()); }
  const Block& operator[](int b) const { return blocks_[static_cast<std::size_t>(b)]; }

  // The block holding `pc`, which must be in [0, code.size()).
  int block_of(std::int32_t pc) const { return block_of_[static_cast<std::size_t>(pc)]; }

 private:
  std::vector<Block> blocks_;
  std::vector<std::int32_t> block_of_;
};

// Calls fn(reg) for each register operand `i` reads: a, b and c, except for
// sreg, whose `a` names the special register.
template <class Fn>
void ForEachUse(const Instr& i, Fn&& fn) {
  if (i.op == Opcode::kSreg) return;
  if (i.a.is_reg()) fn(i.a.reg);
  if (i.b.is_reg()) fn(i.b.reg);
  if (i.c.is_reg()) fn(i.c.reg);
}

// Per-block register liveness over a Cfg: the vregs live on entry to and on
// exit from each block, by the backward fixpoint over the blocks' use sets
// (read before any write in the block) and def sets. One analysis for kcc's
// register allocator (peak pressure) and the native emitter (which vregs a
// fused lane run stores back).
class Liveness {
 public:
  Liveness(const std::vector<Instr>& code, const Cfg& cfg);

  // Sorted, distinct vregs.
  const std::vector<int>& live_in(int b) const { return blocks_[static_cast<std::size_t>(b)].in; }
  const std::vector<int>& live_out(int b) const {
    return blocks_[static_cast<std::size_t>(b)].out;
  }
  // One past the highest vreg the code names.
  std::size_t num_regs() const { return num_regs_; }

 private:
  struct Sets {
    std::vector<int> use, def, in, out;
  };
  std::vector<Sets> blocks_;
  std::size_t num_regs_ = 0;
};

}  // namespace kspec::vgpu
