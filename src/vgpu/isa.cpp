#include "vgpu/isa.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <iterator>

#include "support/str.hpp"

namespace kspec::vgpu {

const char* TypeName(Type t) {
  switch (t) {
    case Type::kPred: return "pred";
    case Type::kI32: return "s32";
    case Type::kU32: return "u32";
    case Type::kI64: return "s64";
    case Type::kU64: return "u64";
    case Type::kF32: return "f32";
    case Type::kF64: return "f64";
  }
  return "?";
}

std::string Dim3::ToString() const { return Format("(%u,%u,%u)", x, y, z); }

const char* SpaceName(Space s) {
  switch (s) {
    case Space::kGlobal: return "global";
    case Space::kShared: return "shared";
    case Space::kConst: return "const";
    case Space::kLocal: return "local";
    case Space::kParam: return "param";
  }
  return "?";
}

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "nop";
    case Opcode::kMov: return "mov";
    case Opcode::kSreg: return "sreg";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kDiv: return "div";
    case Opcode::kRem: return "rem";
    case Opcode::kMul24: return "mul24";
    case Opcode::kMad: return "mad";
    case Opcode::kMin: return "min";
    case Opcode::kMax: return "max";
    case Opcode::kNeg: return "neg";
    case Opcode::kAbs: return "abs";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kNot: return "not";
    case Opcode::kShl: return "shl";
    case Opcode::kShr: return "shr";
    case Opcode::kSqrt: return "sqrt";
    case Opcode::kRsqrt: return "rsqrt";
    case Opcode::kFloor: return "floor";
    case Opcode::kCeil: return "ceil";
    case Opcode::kExp: return "exp";
    case Opcode::kLog: return "log";
    case Opcode::kSin: return "sin";
    case Opcode::kCos: return "cos";
    case Opcode::kSetp: return "setp";
    case Opcode::kSel: return "sel";
    case Opcode::kCvt: return "cvt";
    case Opcode::kLd: return "ld";
    case Opcode::kSt: return "st";
    case Opcode::kBra: return "bra";
    case Opcode::kBraPred: return "bra.pred";
    case Opcode::kBarSync: return "bar.sync";
    case Opcode::kExit: return "exit";
    case Opcode::kAtomAdd: return "atom.add";
    case Opcode::kAtomMin: return "atom.min";
    case Opcode::kAtomMax: return "atom.max";
    case Opcode::kAtomExch: return "atom.exch";
    case Opcode::kAtomCas: return "atom.cas";
    case Opcode::kTex2D: return "tex.2d";
    case Opcode::kTex1D: return "tex.1d";
  }
  return "?";
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "eq";
    case CmpOp::kNe: return "ne";
    case CmpOp::kLt: return "lt";
    case CmpOp::kLe: return "le";
    case CmpOp::kGt: return "gt";
    case CmpOp::kGe: return "ge";
  }
  return "?";
}

const char* SpecialRegName(SpecialReg r) {
  switch (r) {
    case SpecialReg::kTidX: return "%tid.x";
    case SpecialReg::kTidY: return "%tid.y";
    case SpecialReg::kTidZ: return "%tid.z";
    case SpecialReg::kNtidX: return "%ntid.x";
    case SpecialReg::kNtidY: return "%ntid.y";
    case SpecialReg::kNtidZ: return "%ntid.z";
    case SpecialReg::kCtaidX: return "%ctaid.x";
    case SpecialReg::kCtaidY: return "%ctaid.y";
    case SpecialReg::kCtaidZ: return "%ctaid.z";
    case SpecialReg::kNctaidX: return "%nctaid.x";
    case SpecialReg::kNctaidY: return "%nctaid.y";
    case SpecialReg::kNctaidZ: return "%nctaid.z";
    case SpecialReg::kLaneId: return "%laneid";
    case SpecialReg::kWarpId: return "%warpid";
  }
  return "?";
}

namespace {

// Disassembly appends every piece straight into one output string: a
// listing of a multi-thousand-instruction kernel is built without a
// temporary per instruction or operand. Put(out, pieces...) appends each
// piece in turn; the wrappers below select how a number is rendered.
struct Int {  // decimal
  long long v;
};
struct Reg {  // "%r<n>"
  int reg;
};
struct Pred {  // "%p<n>"
  int reg;
};
struct Opnd {  // an operand read as `type`
  const Operand& op;
  Type type;
};
struct Offset {  // a byte offset with its sign always printed
  std::uint64_t imm;
};

void Put1(std::string& out, const char* s) { out += s; }
void Put1(std::string& out, char c) { out += c; }

void Put1(std::string& out, Int n) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, n.v).ptr);
}

void Put1(std::string& out, Reg r) {
  out += "%r";
  Put1(out, Int{r.reg});
}

void Put1(std::string& out, Pred p) {
  out += "%p";
  Put1(out, Int{p.reg});
}

void Put1(std::string& out, Offset o) {
  const auto v = static_cast<long long>(static_cast<std::int64_t>(o.imm));
  if (v >= 0) out += '+';
  Put1(out, Int{v});
}

void Put1(std::string& out, Opnd o) {
  const Operand& op = o.op;
  switch (op.kind) {
    case Operand::Kind::kNone:
      out += '_';
      return;
    case Operand::Kind::kReg:
      Put1(out, Reg{op.reg});
      return;
    case Operand::Kind::kImm:
      if (o.type == Type::kF32 || o.type == Type::kF64) {
        char buf[64];  // at most 36 characters: "0d", 16 hex digits, " /*", %g, "*/"
        const int n =
            o.type == Type::kF32
                ? std::snprintf(buf, sizeof buf, "0f%08X /*%g*/", static_cast<unsigned>(op.imm),
                                DecodeF32(op.imm))
                : std::snprintf(buf, sizeof buf, "0d%016llX /*%g*/",
                                static_cast<unsigned long long>(op.imm), DecodeF64(op.imm));
        out.append(buf, static_cast<std::size_t>(n));
      } else if (IsSignedInt(o.type)) {
        Put1(out, Int{static_cast<std::int64_t>(op.imm)});
      } else {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof buf, op.imm).ptr);
      }
      return;
  }
  out += '?';
}

template <typename... Pieces>
void Put(std::string& out, const Pieces&... pieces) {
  (Put1(out, pieces), ...);
}

void PutInstr(std::string& out, const Instr& i, std::size_t pc) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof buf, pc).ptr;
  const auto digits = static_cast<std::size_t>(end - buf);
  if (digits < 4) out.append(4 - digits, ' ');  // "%4zu"
  out.append(buf, digits);
  out += ":  ";
  const Opnd a{i.a, i.type}, b{i.b, i.type}, c{i.c, i.type};
  const Opnd addr{i.a, Type::kU64};
  switch (i.op) {
    case Opcode::kSreg:
      return Put(out, "mov.u32 ", Reg{i.dst}, ", ",
                 SpecialRegName(static_cast<SpecialReg>(i.a.imm)));
    case Opcode::kSetp:
      return Put(out, "setp.", CmpOpName(i.cmp), '.', TypeName(i.type), ' ', Pred{i.dst}, ", ", a,
                 ", ", b);
    case Opcode::kSel:
      return Put(out, "selp.", TypeName(i.type), ' ', Reg{i.dst}, ", ", a, ", ", b, ", ",
                 Pred{i.c.reg});
    case Opcode::kCvt:
      return Put(out, "cvt.", TypeName(i.type), '.', TypeName(i.type2), ' ', Reg{i.dst}, ", ",
                 Opnd{i.a, i.type2});
    case Opcode::kLd:
      return Put(out, "ld.", SpaceName(i.space), '.', TypeName(i.type), ' ', Reg{i.dst}, ", [",
                 addr, Offset{i.b.imm}, ']');
    case Opcode::kSt:
      return Put(out, "st.", SpaceName(i.space), '.', TypeName(i.type), " [", addr,
                 Offset{i.b.imm}, "], ", c);
    case Opcode::kAtomAdd:
    case Opcode::kAtomMin:
    case Opcode::kAtomMax:
    case Opcode::kAtomExch:
      return Put(out, OpcodeName(i.op), '.', SpaceName(i.space), '.', TypeName(i.type), ' ',
                 Reg{i.dst}, ", [", addr, "], ", b);
    case Opcode::kAtomCas:
      return Put(out, "atom.cas.", SpaceName(i.space), '.', TypeName(i.type), ' ', Reg{i.dst},
                 ", [", addr, "], ", b, ", ", c);
    case Opcode::kTex2D:
      return Put(out, "tex.2d.f32 ", Reg{i.dst}, ", [tex", Int{i.target}, ", {",
                 Opnd{i.a, Type::kF32}, ", ", Opnd{i.b, Type::kF32}, "}]");
    case Opcode::kTex1D:
      return Put(out, "tex.1d.f32 ", Reg{i.dst}, ", [tex", Int{i.target}, ", ",
                 Opnd{i.a, Type::kI32}, ']');
    case Opcode::kBra:
      return Put(out, "bra L", Int{i.target});
    case Opcode::kBraPred:
      return Put(out, i.neg ? "@!" : "@", Pred{i.a.reg}, " bra L", Int{i.target},
                 "  // reconv L", Int{i.reconv});
    case Opcode::kBarSync:
      return Put(out, "bar.sync 0");
    case Opcode::kExit:
      return Put(out, "exit");
    case Opcode::kNop:
      return Put(out, "nop");
    default:
      break;
  }
  // Generic ALU form.
  Put(out, OpcodeName(i.op), '.', TypeName(i.type), ' ', Reg{i.dst});
  for (const Opnd& o : {a, b, c}) {
    if (!o.op.is_none()) Put(out, ", ", o);
  }
}

}  // namespace

bool EvalLane(const Instr& i, std::uint64_t a, std::uint64_t b, std::uint64_t c,
              std::uint64_t* out) {
  return WithLaneRule(i, [&]<simt::LaneFn BODY>(LaneBodyName) {
    *out = BODY(a, b, c);
    return true;
  });
}

Cfg::Cfg(const std::vector<Instr>& code) {
  const auto n = static_cast<std::int32_t>(code.size());
  // Leader marks, one per pc plus the past-the-end pc.
  constexpr std::uint8_t kLeader = 1, kJumpEntry = 2;
  std::vector<std::uint8_t> mark(code.size() + 1, 0);
  mark[0] = kLeader;
  auto jump_to = [&](std::int32_t pc) {
    if (pc >= 0 && pc < n) mark[static_cast<std::size_t>(pc)] |= kLeader | kJumpEntry;
  };
  for (std::int32_t pc = 0; pc < n; ++pc) {
    const Instr& i = code[static_cast<std::size_t>(pc)];
    switch (i.op) {
      case Opcode::kBraPred:
        if (i.reconv >= 0) jump_to(i.reconv);
        [[fallthrough]];
      case Opcode::kBra:
        jump_to(i.target);
        [[fallthrough]];
      case Opcode::kBarSync:
      case Opcode::kExit:
        mark[static_cast<std::size_t>(pc) + 1] |= kLeader;
        break;
      default:
        break;
    }
  }

  block_of_.resize(code.size());
  for (std::int32_t pc = 0; pc < n; ++pc) {
    const std::uint8_t m = mark[static_cast<std::size_t>(pc)];
    if (m != 0) {
      if (!blocks_.empty()) blocks_.back().end = pc;
      Block b;
      b.begin = pc;
      b.jump_entry = (m & kJumpEntry) != 0;
      blocks_.push_back(b);
    }
    block_of_[static_cast<std::size_t>(pc)] = static_cast<std::int32_t>(blocks_.size()) - 1;
  }
  if (!blocks_.empty()) blocks_.back().end = n;

  for (Block& b : blocks_) {
    auto add = [&](std::int32_t pc) {
      if (pc >= 0 && pc < n) b.succ[b.num_succs++] = block_of_[static_cast<std::size_t>(pc)];
    };
    const Instr& last = code[static_cast<std::size_t>(b.end) - 1];
    switch (last.op) {
      case Opcode::kBra:
        add(last.target);
        break;
      case Opcode::kBraPred:
        add(last.target);
        add(b.end);
        break;
      case Opcode::kExit:
        break;
      default:
        add(b.end);
        break;
    }
  }
}

Liveness::Liveness(const std::vector<Instr>& code, const Cfg& cfg)
    : blocks_(static_cast<std::size_t>(cfg.size())) {
  for (const Instr& i : code) {
    for (const std::int32_t r : {i.dst, i.a.reg, i.b.reg, i.c.reg}) {
      if (r >= 0) num_regs_ = std::max(num_regs_, static_cast<std::size_t>(r) + 1);
    }
  }
  // Use and def sets. mark[r] == b: r is written in block b before this pc;
  // ~b: r is already in b's use set. It starts at cfg.size(), which is
  // neither for any block.
  std::vector<int> mark(num_regs_, cfg.size());
  for (int bi = 0; bi < cfg.size(); ++bi) {
    Sets& b = blocks_[static_cast<std::size_t>(bi)];
    const int defined = bi, used = ~bi;
    for (int pc = cfg[bi].begin; pc < cfg[bi].end; ++pc) {
      const Instr& i = code[static_cast<std::size_t>(pc)];
      ForEachUse(i, [&](int r) {
        if (mark[r] == defined || mark[r] == used) return;
        mark[r] = used;
        b.use.push_back(r);
      });
      if (i.dst >= 0 && mark[i.dst] != defined) {
        mark[i.dst] = defined;
        b.def.push_back(i.dst);
      }
    }
    std::sort(b.use.begin(), b.use.end());
    std::sort(b.def.begin(), b.def.end());
  }

  // The backward fixpoint: out = union of the successors' in; in = use |
  // (out - def).
  std::vector<int> new_out, new_in, scratch;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int bi = cfg.size() - 1; bi >= 0; --bi) {
      Sets& b = blocks_[static_cast<std::size_t>(bi)];
      new_out.clear();
      for (int s : cfg[bi].succs()) {
        const std::vector<int>& in = blocks_[static_cast<std::size_t>(s)].in;
        scratch.clear();
        std::set_union(new_out.begin(), new_out.end(), in.begin(), in.end(),
                       std::back_inserter(scratch));
        new_out.swap(scratch);
      }
      scratch.clear();
      std::set_difference(new_out.begin(), new_out.end(), b.def.begin(), b.def.end(),
                          std::back_inserter(scratch));
      new_in.clear();
      std::set_union(b.use.begin(), b.use.end(), scratch.begin(), scratch.end(),
                     std::back_inserter(new_in));
      if (new_out != b.out || new_in != b.in) {
        b.out = new_out;
        b.in = new_in;
        changed = true;
      }
    }
  }
}

std::string Disassemble(const Instr& i, std::size_t pc) {
  std::string out;
  PutInstr(out, i, pc);
  return out;
}

std::string Disassemble(const std::vector<Instr>& code) {
  std::string out;
  out.reserve(code.size() * 40);
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    PutInstr(out, code[pc], pc);
    out += '\n';
  }
  return out;
}

}  // namespace kspec::vgpu
