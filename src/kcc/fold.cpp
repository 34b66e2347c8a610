// AST-level constant folding.
//
// After preprocessing, specialization constants are literal tokens, so
// expressions like `ARG_A * ARG_B` arrive here as `3 * 7` and fold to `21`.
// This is the front-end half of the paper's "constant folding and
// propagation" benefit; the IR passes finish the job for values that mix
// constants with run-time registers.
//
// Every fold runs the instruction the node lowers to through
// vgpu::EvalLane, on the run-time slots lowering emits for its literal
// operands: a folded value is the value the unfolded code computes at run
// time (a float expression evaluates in float, x / 0 is 0).
#include <optional>
#include <set>

#include "kcc/sema.hpp"
#include "support/status.hpp"

namespace kspec::kcc {

namespace {

using vgpu::Instr;
using vgpu::Opcode;

bool IsLiteral(const Expr& e) {
  return e.kind == ExprKind::kIntLit || e.kind == ExprKind::kFloatLit;
}

// Runs `i` over literal operands; the result is a literal of type `s`, or
// nullptr when the instruction has no compile-time value.
ExprPtr Eval(const Instr& i, Scalar s, int line, const Expr& a, const Expr* b = nullptr,
             const Expr* c = nullptr) {
  std::uint64_t out;
  if (!vgpu::EvalLane(i, LiteralSlot(a), b ? LiteralSlot(*b) : 0, c ? LiteralSlot(*c) : 0,
                      &out)) {
    return nullptr;
  }
  return SlotLiteral(out, s, line);
}

// Literal `e` as a branch condition: lowering tests it with `setp.ne e, 0`.
bool Truth(const Expr& e) {
  std::uint64_t out = 0;
  vgpu::EvalLane(BinaryInstr(BinOp::kNe, ScalarToIr(e.type.scalar)), LiteralSlot(e), 0, 0, &out);
  return out != 0;
}

ExprPtr BoolLiteral(bool v, int line) { return MakeIntLit(v, Scalar::kBool, line); }

// The type `e` evaluates at. Sema types every node; only __constant array
// sizes fold before it runs, and an untyped node there takes its operand's.
Scalar ResultType(const Expr& e, const Expr& operand) {
  return e.type.scalar == Scalar::kVoid ? operand.type.scalar : e.type.scalar;
}

ExprPtr FoldBinary(const Expr& e) {
  const Expr& a = *e.a;
  const Expr& b = *e.b;
  if (!IsLiteral(a) || !IsLiteral(b)) return nullptr;
  if (e.bin_op == BinOp::kLogAnd) return BoolLiteral(Truth(a) && Truth(b), e.line);
  if (e.bin_op == BinOp::kLogOr) return BoolLiteral(Truth(a) || Truth(b), e.line);
  // Sema coerces both operands to one type, which arithmetic also yields.
  const Instr i = BinaryInstr(e.bin_op, ScalarToIr(a.type.scalar));
  return Eval(i, i.op == Opcode::kSetp ? Scalar::kBool : ResultType(e, a), e.line, a, &b);
}

ExprPtr FoldUnary(const Expr& e) {
  const Expr& a = *e.a;
  if (!IsLiteral(a)) return nullptr;
  switch (e.un_op) {
    case UnOp::kPlus:
      return a.Clone();
    case UnOp::kNot:
      return BoolLiteral(!Truth(a), e.line);
    case UnOp::kNeg:
    case UnOp::kBitNot: {
      const Scalar rs = ResultType(e, a);
      const Opcode op = e.un_op == UnOp::kNeg ? Opcode::kNeg : Opcode::kNot;
      return Eval(Instr::Make(op, ScalarToIr(rs), -1), rs, e.line, a);
    }
  }
  return nullptr;
}

ExprPtr FoldCast(const Expr& e) {
  const Expr& a = *e.a;
  if (!IsLiteral(a) || e.type.is_pointer) return nullptr;
  Instr cvt = Instr::Make(Opcode::kCvt, ScalarToIr(e.type.scalar), -1);
  cvt.type2 = ScalarToIr(a.type.scalar);
  return Eval(cvt, e.type.scalar, e.line, a);
}

ExprPtr FoldCall(const Expr& e) {
  // The intrinsics folded here; the IR passes fold the others once lowered.
  static const std::set<std::string> kFolded = {"min",   "umin", "fminf",   "max",
                                                "umax",  "fmaxf", "abs",    "fabsf",
                                                "sqrtf", "sqrt", "__mul24", "__umul24"};
  if (!kFolded.count(e.name) || e.args.empty()) return nullptr;
  for (const auto& arg : e.args) {
    if (!IsLiteral(*arg)) return nullptr;
  }
  const Scalar rs = ResultType(e, *e.args[0]);
  const Instr i = Instr::Make(IntrinsicOpcode(e.name), ScalarToIr(rs), -1);
  return Eval(i, rs, e.line, *e.args[0], e.args.size() > 1 ? e.args[1].get() : nullptr);
}

}  // namespace

std::uint64_t LiteralSlot(const Expr& e) {
  const vgpu::Type t = ScalarToIr(e.type.scalar);
  if (e.kind == ExprKind::kFloatLit) {
    return t == vgpu::Type::kF32 ? vgpu::EncodeF32(static_cast<float>(e.float_value))
                                 : vgpu::EncodeF64(e.float_value);
  }
  if (t == vgpu::Type::kI32) return vgpu::EncodeI32(static_cast<std::int32_t>(e.int_value));
  if (t == vgpu::Type::kU32) return static_cast<std::uint32_t>(e.int_value);
  return e.int_value;
}

ExprPtr SlotLiteral(std::uint64_t raw, Scalar s, int line) {
  switch (ScalarToIr(s)) {
    case vgpu::Type::kF32: return MakeFloatLit(vgpu::DecodeF32(raw), s, line);
    case vgpu::Type::kF64: return MakeFloatLit(vgpu::DecodeF64(raw), s, line);
    case vgpu::Type::kI32: return MakeIntLit(vgpu::DecodeI32(raw), s, line);
    default: return MakeIntLit(static_cast<std::int64_t>(raw), s, line);
  }
}

ExprPtr TryFold(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kBinary: return FoldBinary(e);
    case ExprKind::kUnary: return FoldUnary(e);
    case ExprKind::kCast: return FoldCast(e);
    case ExprKind::kCall: return FoldCall(e);
    case ExprKind::kTernary:
      if (IsLiteral(*e.a)) return Truth(*e.a) ? e.b->Clone() : e.c->Clone();
      return nullptr;
    default:
      return nullptr;
  }
}

void FoldInPlace(ExprPtr& e) {
  if (!e) return;
  FoldInPlace(e->a);
  FoldInPlace(e->b);
  FoldInPlace(e->c);
  for (auto& arg : e->args) FoldInPlace(arg);
  if (ExprPtr folded = TryFold(*e)) e = std::move(folded);
}

void FoldStmt(StmtPtr& s) {
  if (!s) return;
  switch (s->kind) {
    case StmtKind::kDecl:
      for (auto& d : s->decls) FoldInPlace(d.init);
      return;
    case StmtKind::kArrayDecl:
      FoldInPlace(s->array_size);
      return;
    case StmtKind::kExpr:
      FoldInPlace(s->expr);
      return;
    case StmtKind::kIf:
      FoldInPlace(s->cond);
      FoldStmt(s->then_branch);
      FoldStmt(s->else_branch);
      return;
    case StmtKind::kWhile:
      FoldInPlace(s->cond);
      FoldStmt(s->body);
      return;
    case StmtKind::kFor:
      FoldStmt(s->init);
      FoldInPlace(s->cond);
      FoldInPlace(s->step);
      FoldStmt(s->body);
      return;
    case StmtKind::kBlock:
      for (auto& st : s->stmts) FoldStmt(st);
      return;
    case StmtKind::kReturn:
    case StmtKind::kSync:
      return;
  }
}

std::optional<std::int64_t> EvalConstInt(const Expr& e) {
  if (e.kind == ExprKind::kIntLit) return static_cast<std::int64_t>(e.int_value);
  ExprPtr folded = TryFold(e);
  if (folded && folded->kind == ExprKind::kIntLit) {
    return static_cast<std::int64_t>(folded->int_value);
  }
  return std::nullopt;
}

}  // namespace kspec::kcc
