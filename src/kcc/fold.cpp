// AST-level constant folding.
//
// After preprocessing, specialization constants are literal tokens, so
// expressions like `ARG_A * ARG_B` arrive here as `3 * 7` and fold to `21`.
// This is the front-end half of the paper's "constant folding and
// propagation" benefit; the IR passes finish the job for values that mix
// constants with run-time registers.
#include <cmath>
#include <optional>

#include "kcc/sema.hpp"
#include "support/status.hpp"

namespace kspec::kcc {

namespace {

bool IsLiteral(const Expr& e) {
  return e.kind == ExprKind::kIntLit || e.kind == ExprKind::kFloatLit;
}

double AsDouble(const Expr& e) {
  if (e.kind == ExprKind::kFloatLit) return e.float_value;
  if (IsSignedScalar(e.type.scalar)) return static_cast<double>(static_cast<std::int64_t>(e.int_value));
  return static_cast<double>(e.int_value);
}

// Normalizes a 64-bit raw integer to the width/signedness of `s`.
std::uint64_t NormInt(std::uint64_t v, Scalar s) {
  switch (s) {
    case Scalar::kBool: return v ? 1 : 0;
    case Scalar::kInt: return static_cast<std::uint64_t>(static_cast<std::int64_t>(
        static_cast<std::int32_t>(static_cast<std::uint32_t>(v))));
    case Scalar::kUint: return static_cast<std::uint32_t>(v);
    default: return v;
  }
}

std::int64_t SignedVal(const Expr& e) {
  return static_cast<std::int64_t>(e.int_value);
}

ExprPtr IntResult(std::uint64_t raw, Scalar s, int line) {
  auto e = MakeIntLit(0, s, line);
  e->int_value = NormInt(raw, s);
  return e;
}

ExprPtr FoldBinary(const Expr& e) {
  const Expr& a = *e.a;
  const Expr& b = *e.b;
  if (!IsLiteral(a) || !IsLiteral(b)) return nullptr;
  Scalar rs = e.type.scalar;

  // Comparisons and logicals produce bool.
  auto make_bool = [&](bool v) { return IntResult(v, Scalar::kBool, e.line); };

  if (e.bin_op == BinOp::kLogAnd) return make_bool(AsDouble(a) != 0 && AsDouble(b) != 0);
  if (e.bin_op == BinOp::kLogOr) return make_bool(AsDouble(a) != 0 || AsDouble(b) != 0);

  const Scalar os = a.type.scalar;  // operand common type (set by sema)
  if (IsFloatScalar(os)) {
    double x = AsDouble(a), y = AsDouble(b);
    switch (e.bin_op) {
      case BinOp::kAdd: case BinOp::kSub: case BinOp::kMul: case BinOp::kDiv: case BinOp::kRem: {
        double r;
        switch (e.bin_op) {
          case BinOp::kAdd: r = x + y; break;
          case BinOp::kSub: r = x - y; break;
          case BinOp::kMul: r = x * y; break;
          case BinOp::kDiv: r = x / y; break;
          default: r = std::fmod(x, y); break;
        }
        if (os == Scalar::kFloat) r = static_cast<float>(r);
        return MakeFloatLit(r, rs, e.line);
      }
      case BinOp::kLt: return make_bool(x < y);
      case BinOp::kLe: return make_bool(x <= y);
      case BinOp::kGt: return make_bool(x > y);
      case BinOp::kGe: return make_bool(x >= y);
      case BinOp::kEq: return make_bool(x == y);
      case BinOp::kNe: return make_bool(x != y);
      default: return nullptr;
    }
  }

  const bool sgn = IsSignedScalar(os);
  std::uint64_t ua = a.int_value, ub = b.int_value;
  std::int64_t sa = SignedVal(a), sb = SignedVal(b);
  const bool wide = os == Scalar::kLong || os == Scalar::kUlong;
  const unsigned width = wide ? 64 : 32;
  switch (e.bin_op) {
    case BinOp::kAdd: return IntResult(ua + ub, rs, e.line);
    case BinOp::kSub: return IntResult(ua - ub, rs, e.line);
    case BinOp::kMul: return IntResult(ua * ub, rs, e.line);
    case BinOp::kDiv:
      if (ub == 0) return nullptr;  // leave the runtime to decide
      // x / -1 is -x, wrapping: INT_MIN / -1 is INT_MIN, as at run time.
      if (sgn && sb == -1) return IntResult(0 - ua, rs, e.line);
      return IntResult(sgn ? static_cast<std::uint64_t>(sa / sb) : ua / ub, rs, e.line);
    case BinOp::kRem:
      if (ub == 0) return nullptr;
      if (sgn && sb == -1) return IntResult(0, rs, e.line);
      return IntResult(sgn ? static_cast<std::uint64_t>(sa % sb) : ua % ub, rs, e.line);
    case BinOp::kAnd: return IntResult(ua & ub, rs, e.line);
    case BinOp::kOr: return IntResult(ua | ub, rs, e.line);
    case BinOp::kXor: return IntResult(ua ^ ub, rs, e.line);
    case BinOp::kShl:
      if (ub >= width) return IntResult(0, rs, e.line);
      return IntResult(ua << ub, rs, e.line);
    case BinOp::kShr:
      if (ub >= width) return IntResult(sgn && sa < 0 ? ~0ull : 0, rs, e.line);
      if (sgn) return IntResult(static_cast<std::uint64_t>(sa >> ub), rs, e.line);
      if (!wide) ua = static_cast<std::uint32_t>(ua);
      return IntResult(ua >> ub, rs, e.line);
    case BinOp::kLt: return make_bool(sgn ? sa < sb : ua < ub);
    case BinOp::kLe: return make_bool(sgn ? sa <= sb : ua <= ub);
    case BinOp::kGt: return make_bool(sgn ? sa > sb : ua > ub);
    case BinOp::kGe: return make_bool(sgn ? sa >= sb : ua >= ub);
    case BinOp::kEq: return make_bool(ua == ub);
    case BinOp::kNe: return make_bool(ua != ub);
    default: return nullptr;
  }
}

ExprPtr FoldUnary(const Expr& e) {
  const Expr& a = *e.a;
  if (!IsLiteral(a)) return nullptr;
  Scalar rs = e.type.scalar;
  switch (e.un_op) {
    case UnOp::kPlus:
      return a.Clone();
    case UnOp::kNeg:
      if (IsFloatScalar(a.type.scalar)) return MakeFloatLit(-AsDouble(a), rs, e.line);
      return IntResult(~a.int_value + 1, rs, e.line);
    case UnOp::kNot:
      return IntResult(AsDouble(a) == 0 ? 1 : 0, Scalar::kBool, e.line);
    case UnOp::kBitNot:
      return IntResult(~a.int_value, rs, e.line);
  }
  return nullptr;
}

ExprPtr FoldCast(const Expr& e) {
  const Expr& a = *e.a;
  if (!IsLiteral(a) || e.type.is_pointer) return nullptr;
  Scalar rs = e.type.scalar;
  if (IsFloatScalar(rs)) {
    double v = AsDouble(a);
    if (rs == Scalar::kFloat) v = static_cast<float>(v);
    return MakeFloatLit(v, rs, e.line);
  }
  if (a.kind == ExprKind::kFloatLit) {
    return IntResult(static_cast<std::uint64_t>(static_cast<std::int64_t>(a.float_value)), rs,
                     e.line);
  }
  return IntResult(a.int_value, rs, e.line);
}

ExprPtr FoldCall(const Expr& e) {
  for (const auto& arg : e.args) {
    if (!IsLiteral(*arg)) return nullptr;
  }
  Scalar rs = e.type.scalar;
  auto farg = [&](std::size_t i) { return AsDouble(*e.args[i]); };
  if (e.name == "min" || e.name == "umin" || e.name == "fminf") {
    double r = std::min(farg(0), farg(1));
    return IsFloatScalar(rs) ? MakeFloatLit(static_cast<float>(r), rs, e.line)
                             : IntResult(static_cast<std::uint64_t>(static_cast<std::int64_t>(r)), rs, e.line);
  }
  if (e.name == "max" || e.name == "umax" || e.name == "fmaxf") {
    double r = std::max(farg(0), farg(1));
    return IsFloatScalar(rs) ? MakeFloatLit(static_cast<float>(r), rs, e.line)
                             : IntResult(static_cast<std::uint64_t>(static_cast<std::int64_t>(r)), rs, e.line);
  }
  if (e.name == "abs") {
    std::int64_t v = SignedVal(*e.args[0]);
    return IntResult(static_cast<std::uint64_t>(v < 0 ? -v : v), rs, e.line);
  }
  if (e.name == "fabsf") return MakeFloatLit(std::fabs(farg(0)), rs, e.line);
  if (e.name == "sqrtf" || e.name == "sqrt") return MakeFloatLit(std::sqrt(farg(0)), rs, e.line);
  if (e.name == "__mul24" || e.name == "__umul24") {
    std::uint64_t x = e.args[0]->int_value & 0xffffffu;
    std::uint64_t y = e.args[1]->int_value & 0xffffffu;
    return IntResult(x * y, rs, e.line);
  }
  return nullptr;
}

}  // namespace

ExprPtr TryFold(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kBinary: return FoldBinary(e);
    case ExprKind::kUnary: return FoldUnary(e);
    case ExprKind::kCast: return FoldCast(e);
    case ExprKind::kCall: return FoldCall(e);
    case ExprKind::kTernary:
      if (IsLiteral(*e.a)) {
        return AsDouble(*e.a) != 0 ? e.b->Clone() : e.c->Clone();
      }
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
