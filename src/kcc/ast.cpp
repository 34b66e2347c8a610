#include "kcc/ast.hpp"

#include <map>

#include "support/status.hpp"

namespace kspec::kcc {

const char* ScalarName(Scalar s) {
  switch (s) {
    case Scalar::kVoid: return "void";
    case Scalar::kBool: return "bool";
    case Scalar::kInt: return "int";
    case Scalar::kUint: return "unsigned int";
    case Scalar::kLong: return "long long";
    case Scalar::kUlong: return "unsigned long long";
    case Scalar::kFloat: return "float";
    case Scalar::kDouble: return "double";
  }
  return "?";
}

vgpu::Type ScalarToIr(Scalar s) {
  switch (s) {
    case Scalar::kBool: return vgpu::Type::kPred;
    case Scalar::kInt: return vgpu::Type::kI32;
    case Scalar::kUint: return vgpu::Type::kU32;
    case Scalar::kLong: return vgpu::Type::kI64;
    case Scalar::kUlong: return vgpu::Type::kU64;
    case Scalar::kFloat: return vgpu::Type::kF32;
    case Scalar::kDouble: return vgpu::Type::kF64;
    case Scalar::kVoid: break;
  }
  throw InternalError("void has no IR type");
}

std::size_t ScalarSize(Scalar s) {
  switch (s) {
    case Scalar::kVoid: return 0;
    case Scalar::kBool: return 1;
    case Scalar::kInt:
    case Scalar::kUint:
    case Scalar::kFloat: return 4;
    case Scalar::kLong:
    case Scalar::kUlong:
    case Scalar::kDouble: return 8;
  }
  return 0;
}

bool IsFloatScalar(Scalar s) { return s == Scalar::kFloat || s == Scalar::kDouble; }
bool IsSignedScalar(Scalar s) { return s == Scalar::kInt || s == Scalar::kLong; }

std::string TypeRef::ToString() const {
  std::string out = ScalarName(scalar);
  if (is_pointer) {
    out += "* (";
    out += vgpu::SpaceName(space);
    out += ")";
  }
  return out;
}

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kRem: return "%";
    case BinOp::kAnd: return "&";
    case BinOp::kOr: return "|";
    case BinOp::kXor: return "^";
    case BinOp::kShl: return "<<";
    case BinOp::kShr: return ">>";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kLogAnd: return "&&";
    case BinOp::kLogOr: return "||";
  }
  return "?";
}

vgpu::Instr BinaryInstr(BinOp op, vgpu::Type t) {
  using vgpu::CmpOp;
  using vgpu::Opcode;
  auto setp = [&](CmpOp cmp) {
    vgpu::Instr i = vgpu::Instr::Make(Opcode::kSetp, t, -1);
    i.cmp = cmp;
    return i;
  };
  auto alu = [&](Opcode o) { return vgpu::Instr::Make(o, t, -1); };
  switch (op) {
    case BinOp::kAdd: return alu(Opcode::kAdd);
    case BinOp::kSub: return alu(Opcode::kSub);
    case BinOp::kMul: return alu(Opcode::kMul);
    case BinOp::kDiv: return alu(Opcode::kDiv);
    case BinOp::kRem: return alu(Opcode::kRem);
    case BinOp::kAnd: return alu(Opcode::kAnd);
    case BinOp::kOr: return alu(Opcode::kOr);
    case BinOp::kXor: return alu(Opcode::kXor);
    case BinOp::kShl: return alu(Opcode::kShl);
    case BinOp::kShr: return alu(Opcode::kShr);
    case BinOp::kLt: return setp(CmpOp::kLt);
    case BinOp::kLe: return setp(CmpOp::kLe);
    case BinOp::kGt: return setp(CmpOp::kGt);
    case BinOp::kGe: return setp(CmpOp::kGe);
    case BinOp::kEq: return setp(CmpOp::kEq);
    case BinOp::kNe: return setp(CmpOp::kNe);
    case BinOp::kLogAnd:
    case BinOp::kLogOr:
      break;
  }
  return alu(Opcode::kNop);
}

vgpu::Opcode IntrinsicOpcode(const std::string& name) {
  using vgpu::Opcode;
  static const std::map<std::string, Opcode> kOps = {
      {"min", Opcode::kMin},      {"umin", Opcode::kMin},       {"fminf", Opcode::kMin},
      {"max", Opcode::kMax},      {"umax", Opcode::kMax},       {"fmaxf", Opcode::kMax},
      {"abs", Opcode::kAbs},      {"fabsf", Opcode::kAbs},      {"fabs", Opcode::kAbs},
      {"sqrtf", Opcode::kSqrt},   {"sqrt", Opcode::kSqrt},      {"__fsqrt_rn", Opcode::kSqrt},
      {"rsqrtf", Opcode::kRsqrt}, {"floorf", Opcode::kFloor},   {"floor", Opcode::kFloor},
      {"ceilf", Opcode::kCeil},   {"ceil", Opcode::kCeil},      {"expf", Opcode::kExp},
      {"__expf", Opcode::kExp},   {"logf", Opcode::kLog},       {"__logf", Opcode::kLog},
      {"sinf", Opcode::kSin},     {"__sinf", Opcode::kSin},     {"cosf", Opcode::kCos},
      {"__cosf", Opcode::kCos},   {"__mul24", Opcode::kMul24},  {"__umul24", Opcode::kMul24},
      {"fmaf", Opcode::kMad},     {"fma", Opcode::kMad},
  };
  const auto it = kOps.find(name);
  return it == kOps.end() ? Opcode::kNop : it->second;
}

ExprPtr MakeIntLit(std::int64_t v, Scalar s, int line) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIntLit;
  e->int_value = static_cast<std::uint64_t>(v);
  e->type = TypeRef::Value(s);
  e->line = line;
  return e;
}

ExprPtr MakeFloatLit(double v, Scalar s, int line) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFloatLit;
  e->float_value = v;
  e->type = TypeRef::Value(s);
  e->line = line;
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->type = type;
  e->line = line;
  e->int_value = int_value;
  e->float_value = float_value;
  e->name = name;
  e->sreg = sreg;
  e->un_op = un_op;
  e->bin_op = bin_op;
  e->assign_op = assign_op;
  e->is_compound = is_compound;
  if (a) e->a = a->Clone();
  if (b) e->b = b->Clone();
  if (c) e->c = c->Clone();
  e->args.reserve(args.size());
  for (const auto& arg : args) e->args.push_back(arg->Clone());
  return e;
}

StmtPtr Stmt::Clone() const {
  auto s = std::make_unique<Stmt>();
  s->kind = kind;
  s->line = line;
  for (const auto& d : decls) {
    VarDecl nd;
    nd.name = d.name;
    nd.type = d.type;
    nd.is_const = d.is_const;
    if (d.init) nd.init = d.init->Clone();
    s->decls.push_back(std::move(nd));
  }
  s->array_name = array_name;
  s->array_elem = array_elem;
  if (array_size) s->array_size = array_size->Clone();
  s->array_space = array_space;
  s->array_dynamic = array_dynamic;
  if (expr) s->expr = expr->Clone();
  if (cond) s->cond = cond->Clone();
  if (then_branch) s->then_branch = then_branch->Clone();
  if (else_branch) s->else_branch = else_branch->Clone();
  if (init) s->init = init->Clone();
  if (step) s->step = step->Clone();
  if (body) s->body = body->Clone();
  s->stmts.reserve(stmts.size());
  for (const auto& st : stmts) s->stmts.push_back(st->Clone());
  return s;
}

}  // namespace kspec::kcc
