#include "kcc/unroll.hpp"

#include <functional>
#include <map>
#include <optional>

#include "kcc/sema.hpp"
#include "support/status.hpp"
#include "support/str.hpp"

namespace kspec::kcc {

namespace {

// ---------------------------------------------------------------------------
// Substitution: replace every VarRef `name` with a literal clone.
// ---------------------------------------------------------------------------

void SubstExpr(ExprPtr& e, const std::string& name, const Expr& value) {
  if (!e) return;
  if (e->kind == ExprKind::kVarRef && e->name == name) {
    ExprPtr lit = value.Clone();
    lit->line = e->line;
    // Preserve the type the reference had (the induction variable's type).
    lit->type = e->type;
    e = std::move(lit);
    return;
  }
  SubstExpr(e->a, name, value);
  SubstExpr(e->b, name, value);
  SubstExpr(e->c, name, value);
  for (auto& arg : e->args) SubstExpr(arg, name, value);
}

void SubstStmt(StmtPtr& s, const std::string& name, const Expr& value) {
  if (!s) return;
  switch (s->kind) {
    case StmtKind::kDecl:
      for (auto& d : s->decls) SubstExpr(d.init, name, value);
      return;
    case StmtKind::kArrayDecl:
      SubstExpr(s->array_size, name, value);
      return;
    case StmtKind::kExpr:
      SubstExpr(s->expr, name, value);
      return;
    case StmtKind::kIf:
      SubstExpr(s->cond, name, value);
      SubstStmt(s->then_branch, name, value);
      SubstStmt(s->else_branch, name, value);
      return;
    case StmtKind::kWhile:
      SubstExpr(s->cond, name, value);
      SubstStmt(s->body, name, value);
      return;
    case StmtKind::kFor:
      SubstStmt(s->init, name, value);
      SubstExpr(s->cond, name, value);
      SubstExpr(s->step, name, value);
      SubstStmt(s->body, name, value);
      return;
    case StmtKind::kBlock:
      for (auto& st : s->stmts) SubstStmt(st, name, value);
      return;
    default:
      return;
  }
}

// Does any statement in `s` write to variable `name`?
bool WritesVar(const Expr& e, const std::string& name) {
  if (e.kind == ExprKind::kAssign && e.a->kind == ExprKind::kVarRef && e.a->name == name) {
    return true;
  }
  if (e.a && WritesVar(*e.a, name)) return true;
  if (e.b && WritesVar(*e.b, name)) return true;
  if (e.c && WritesVar(*e.c, name)) return true;
  for (const auto& arg : e.args) {
    if (WritesVar(*arg, name)) return true;
  }
  return false;
}

bool WritesVar(const Stmt& s, const std::string& name) {
  switch (s.kind) {
    case StmtKind::kDecl:
      for (const auto& d : s.decls) {
        if (d.init && WritesVar(*d.init, name)) return true;
      }
      return false;
    case StmtKind::kExpr:
      return s.expr && WritesVar(*s.expr, name);
    case StmtKind::kIf:
      return WritesVar(*s.cond, name) || WritesVar(*s.then_branch, name) ||
             (s.else_branch && WritesVar(*s.else_branch, name));
    case StmtKind::kWhile:
      return WritesVar(*s.cond, name) || WritesVar(*s.body, name);
    case StmtKind::kFor:
      return (s.init && WritesVar(*s.init, name)) || (s.cond && WritesVar(*s.cond, name)) ||
             (s.step && WritesVar(*s.step, name)) || WritesVar(*s.body, name);
    case StmtKind::kBlock:
      for (const auto& st : s.stmts) {
        if (WritesVar(*st, name)) return true;
      }
      return false;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Counted-loop recognition
// ---------------------------------------------------------------------------

struct CountedLoop {
  std::string var;
  Scalar var_type = Scalar::kInt;
  // The induction variable's run-time slot at each iteration.
  std::vector<std::uint64_t> values;
  std::uint64_t exit_value = 0;  // its slot when the test fails
};

// Whether `e` reads variable `name`, possibly through the one conversion
// sema inserts.
bool ReadsVar(const Expr& e, const std::string& name) {
  const Expr* v = e.kind == ExprKind::kCast ? e.a.get() : &e;
  return v->kind == ExprKind::kVarRef && v->name == name;
}

// Slot `v` of IR type `from` converted to `to`, by the rule cvt runs.
std::uint64_t Convert(std::uint64_t v, vgpu::Type from, vgpu::Type to) {
  vgpu::Instr cvt = vgpu::Instr::Make(vgpu::Opcode::kCvt, to, -1);
  cvt.type2 = from;
  vgpu::EvalLane(cvt, v, 0, 0, &v);
  return v;
}

std::optional<CountedLoop> Recognize(const Stmt& loop, int max_unroll) {
  if (loop.kind != StmtKind::kFor || !loop.init || !loop.cond || !loop.step) return {};
  CountedLoop out;
  const Expr* start = nullptr;

  // init: `int i = <const>` or `i = <const>`.
  if (loop.init->kind == StmtKind::kDecl) {
    if (loop.init->decls.size() != 1) return {};
    const VarDecl& d = loop.init->decls[0];
    if (!d.init || d.type.is_pointer) return {};
    out.var = d.name;
    out.var_type = d.type.scalar;
    start = d.init.get();
  } else if (loop.init->kind == StmtKind::kExpr && loop.init->expr &&
             loop.init->expr->kind == ExprKind::kAssign && !loop.init->expr->is_compound &&
             loop.init->expr->a->kind == ExprKind::kVarRef) {
    out.var = loop.init->expr->a->name;
    out.var_type = loop.init->expr->a->type.scalar;
    start = loop.init->expr->b.get();
  } else {
    return {};
  }
  if (!start->IsIntConst()) return {};

  // cond: `i <cmp> <const>`, compared at the operands' common type.
  const Expr* cond = loop.cond.get();
  if (cond->kind != ExprKind::kBinary || !ReadsVar(*cond->a, out.var) ||
      !cond->b->IsIntConst()) {
    return {};
  }
  const vgpu::Instr test = BinaryInstr(cond->bin_op, ScalarToIr(cond->a->type.scalar));
  if (test.op != vgpu::Opcode::kSetp) return {};

  // step: `i op= c`, or `i = i op c` computed at the expression's type.
  const vgpu::Type var_t = ScalarToIr(out.var_type);
  const Expr* step = loop.step.get();
  if (step->kind != ExprKind::kAssign || step->a->kind != ExprKind::kVarRef ||
      step->a->name != out.var) {
    return {};
  }
  vgpu::Instr update;
  const Expr* c = step->b.get();
  if (step->is_compound) {
    update = BinaryInstr(step->assign_op, var_t);
  } else {
    const Expr* rhs = c->kind == ExprKind::kCast ? c->a.get() : c;
    if (rhs->kind != ExprKind::kBinary || !ReadsVar(*rhs->a, out.var)) return {};
    update = BinaryInstr(rhs->bin_op, ScalarToIr(rhs->type.scalar));
    c = rhs->b.get();
  }
  if (!c->IsIntConst() || update.op == vgpu::Opcode::kSetp) return {};

  // The body must not reassign the induction variable.
  if (WritesVar(*loop.body, out.var)) return {};

  // Run the loop's control at its declared types; max_unroll bounds a loop
  // that never exits.
  const std::uint64_t bound = LiteralSlot(*cond->b), step_c = LiteralSlot(*c);
  for (std::uint64_t i = LiteralSlot(*start);;) {
    std::uint64_t taken = 0, next = 0;
    vgpu::EvalLane(test, Convert(i, var_t, test.type), bound, 0, &taken);
    if (!taken) {
      out.exit_value = i;
      return out;
    }
    out.values.push_back(i);
    if (static_cast<int>(out.values.size()) > max_unroll) return {};
    if (!vgpu::EvalLane(update, Convert(i, var_t, update.type), step_c, 0, &next)) return {};
    i = Convert(next, update.type, var_t);
  }
}

class Unroller {
 public:
  explicit Unroller(int max_unroll) : max_unroll_(max_unroll) {}

  UnrollResult result;

  void Process(StmtPtr& s) {
    if (!s) return;
    switch (s->kind) {
      case StmtKind::kIf:
        Process(s->then_branch);
        Process(s->else_branch);
        return;
      case StmtKind::kWhile:
        Process(s->body);
        ++result.loops_kept;
        return;
      case StmtKind::kBlock:
        for (auto& st : s->stmts) Process(st);
        return;
      case StmtKind::kFor: {
        FoldStmt(s->init);
        if (s->cond) FoldInPlace(s->cond);
        if (s->step) FoldInPlace(s->step);
        auto loop = Recognize(*s, max_unroll_);
        if (!loop) {
          // Not unrollable; still process the body (inner loops may be).
          Process(s->body);
          ++result.loops_kept;
          return;
        }
        // Replace the For with a Block of substituted body clones.
        auto block = std::make_unique<Stmt>();
        block->kind = StmtKind::kBlock;
        block->line = s->line;
        for (std::uint64_t iv : loop->values) {
          StmtPtr body = s->body->Clone();
          ExprPtr lit = SlotLiteral(iv, loop->var_type, s->line);
          SubstStmt(body, loop->var, *lit);
          FoldStmt(body);
          Process(body);  // inner loops may now have constant bounds
          block->stmts.push_back(std::move(body));
        }
        // `for (i = ...)` assigns a variable that outlives the loop: leave it
        // holding the value the failing test saw (DCE drops the store when
        // nothing reads it).
        if (s->init->kind == StmtKind::kExpr) {
          StmtPtr assign = s->init->Clone();
          assign->expr->b = SlotLiteral(loop->exit_value, loop->var_type, s->line);
          block->stmts.push_back(std::move(assign));
        }
        ++result.loops_unrolled;
        s = std::move(block);
        return;
      }
      default:
        return;
    }
  }

 private:
  int max_unroll_;
};

// ---------------------------------------------------------------------------
// Local-array scalarization
// ---------------------------------------------------------------------------

std::string ScalarName(const std::string& array, std::int64_t index) {
  // '$' cannot appear in user identifiers, so generated names never collide.
  return Format("%s$%lld", array.c_str(), static_cast<long long>(index));
}

class Scalarizer {
 public:
  int arrays = 0;

  void ProcessBlockList(std::vector<StmtPtr>& stmts) {
    for (auto& s : stmts) ProcessStmt(s);
  }

  void ProcessStmt(StmtPtr& s) {
    if (!s) return;
    switch (s->kind) {
      case StmtKind::kArrayDecl: {
        if (s->array_space != vgpu::Space::kLocal) return;
        auto n = EvalConstInt(*s->array_size);
        KSPEC_CHECK_MSG(n.has_value(), "array size should have been validated by sema");
        auto decl = std::make_unique<Stmt>();
        decl->kind = StmtKind::kDecl;
        decl->line = s->line;
        for (std::int64_t k = 0; k < *n; ++k) {
          VarDecl d;
          d.name = ScalarName(s->array_name, k);
          d.type = s->array_elem;
          d.init = s->array_elem.scalar == Scalar::kFloat || s->array_elem.scalar == Scalar::kDouble
                       ? MakeFloatLit(0.0, s->array_elem.scalar, s->line)
                       : MakeIntLit(0, s->array_elem.scalar, s->line);
          decl->decls.push_back(std::move(d));
        }
        sizes_[s->array_name] = *n;
        ++arrays;
        s = std::move(decl);
        return;
      }
      case StmtKind::kDecl:
        for (auto& d : s->decls) RewriteExpr(d.init);
        return;
      case StmtKind::kExpr:
        RewriteExpr(s->expr);
        return;
      case StmtKind::kIf:
        RewriteExpr(s->cond);
        ProcessStmt(s->then_branch);
        ProcessStmt(s->else_branch);
        return;
      case StmtKind::kWhile:
        RewriteExpr(s->cond);
        ProcessStmt(s->body);
        return;
      case StmtKind::kFor:
        ProcessStmt(s->init);
        RewriteExpr(s->cond);
        RewriteExpr(s->step);
        ProcessStmt(s->body);
        return;
      case StmtKind::kBlock:
        ProcessBlockList(s->stmts);
        return;
      default:
        return;
    }
  }

 private:
  void RewriteExpr(ExprPtr& e) {
    if (!e) return;
    if (e->kind == ExprKind::kIndex && e->a->kind == ExprKind::kVarRef &&
        sizes_.count(e->a->name)) {
      FoldInPlace(e->b);
      auto idx = EvalConstInt(*e->b);
      if (!idx) {
        throw CompileError(Format(
            "line %d: index into register array '%s' is not a compile-time constant; "
            "registers cannot be indirectly addressed — specialize the loop bounds "
            "(-D) so the surrounding loop unrolls",
            e->line, e->a->name.c_str()));
      }
      std::int64_t n = sizes_[e->a->name];
      if (*idx < 0 || *idx >= n) {
        throw CompileError(Format("line %d: register array '%s' index %lld out of bounds [0,%lld)",
                                  e->line, e->a->name.c_str(), static_cast<long long>(*idx),
                                  static_cast<long long>(n)));
      }
      auto var = std::make_unique<Expr>();
      var->kind = ExprKind::kVarRef;
      var->line = e->line;
      var->name = ScalarName(e->a->name, *idx);
      var->type = TypeRef::Value(e->type.scalar);
      e = std::move(var);
      return;
    }
    if (e->kind == ExprKind::kVarRef && sizes_.count(e->name)) {
      throw CompileError(Format("line %d: register array '%s' can only be used with constant "
                                "indices",
                                e->line, e->name.c_str()));
    }
    RewriteExpr(e->a);
    RewriteExpr(e->b);
    RewriteExpr(e->c);
    for (auto& arg : e->args) RewriteExpr(arg);
  }

  std::map<std::string, std::int64_t> sizes_;
};

}  // namespace

UnrollResult UnrollLoops(KernelDecl& kernel, int max_unroll) {
  FoldStmt(kernel.body);
  Unroller u(max_unroll);
  u.Process(kernel.body);
  return u.result;
}

int ScalarizeLocalArrays(KernelDecl& kernel) {
  Scalarizer s;
  s.ProcessStmt(kernel.body);
  return s.arrays;
}

}  // namespace kspec::kcc
