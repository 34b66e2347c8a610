#include "kcc/lower.hpp"

#include <map>

#include "kcc/sema.hpp"
#include "support/math.hpp"
#include "support/status.hpp"
#include "support/str.hpp"

namespace kspec::kcc {

namespace {

using vgpu::CmpOp;
using vgpu::Instr;
using vgpu::Opcode;
using vgpu::Operand;
using vgpu::Space;
using vgpu::Type;

// A lowered value: an operand (register or immediate) plus its IR type and,
// for pointers, the address space.
struct RV {
  Operand op;
  Type type = Type::kI32;
  bool is_pointer = false;
  Space space = Space::kGlobal;
};

class Lowerer {
 public:
  Lowerer(const ModuleAst& module, const KernelDecl& kernel) : module_(module), kernel_(kernel) {}

  LoweredKernel Run() {
    LoweredKernel out;
    out.name = kernel_.name;

    for (const auto& c : module_.constants) {
      const_arrays_[c.name] = {c.offset, ScalarToIr(c.elem)};
    }
    for (std::size_t t = 0; t < module_.textures.size(); ++t) {
      texture_slots_[module_.textures[t].name] = static_cast<int>(t);
    }
    for (const auto& p : kernel_.params) {
      int reg = NewReg(p.type.is_pointer ? Type::kU64 : ScalarToIr(p.type.scalar));
      vars_[p.name] = reg;
      out.params.push_back({p.name, p.type.is_pointer ? Type::kU64 : ScalarToIr(p.type.scalar)});
    }

    // Shared memory is laid out up front (statics first) so dynamic
    // extern-__shared__ arrays can base at the end of the static segment
    // regardless of declaration order.
    AllocateSharedArrays(*kernel_.body);

    LowerStmt(*kernel_.body);
    Emit(Instr::Make(Opcode::kExit, Type::kI32, -1));
    ResolveLabels();

    out.code = std::move(code_);
    out.num_vregs = next_reg_;
    out.vreg_types = std::move(reg_types_);
    out.static_smem_bytes = smem_bytes_;
    return out;
  }

 private:
  [[noreturn]] void Fail(int line, const std::string& msg) {
    throw CompileError(Format("line %d: %s", line, msg.c_str()));
  }

  int NewReg(Type t) {
    reg_types_.push_back(t);
    return next_reg_++;
  }

  void Emit(Instr i) { code_.push_back(i); }

  int NewLabel() {
    label_pc_.push_back(-1);
    return static_cast<int>(label_pc_.size()) - 1;
  }
  void Bind(int label) { label_pc_[label] = static_cast<int>(code_.size()); }

  void ResolveLabels() {
    for (auto& i : code_) {
      if (i.op == Opcode::kBra || i.op == Opcode::kBraPred) {
        KSPEC_CHECK(i.target >= 0 && label_pc_[i.target] >= 0);
        i.target = label_pc_[i.target];
        if (i.reconv >= 0) i.reconv = label_pc_[i.reconv];
      }
    }
  }

  // ----------------------------------------------------------- helpers ----

  // Materializes `v` into a register (immediates get a mov).
  int ToReg(const RV& v) {
    if (v.op.is_reg()) return v.op.reg;
    int r = NewReg(v.type);
    Emit(Instr::Make(Opcode::kMov, v.type, r, v.op));
    return r;
  }

  // Emits a conversion of `v` to IR type `to` (no-op when equal). An
  // immediate converts at compile time, by the rule cvt runs.
  RV Convert(RV v, Type to) {
    if (v.type == to) return v;
    Instr i = Instr::Make(Opcode::kCvt, to, -1, v.op);
    i.type2 = v.type;
    if (std::uint64_t raw; v.op.is_imm() && vgpu::EvalLane(i, v.op.imm, 0, 0, &raw)) {
      return {Operand::Imm(raw), to, v.is_pointer, v.space};
    }
    i.dst = NewReg(to);
    Emit(i);
    return {Operand::Reg(i.dst), to, v.is_pointer, v.space};
  }

  // Lowers `e` to a predicate register (0/1) for branching.
  int LowerPred(const Expr& e) {
    RV v = LowerExpr(e, -1);
    if (v.type == Type::kPred) return ToReg(v);
    // value != 0
    int p = NewReg(Type::kPred);
    Instr i = Instr::Make(Opcode::kSetp, v.type, p, v.op,
                          vgpu::IsFloatType(v.type)
                              ? (v.type == Type::kF32 ? Operand::ImmF32(0.0f)
                                                      : Operand::Imm(vgpu::EncodeF64(0.0)))
                              : Operand::Imm(0));
    i.cmp = CmpOp::kNe;
    Emit(i);
    return p;
  }

  // ------------------------------------------------------- expressions ----

  // Lowers `e`; when `into` >= 0 and the expression naturally produces a
  // single instruction, the result is written directly to that register.
  RV LowerExpr(const Expr& e, int into) {
    switch (e.kind) {
      case ExprKind::kIntLit:
      case ExprKind::kFloatLit:
        return {Operand::Imm(LiteralSlot(e)), ScalarToIr(e.type.scalar)};
      case ExprKind::kSreg: {
        int r = into >= 0 ? into : NewReg(Type::kU32);
        Emit(Instr::Make(Opcode::kSreg, Type::kU32, r,
                         Operand::Imm(static_cast<std::uint64_t>(e.sreg))));
        return {Operand::Reg(r), Type::kU32};
      }
      case ExprKind::kVarRef: {
        auto it = vars_.find(e.name);
        if (it != vars_.end()) {
          Type t = reg_types_[it->second];
          return {Operand::Reg(it->second), t, e.type.is_pointer, e.type.space};
        }
        // Array base: shared or constant.
        auto sh = shared_arrays_.find(e.name);
        if (sh != shared_arrays_.end()) {
          return {Operand::Imm(sh->second.first), Type::kU64, true, Space::kShared};
        }
        auto ca = const_arrays_.find(e.name);
        if (ca != const_arrays_.end()) {
          return {Operand::Imm(ca->second.first), Type::kU64, true, Space::kConst};
        }
        Fail(e.line, "unresolved identifier in lowering: " + e.name);
      }
      case ExprKind::kCast: {
        RV v = LowerExpr(*e.a, -1);
        if (e.type.is_pointer) {
          // Reinterpret as pointer; adopt the cast's space unless the source
          // already was a pointer.
          RV out = Convert(v, Type::kU64);
          out.is_pointer = true;
          out.space = v.is_pointer ? v.space : e.type.space;
          return out;
        }
        RV out = Convert(v, ScalarToIr(e.type.scalar));
        out.is_pointer = false;
        return out;
      }
      case ExprKind::kUnary: return LowerUnary(e, into);
      case ExprKind::kBinary: return LowerBinary(e, into);
      case ExprKind::kTernary: {
        int p = LowerPred(*e.a);
        RV b = LowerExpr(*e.b, -1);
        RV c = LowerExpr(*e.c, -1);
        Type t = e.type.is_pointer ? Type::kU64 : ScalarToIr(e.type.scalar);
        int r = into >= 0 ? into : NewReg(t);
        Emit(Instr::Make(Opcode::kSel, t, r, b.op, c.op, Operand::Reg(p)));
        return {Operand::Reg(r), t, e.type.is_pointer,
                e.type.is_pointer ? b.space : Space::kGlobal};
      }
      case ExprKind::kIndex: {
        RV addr = LowerAddress(e);
        Type t = ScalarToIr(e.type.scalar);
        int r = into >= 0 ? into : NewReg(t);
        Instr i = Instr::Make(Opcode::kLd, t, r, addr.op, Operand::Imm(addr_offset_));
        i.space = addr.space;
        Emit(i);
        return {Operand::Reg(r), t};
      }
      case ExprKind::kAssign: return LowerAssign(e);
      case ExprKind::kCall: return LowerCall(e, into);
    }
    Fail(e.line, "unhandled expression kind");
  }

  // Computes the address of Index expression `e`; the byte offset part is
  // left in addr_offset_ (folded into the ld/st immediate field).
  RV LowerAddress(const Expr& e) {
    KSPEC_CHECK(e.kind == ExprKind::kIndex);
    RV base = LowerExpr(*e.a, -1);
    if (!base.is_pointer) Fail(e.line, "indexing a non-pointer value");
    std::size_t esize = ScalarSize(e.type.scalar);
    RV idx = LowerExpr(*e.b, -1);

    addr_offset_ = 0;
    if (idx.op.is_imm()) {
      std::int64_t iv;
      if (idx.type == Type::kI32) iv = vgpu::DecodeI32(idx.op.imm);
      else if (idx.type == Type::kU32) iv = static_cast<std::uint32_t>(idx.op.imm);
      else iv = static_cast<std::int64_t>(idx.op.imm);
      std::int64_t byte_off = iv * static_cast<std::int64_t>(esize);
      if (base.op.is_imm()) {
        // Fully static address (specialized pointer + constant index).
        return {Operand::Imm(base.op.imm + static_cast<std::uint64_t>(byte_off)), Type::kU64,
                true, base.space};
      }
      addr_offset_ = static_cast<std::uint64_t>(byte_off);
      return base;
    }

    RV idx64 = Convert(idx, idx.type == Type::kU32 ? Type::kU64 : Type::kI64);
    idx64 = Convert(idx64, Type::kU64);
    int scaled = NewReg(Type::kU64);
    Emit(Instr::Make(Opcode::kMul, Type::kU64, scaled, idx64.op,
                     Operand::Imm(static_cast<std::uint64_t>(esize))));
    int addr = NewReg(Type::kU64);
    Emit(Instr::Make(Opcode::kAdd, Type::kU64, addr, base.op, Operand::Reg(scaled)));
    return {Operand::Reg(addr), Type::kU64, true, base.space};
  }

  RV LowerUnary(const Expr& e, int into) {
    RV a = LowerExpr(*e.a, -1);
    Type t = ScalarToIr(e.type.scalar);
    switch (e.un_op) {
      case UnOp::kPlus:
        return a;
      case UnOp::kNeg: {
        int r = into >= 0 ? into : NewReg(t);
        Emit(Instr::Make(Opcode::kNeg, t, r, a.op));
        return {Operand::Reg(r), t};
      }
      case UnOp::kBitNot: {
        int r = into >= 0 ? into : NewReg(t);
        Emit(Instr::Make(Opcode::kNot, t, r, a.op));
        return {Operand::Reg(r), t};
      }
      case UnOp::kNot: {
        int r = into >= 0 ? into : NewReg(Type::kPred);
        Instr i = Instr::Make(Opcode::kSetp, a.type, r, a.op,
                              vgpu::IsFloatType(a.type)
                                  ? (a.type == Type::kF32 ? Operand::ImmF32(0.0f)
                                                          : Operand::Imm(vgpu::EncodeF64(0.0)))
                                  : Operand::Imm(0));
        i.cmp = CmpOp::kEq;
        Emit(i);
        return {Operand::Reg(r), Type::kPred};
      }
    }
    Fail(e.line, "unhandled unary operator");
  }

  RV LowerBinary(const Expr& e, int into) {
    // Pointer arithmetic: scale the integer side by the element size.
    if (e.type.is_pointer) {
      RV base = LowerExpr(*e.a, -1);
      RV off = LowerExpr(*e.b, -1);
      std::size_t esize = ScalarSize(e.type.scalar);
      RV off64 = Convert(off, off.type == Type::kU32 || off.type == Type::kU64 ? Type::kU64
                                                                               : Type::kI64);
      off64 = Convert(off64, Type::kU64);
      int scaled;
      if (off64.op.is_imm()) {
        std::uint64_t imm = off64.op.imm * esize;
        if (e.bin_op == BinOp::kSub) imm = ~imm + 1;  // negate
        if (base.op.is_imm()) {
          return {Operand::Imm(base.op.imm + imm), Type::kU64, true, base.space};
        }
        int r = into >= 0 ? into : NewReg(Type::kU64);
        Emit(Instr::Make(Opcode::kAdd, Type::kU64, r, base.op, Operand::Imm(imm)));
        return {Operand::Reg(r), Type::kU64, true, base.space};
      }
      scaled = NewReg(Type::kU64);
      Emit(Instr::Make(Opcode::kMul, Type::kU64, scaled, off64.op,
                       Operand::Imm(static_cast<std::uint64_t>(esize))));
      int r = into >= 0 ? into : NewReg(Type::kU64);
      Emit(Instr::Make(e.bin_op == BinOp::kSub ? Opcode::kSub : Opcode::kAdd, Type::kU64, r,
                       base.op, Operand::Reg(scaled)));
      return {Operand::Reg(r), Type::kU64, true, base.space};
    }

    if (e.bin_op == BinOp::kLogAnd || e.bin_op == BinOp::kLogOr) {
      // Branch-free logical operators (both sides evaluated).
      int pa = LowerPred(*e.a);
      int pb = LowerPred(*e.b);
      int r = into >= 0 ? into : NewReg(Type::kPred);
      Emit(Instr::Make(e.bin_op == BinOp::kLogAnd ? Opcode::kAnd : Opcode::kOr, Type::kPred, r,
                       Operand::Reg(pa), Operand::Reg(pb)));
      return {Operand::Reg(r), Type::kPred};
    }

    RV a = LowerExpr(*e.a, -1);
    RV b = LowerExpr(*e.b, -1);
    // A comparison runs at its operands' type and yields a predicate.
    Instr i = BinaryInstr(e.bin_op, a.type);
    const Type t = i.op == Opcode::kSetp ? Type::kPred : ScalarToIr(e.type.scalar);
    if (i.op != Opcode::kSetp) i.type = t;
    i.dst = into >= 0 ? into : NewReg(t);
    i.a = a.op;
    i.b = b.op;
    Emit(i);
    return {Operand::Reg(i.dst), t};
  }

  RV LowerCall(const Expr& e, int into) {
    // Texture sampling.
    if (e.name == "tex2D" || e.name == "tex1Dfetch") {
      auto slot = texture_slots_.find(e.args[0]->name);
      if (slot == texture_slots_.end()) Fail(e.line, "unknown texture " + e.args[0]->name);
      int r = into >= 0 ? into : NewReg(Type::kF32);
      if (e.name == "tex2D") {
        RV x = LowerExpr(*e.args[1], -1);
        RV y = LowerExpr(*e.args[2], -1);
        Instr i = Instr::Make(Opcode::kTex2D, Type::kF32, r, x.op, y.op);
        i.target = slot->second;
        Emit(i);
      } else {
        RV idx = LowerExpr(*e.args[1], -1);
        Instr i = Instr::Make(Opcode::kTex1D, Type::kF32, r, idx.op);
        i.target = slot->second;
        Emit(i);
      }
      return {Operand::Reg(r), Type::kF32};
    }
    // Atomics.
    if (e.name.rfind("atomic", 0) == 0) {
      RV ptr = LowerExpr(*e.args[0], -1);
      Type t = ScalarToIr(e.type.scalar);
      Opcode op = e.name == "atomicAdd"    ? Opcode::kAtomAdd
                  : e.name == "atomicMin"  ? Opcode::kAtomMin
                  : e.name == "atomicMax"  ? Opcode::kAtomMax
                  : e.name == "atomicExch" ? Opcode::kAtomExch
                                           : Opcode::kAtomCas;
      RV v1 = LowerExpr(*e.args[1], -1);
      int r = into >= 0 ? into : NewReg(t);
      Instr i = Instr::Make(op, t, r, ptr.op, v1.op);
      if (op == Opcode::kAtomCas) {
        RV v2 = LowerExpr(*e.args[2], -1);
        i.c = v2.op;
      }
      i.space = ptr.space;
      Emit(i);
      return {Operand::Reg(r), t};
    }

    const Opcode op = IntrinsicOpcode(e.name);
    if (op == Opcode::kNop) Fail(e.line, "unhandled intrinsic: " + e.name);
    Operand args[3];
    for (std::size_t k = 0; k < e.args.size(); ++k) args[k] = LowerExpr(*e.args[k], -1).op;
    Type t = ScalarToIr(e.type.scalar);
    int r = into >= 0 ? into : NewReg(t);
    Emit(Instr::Make(op, t, r, args[0], args[1], args[2]));
    return RV{Operand::Reg(r), t};
  }

  // The ALU opcode of compound assignment `e` (x op= v).
  Opcode CompoundOp(const Expr& e) {
    const Opcode op = BinaryInstr(e.assign_op, Type::kI32).op;
    if (op == Opcode::kNop || op == Opcode::kSetp) Fail(e.line, "unhandled compound assignment");
    return op;
  }

  RV LowerAssign(const Expr& e) {
    const Expr& target = *e.a;
    if (target.kind == ExprKind::kVarRef) {
      auto it = vars_.find(target.name);
      if (it == vars_.end()) Fail(e.line, "assignment to unknown variable " + target.name);
      int dst = it->second;
      Type t = reg_types_[dst];
      if (e.is_compound) {
        // dst = dst <op> value
        RV b = LowerExpr(*e.b, -1);
        const Opcode op = CompoundOp(e);
        if (target.type.is_pointer) {
          // ptr += n scales by element size.
          std::size_t esize = ScalarSize(target.type.scalar);
          RV off64 = Convert(b, Type::kU64);
          if (off64.op.is_imm()) {
            std::uint64_t imm = off64.op.imm * esize;
            if (e.assign_op == BinOp::kSub) imm = ~imm + 1;
            Emit(Instr::Make(Opcode::kAdd, Type::kU64, dst, Operand::Reg(dst), Operand::Imm(imm)));
          } else {
            int scaled = NewReg(Type::kU64);
            Emit(Instr::Make(Opcode::kMul, Type::kU64, scaled, off64.op,
                             Operand::Imm(static_cast<std::uint64_t>(esize))));
            Emit(Instr::Make(op, Type::kU64, dst, Operand::Reg(dst), Operand::Reg(scaled)));
          }
        } else {
          RV bc = Convert(b, t);
          Emit(Instr::Make(op, t, dst, Operand::Reg(dst), bc.op));
        }
        return {Operand::Reg(dst), t, target.type.is_pointer, target.type.space};
      }
      // Plain assignment: try to lower the RHS directly into dst.
      LowerExprInto(*e.b, dst, t);
      return {Operand::Reg(dst), t, target.type.is_pointer, target.type.space};
    }
    if (target.kind == ExprKind::kIndex) {
      Type t = ScalarToIr(target.type.scalar);
      RV value;
      if (e.is_compound) {
        // mem[i] op= v  ->  load, op, store
        RV addr = LowerAddress(target);
        std::uint64_t off = addr_offset_;
        int loaded = NewReg(t);
        Instr ld = Instr::Make(Opcode::kLd, t, loaded, addr.op, Operand::Imm(off));
        ld.space = addr.space;
        Emit(ld);
        RV b = Convert(LowerExpr(*e.b, -1), t);
        const Opcode op = CompoundOp(e);
        int res = NewReg(t);
        Emit(Instr::Make(op, t, res, Operand::Reg(loaded), b.op));
        Instr st = Instr::Make(Opcode::kSt, t, -1, addr.op, Operand::Imm(off),
                               Operand::Reg(res));
        st.space = addr.space;
        Emit(st);
        return {Operand::Reg(res), t};
      }
      value = Convert(LowerExpr(*e.b, -1), t);
      RV addr = LowerAddress(target);
      Instr st = Instr::Make(Opcode::kSt, t, -1, addr.op, Operand::Imm(addr_offset_), value.op);
      st.space = addr.space;
      Emit(st);
      return value;
    }
    Fail(e.line, "invalid assignment target");
  }

  // Lowers `e` and ensures the value lands in register `dst` of type `t`.
  RV LowerExprInto(const Expr& e, int dst, Type t) {
    // Single-instruction expressions can target dst directly when no
    // conversion is needed.
    Type et = e.type.is_pointer ? Type::kU64 : ScalarToIr(e.type.scalar);
    if (et == t &&
        (e.kind == ExprKind::kBinary || e.kind == ExprKind::kUnary ||
         e.kind == ExprKind::kCall || e.kind == ExprKind::kTernary ||
         e.kind == ExprKind::kSreg || e.kind == ExprKind::kIndex)) {
      RV v = LowerExpr(e, dst);
      if (v.op.is_reg() && v.op.reg == dst) return v;
      // The lowering chose not to honor the hint (e.g. pointer arithmetic);
      // fall through to an explicit move.
      Emit(Instr::Make(Opcode::kMov, t, dst, v.op));
      return {Operand::Reg(dst), t};
    }
    RV v = Convert(LowerExpr(e, -1), t);
    if (v.op.is_reg() && v.op.reg == dst) return v;
    Emit(Instr::Make(Opcode::kMov, t, dst, v.op));
    return {Operand::Reg(dst), t};
  }

  // -------------------------------------------------------- statements ----

  // Pre-pass: assigns offsets to every shared array (sema guarantees they
  // are at kernel top level). Static arrays pack first; each dynamic array
  // bases at the end of the static segment (CUDA-style: all extern __shared
  // declarations alias the same launch-time allocation).
  void AllocateSharedArrays(const Stmt& body) {
    KSPEC_CHECK(body.kind == StmtKind::kBlock);
    for (const auto& st : body.stmts) {
      if (st->kind != StmtKind::kArrayDecl || st->array_space != Space::kShared) continue;
      if (st->array_dynamic) continue;  // second pass
      auto n = EvalConstInt(*st->array_size);
      KSPEC_CHECK(n.has_value());
      std::size_t esize = ScalarSize(st->array_elem.scalar);
      smem_bytes_ = static_cast<unsigned>(AlignUp<std::uint64_t>(smem_bytes_, esize));
      shared_arrays_[st->array_name] = {smem_bytes_, ScalarToIr(st->array_elem.scalar)};
      smem_bytes_ += static_cast<unsigned>(*n * esize);
    }
    smem_bytes_ = static_cast<unsigned>(AlignUp<std::uint64_t>(smem_bytes_, 8));
    for (const auto& st : body.stmts) {
      if (st->kind != StmtKind::kArrayDecl || st->array_space != Space::kShared ||
          !st->array_dynamic) {
        continue;
      }
      shared_arrays_[st->array_name] = {smem_bytes_, ScalarToIr(st->array_elem.scalar)};
    }
  }

  void LowerStmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kBlock:
        for (const auto& st : s.stmts) LowerStmt(*st);
        return;
      case StmtKind::kDecl: {
        for (const auto& d : s.decls) {
          Type t = d.type.is_pointer ? Type::kU64 : ScalarToIr(d.type.scalar);
          int reg = NewReg(t);
          vars_[d.name] = reg;
          if (d.init) LowerExprInto(*d.init, reg, t);
        }
        return;
      }
      case StmtKind::kArrayDecl: {
        if (s.array_space == Space::kShared) {
          KSPEC_CHECK_MSG(shared_arrays_.count(s.array_name), "shared array not pre-allocated");
          return;
        }
        Fail(s.line, "local array survived scalarization (compiler bug)");
      }
      case StmtKind::kExpr:
        LowerExpr(*s.expr, -1);
        return;
      case StmtKind::kSync:
        Emit(Instr::Make(Opcode::kBarSync, Type::kI32, -1));
        return;
      case StmtKind::kReturn:
        Emit(Instr::Make(Opcode::kExit, Type::kI32, -1));
        return;
      case StmtKind::kIf: {
        int p = LowerPred(*s.cond);
        int l_end = NewLabel();
        if (!s.else_branch) {
          Instr br = Instr::Make(Opcode::kBraPred, Type::kPred, -1, Operand::Reg(p));
          br.neg = true;  // skip the then-branch when the condition is false
          br.target = l_end;
          br.reconv = l_end;
          Emit(br);
          LowerStmt(*s.then_branch);
          Bind(l_end);
          return;
        }
        int l_else = NewLabel();
        Instr br = Instr::Make(Opcode::kBraPred, Type::kPred, -1, Operand::Reg(p));
        br.neg = true;
        br.target = l_else;
        br.reconv = l_end;
        Emit(br);
        LowerStmt(*s.then_branch);
        Instr jmp = Instr::Make(Opcode::kBra, Type::kI32, -1);
        jmp.target = l_end;
        Emit(jmp);
        Bind(l_else);
        LowerStmt(*s.else_branch);
        Bind(l_end);
        return;
      }
      case StmtKind::kWhile: {
        int l_head = NewLabel();
        int l_end = NewLabel();
        Bind(l_head);
        int p = LowerPred(*s.cond);
        Instr br = Instr::Make(Opcode::kBraPred, Type::kPred, -1, Operand::Reg(p));
        br.neg = true;
        br.target = l_end;
        br.reconv = l_end;
        Emit(br);
        LowerStmt(*s.body);
        Instr jmp = Instr::Make(Opcode::kBra, Type::kI32, -1);
        jmp.target = l_head;
        Emit(jmp);
        Bind(l_end);
        return;
      }
      case StmtKind::kFor: {
        if (s.init) LowerStmt(*s.init);
        int l_head = NewLabel();
        int l_end = NewLabel();
        Bind(l_head);
        if (s.cond) {
          int p = LowerPred(*s.cond);
          Instr br = Instr::Make(Opcode::kBraPred, Type::kPred, -1, Operand::Reg(p));
          br.neg = true;
          br.target = l_end;
          br.reconv = l_end;
          Emit(br);
        }
        LowerStmt(*s.body);
        if (s.step) LowerExpr(*s.step, -1);
        Instr jmp = Instr::Make(Opcode::kBra, Type::kI32, -1);
        jmp.target = l_head;
        Emit(jmp);
        Bind(l_end);
        return;
      }
    }
  }

  const ModuleAst& module_;
  const KernelDecl& kernel_;

  std::vector<Instr> code_;
  int next_reg_ = 0;
  std::vector<Type> reg_types_;
  std::map<std::string, int> vars_;
  std::map<std::string, std::pair<unsigned, Type>> shared_arrays_;
  std::map<std::string, std::pair<unsigned, Type>> const_arrays_;
  std::map<std::string, int> texture_slots_;
  std::vector<int> label_pc_;
  unsigned smem_bytes_ = 0;
  std::uint64_t addr_offset_ = 0;
};

}  // namespace

LoweredKernel Lower(const ModuleAst& module, const KernelDecl& kernel) {
  return Lowerer(module, kernel).Run();
}

}  // namespace kspec::kcc
