// Abstract syntax tree for Kernel-C.
//
// The tree is mutable and clonable because the front-end performs two
// AST-to-AST transformations before lowering: loop unrolling (which clones
// loop bodies with the induction variable substituted by literals) and local
// array scalarization (which turns `float acc[RB];` into RB scalar variables
// once every index is a compile-time constant — the register blocking
// mechanism described in Sections 2.3 and 5.2).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vgpu/isa.hpp"

namespace kspec::kcc {

// Scalar value categories of the source language.
enum class Scalar : std::uint8_t {
  kVoid, kBool, kInt, kUint, kLong, kUlong, kFloat, kDouble,
};

const char* ScalarName(Scalar s);
vgpu::Type ScalarToIr(Scalar s);
std::size_t ScalarSize(Scalar s);
bool IsFloatScalar(Scalar s);
bool IsSignedScalar(Scalar s);

// A (possibly pointer) type. Pointers carry the address space of their
// pointee; Kernel-C pointers always point to scalars.
struct TypeRef {
  Scalar scalar = Scalar::kVoid;
  bool is_pointer = false;
  vgpu::Space space = vgpu::Space::kGlobal;

  bool operator==(const TypeRef&) const = default;
  std::string ToString() const;

  static TypeRef Value(Scalar s) { return {s, false, vgpu::Space::kGlobal}; }
  static TypeRef Pointer(Scalar s, vgpu::Space sp) { return {s, true, sp}; }
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : std::uint8_t {
  kIntLit,
  kFloatLit,
  kVarRef,
  kSreg,     // threadIdx.x and friends
  kUnary,
  kBinary,
  kAssign,   // also compound assignment
  kTernary,
  kCall,     // intrinsic call
  kIndex,    // base[index] — base is a pointer, shared/local array
  kCast,
};

enum class UnOp : std::uint8_t { kNeg, kNot, kBitNot, kPlus };
enum class BinOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kRem,
  kAnd, kOr, kXor, kShl, kShr,
  kLt, kLe, kGt, kGe, kEq, kNe,
  kLogAnd, kLogOr,
};
const char* BinOpName(BinOp op);

// The MiniPTX instruction binary operator `op` lowers to over operands of IR
// type `t`: an ALU op for arithmetic, a setp for comparisons, and a nop for
// && and || (which lower to predicate logic). Lowering and constant folding
// both take the mapping from here, so a folded operator is the emitted one.
vgpu::Instr BinaryInstr(BinOp op, vgpu::Type t);

// The ALU opcode a math intrinsic (min, sqrtf, fmaf, ...) lowers to, applied
// to its arguments in order; kNop for any other name.
vgpu::Opcode IntrinsicOpcode(const std::string& name);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;
  TypeRef type;  // filled in by sema
  int line = 0;

  // kIntLit / kFloatLit
  std::uint64_t int_value = 0;
  double float_value = 0;

  // kVarRef / kCall name
  std::string name;

  // kSreg
  vgpu::SpecialReg sreg = vgpu::SpecialReg::kTidX;

  // operators
  UnOp un_op = UnOp::kNeg;
  BinOp bin_op = BinOp::kAdd;
  BinOp assign_op = BinOp::kAdd;  // for compound assignment
  bool is_compound = false;

  // children: unary (a), binary (a,b), assign (a=target, b=value),
  // ternary (a,b,c), index (a=base, b=index), cast (a), call (args)
  ExprPtr a, b, c;
  std::vector<ExprPtr> args;

  ExprPtr Clone() const;

  bool IsIntConst() const { return kind == ExprKind::kIntLit; }
  std::int64_t AsInt() const { return static_cast<std::int64_t>(int_value); }
};

ExprPtr MakeIntLit(std::int64_t v, Scalar s = Scalar::kInt, int line = 0);
ExprPtr MakeFloatLit(double v, Scalar s = Scalar::kFloat, int line = 0);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind : std::uint8_t {
  kDecl,        // scalar variable declaration(s)
  kArrayDecl,   // __shared__ or local (register) array
  kExpr,
  kIf,
  kFor,
  kWhile,
  kReturn,
  kBlock,
  kSync,        // __syncthreads()
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct VarDecl {
  std::string name;
  TypeRef type;
  ExprPtr init;  // may be null
  bool is_const = false;
};

struct Stmt {
  StmtKind kind;
  int line = 0;

  // kDecl
  std::vector<VarDecl> decls;

  // kArrayDecl
  std::string array_name;
  TypeRef array_elem;           // element scalar type
  ExprPtr array_size;           // must fold to a constant (null when dynamic)
  vgpu::Space array_space = vgpu::Space::kShared;  // kShared or kLocal (register array)
  bool array_dynamic = false;   // extern __shared__ T name[]; sized at launch

  // kExpr / kReturn(void only)
  ExprPtr expr;

  // kIf
  ExprPtr cond;
  StmtPtr then_branch;
  StmtPtr else_branch;  // may be null

  // kFor
  StmtPtr init;   // decl or expr stmt, may be null
  ExprPtr step;   // may be null
  StmtPtr body;   // for/while body

  // kBlock
  std::vector<StmtPtr> stmts;

  StmtPtr Clone() const;
};

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

struct ParamDecl {
  std::string name;
  TypeRef type;
};

struct KernelDecl {
  std::string name;
  std::vector<ParamDecl> params;
  StmtPtr body;  // kBlock
  int line = 0;
};

struct ConstantDecl {
  std::string name;
  Scalar elem = Scalar::kFloat;
  ExprPtr size;        // element count; must fold to a constant
  std::int64_t folded_size = -1;  // filled by sema
  unsigned offset = 0;            // byte offset in the module constant segment
  int line = 0;
};

struct TextureDecl {
  std::string name;
  int line = 0;
};

struct ModuleAst {
  std::vector<ConstantDecl> constants;
  std::vector<TextureDecl> textures;
  std::vector<KernelDecl> kernels;
};

}  // namespace kspec::kcc
