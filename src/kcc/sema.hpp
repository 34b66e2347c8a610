// Semantic analysis for Kernel-C.
//
// Types every expression, inserts implicit conversions as explicit Cast
// nodes, resolves identifiers against lexical scopes (shadowing is rejected:
// the unroller substitutes induction variables by name), validates intrinsic
// calls, checks lvalues and const-ness, and folds the sizes of __shared__,
// __constant__, and local array declarations — which must be compile-time
// constants, exactly the restriction kernel specialization exists to relax
// (Section 2.4).
#pragma once

#include <optional>

#include "kcc/ast.hpp"

namespace kspec::kcc {

// Analyzes the whole module in place. Throws CompileError on any violation.
void Analyze(ModuleAst& module);

// Re-checks a single kernel after AST transformations (unroll/scalarize);
// `module` provides the constant-array symbols.
void AnalyzeKernel(ModuleAst& module, KernelDecl& kernel);

// The run-time slot literal `e` lowers to: a float literal rounds to f32, a
// 32-bit integer takes its run-time encoding.
std::uint64_t LiteralSlot(const Expr& e);

// The literal of scalar type `s` that holds run-time slot `raw`.
ExprPtr SlotLiteral(std::uint64_t raw, Scalar s, int line);

// AST-level constant folding. Returns a literal node when `e` folds, or
// nullptr when it does not; never mutates `e`.
ExprPtr TryFold(const Expr& e);

// Folds `e` in place (recursively folding children first). The node is
// replaced by a literal when possible.
void FoldInPlace(ExprPtr& e);

// Folds statements in place (expressions inside them).
void FoldStmt(StmtPtr& s);

// Returns the value of `e` as a compile-time integer constant after folding,
// or std::nullopt.
std::optional<std::int64_t> EvalConstInt(const Expr& e);

}  // namespace kspec::kcc
