// MiniPTX -> C++ code generation for the native execution tier.
//
// EmitModuleSource walks every kernel of a decoded module and emits one
// standalone C++20 translation unit (standard headers only) that the host
// toolchain compiles into a shared object:
//
//   * the SoA register file and warp lanes become plain inner loops the host
//     compiler can unroll and autovectorize;
//   * the per-pc reconvergence machinery is lowered to structured control
//     flow: a `dispatch` label plus one switch over basic-block leaders, each
//     block a straight-line run of specialized statements;
//   * cost-model charges are hoisted per basic block — the per-instruction
//     issue-cost and ILP sums are folded into per-block constants at emit
//     time (exact: every charge is a dyadic rational), so LaunchStats stay
//     bit-identical to the interpreter;
//   * each instruction is emitted as a call into vgpu/simt.hpp — the lane
//     rules and cost charges the interpreter's handlers call too, whose text
//     (with abi.hpp's) opens every TU — specialized on (opcode, type,
//     operand kinds) so immediates constant-fold. The register-only forms
//     are one statement shape, Lanes<BODY>(mask, dst, a, b, c), naming the
//     lane body vgpu::WithLaneRule maps the instruction to. A small TU-only
//     prelude adds the per-block state, operand accessors, special
//     registers and entry wiring.
//
// The emitted unit embeds the ModuleCacheKey canonical text (served back via
// kspec_native_build_key) so a loaded artifact can be verified against the
// key that names it.
//
// With a ShapeSpec the unit is shape-specialized: launch dimensions become
// compile-time constants, each kernel gets a full-warp body (driven by the
// mask-constant-propagation pass in maskprop.hpp) plus, when the block size
// is not a multiple of 32, a boundary-warp body, and the exported run_block
// refuses launches whose shape does not match.
#pragma once

#include <cstdint>
#include <string>

#include "kcc/compiler.hpp"
#include "native/shape.hpp"

namespace kspec::native {

// FNV-1a of the runtime text every emitted unit opens with (vgpu/simt.hpp
// and native/abi.hpp). Artifact key texts include it, so an artifact built
// from other semantics text never loads.
std::uint64_t EmbeddedRuntimeHash();

// Full translation-unit text for `mod`, tagged with the key's canonical text.
// Pass `shape` to emit a shape-specialized variant (see file comment).
std::string EmitModuleSource(const kcc::CompiledModule& mod,
                             const std::string& key_canonical_text,
                             const ShapeSpec* shape = nullptr);

}  // namespace kspec::native
