// The vgpu's SIMT semantics: what one lane computes and what one
// warp-instruction charges, written once for every execution tier.
//
// The interpreter (vgpu/interp.cpp) compiles this header. The native tier
// embeds its text at the top of every emitted translation unit: the build
// turns it into a string (src/native/CMakeLists.txt), with `//` comments,
// indentation and blank lines stripped. So the value codecs, the lane
// bodies of the register-only forms (ALU, setp, cvt, mov, sel) and the one
// warp loop over them, the ld/st address sweep and its cost charges,
// atomics, texture sampling, the special registers, the warp-control rules
// (branch, barrier, exit, reconvergence, the warp counters and the
// watchdog) and the block barrier scheduler have one definition, and
// outputs and LaunchStats stay bit-identical across interp, decoded and
// native (DESIGN.md section 8).
//
// Rules for this file, since the host toolchain compiles it inside every
// native TU: only the standard headers below, no kspec header, no block
// comments, and nothing that throws. Faults go to the caller's hook
// (simt::Env::Fail), which throws host-side.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace kspec::vgpu {

// ---- The vocabulary: value types, spaces and opcodes ----

enum class Type : std::uint8_t {
  kPred,  // boolean predicate
  kI32,
  kU32,
  kI64,
  kU64,  // also pointer type
  kF32,
  kF64,
};

// Memory address spaces, mirroring the CUDA memory hierarchy relevant to the
// dissertation (Section 2.1).
enum class Space : std::uint8_t { kGlobal, kShared, kConst, kLocal, kParam };

enum class Opcode : std::uint8_t {
  kNop,
  // Data movement.
  kMov,       // dst = a
  kSreg,      // dst = special register (a.imm selects SpecialReg)
  // Integer / float arithmetic. Operand types given by Instr::type.
  kAdd, kSub, kMul, kDiv, kRem,
  kMul24,     // 24-bit integer multiply intrinsic (__[u]mul24)
  kMad,       // dst = a * b + c (integer MAD or float FMA)
  kMin, kMax,
  kNeg, kAbs,
  kAnd, kOr, kXor, kNot,
  kShl, kShr,  // shift; kShr is arithmetic for signed types, logical otherwise
  // Float-only unary math.
  kSqrt, kRsqrt, kFloor, kCeil, kExp, kLog, kSin, kCos,
  // Comparison -> predicate register. CmpOp in Instr::cmp.
  kSetp,
  // dst = pred ? a : b
  kSel,
  // Type conversion: dst type = Instr::type, source type = Instr::type2.
  kCvt,
  // Memory. Address operand a (+ b immediate byte offset). Space in Instr::space.
  kLd, kSt,
  // Control flow.
  kBra,       // unconditional branch to Instr::target
  kBraPred,   // branch to target if pred (negated when Instr::neg); carries
              // the structured reconvergence pc in Instr::reconv
  kBarSync,   // __syncthreads()
  kExit,      // thread retires (also used for early return)
  // Atomics on global/shared memory (returns old value).
  kAtomAdd, kAtomMin, kAtomMax, kAtomExch, kAtomCas,
  // Texture sampling: dst = tex2D(texture[target], a, b) with bilinear
  // filtering and clamp addressing; kTex1D fetches element a of the bound
  // buffer (no filtering). The texture slot index lives in Instr::target.
  kTex2D, kTex1D,
};

enum class CmpOp : std::uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

enum class SpecialReg : std::uint8_t {
  kTidX, kTidY, kTidZ,
  kNtidX, kNtidY, kNtidZ,
  kCtaidX, kCtaidY, kCtaidZ,
  kNctaidX, kNctaidY, kNctaidZ,
  kLaneId, kWarpId,
};

// Size in bytes of a value of type `t` in memory.
constexpr std::size_t TypeSize(Type t) {
  switch (t) {
    case Type::kPred: return 1;
    case Type::kI32:
    case Type::kU32:
    case Type::kF32: return 4;
    case Type::kI64:
    case Type::kU64:
    case Type::kF64: return 8;
  }
  return 0;
}
constexpr bool IsFloatType(Type t) { return t == Type::kF32 || t == Type::kF64; }
constexpr bool IsSignedInt(Type t) { return t == Type::kI32 || t == Type::kI64; }
constexpr bool IsIntType(Type t) {
  return t == Type::kI32 || t == Type::kU32 || t == Type::kI64 || t == Type::kU64;
}
constexpr bool IsAtomicOp(Opcode op) { return op >= Opcode::kAtomAdd && op <= Opcode::kAtomCas; }

// ---- Value codecs: registers are 64-bit slots read per the static type ----

inline std::uint64_t EncodeF32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  return bits;
}
inline float DecodeF32(std::uint64_t raw) {
  std::uint32_t bits = static_cast<std::uint32_t>(raw);
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}
inline std::uint64_t EncodeF64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  return bits;
}
inline double DecodeF64(std::uint64_t raw) {
  double v;
  std::memcpy(&v, &raw, 8);
  return v;
}
inline std::uint64_t EncodeI32(std::int32_t v) { return static_cast<std::uint32_t>(v); }
inline std::int32_t DecodeI32(std::uint64_t raw) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(raw));
}

// ---- What a launch reads and accumulates ----

// A 2D (or 1D when h == 1) float texture bound to linear global memory.
struct TextureBinding {
  std::uint64_t base = 0;  // device pointer to float data
  int w = 0, h = 1;        // texels
};

// Partial dynamic counters for one chunk of thread blocks. Workers accumulate
// into their chunk's BlockStats; FoldBlockStats combines the partials in chunk
// order so the result does not depend on which host thread ran which chunk.
struct BlockStats {
  std::uint64_t warp_instrs = 0;
  std::uint64_t lane_instrs = 0;
  std::uint64_t global_instrs = 0;
  std::uint64_t mem_transactions = 0;
  std::uint64_t texture_fetches = 0;
  std::uint64_t shared_conflict_cycles = 0;
  std::uint64_t barriers = 0;
  double issue_cycles = 0;
  double memory_cycles = 0;
  double ilp_sum = 0;  // sum over warp issues of the static ILP at each pc
};

// The device constants the lane rules read. They are run-time values on
// every tier: a module cache key names only the device profile, and tests
// tweak single DeviceProfile fields, so a baked constant would diverge.
struct DeviceConsts {
  int is_fermi = 0;
  unsigned warp_size = 32;
  unsigned shared_mem_banks = 16;
  double cycles_per_global_tx = 36.0;
  double shared_access_cost = 1.0;
  std::uint64_t watchdog_warp_instrs = 0;
};

// What a kernel can do wrong at run time, reported to the caller's hook as
// (code, a, b); vgpu::RaiseFault (tier.hpp) owns the exception texts. The
// values are part of the native ABI: changing them bumps kNativeAbiVersion.
enum class Fault : int {
  kSharedOob = 0,       // a = addr, b = access bytes
  kConstOob,            // a = addr, b = access bytes
  kConstStore,
  kBadSpace,
  kMisalignedAtomic,    // a = element size, b = addr
  kTexUnbound,          // a = slot
  kTexInvalid,          // a = slot
  kDivergentBarrier,
  kWatchdog,
  kBadOp,               // a = pc (invalid opcode/type pair or special register)
  kBadDispatch,         // a = pc (native: branch to a non-leader pc)
  kBadAtomic,
  kNoReconv,            // a = pc (divergent branch without reconvergence)
};

// ---- Warps and their reconvergence stack ----

constexpr std::uint32_t kFullMask = 0xffffffffu;
constexpr std::uint32_t kNoReconv = 0xffffffffu;

struct StackEntry {
  std::uint32_t pc;
  std::uint32_t mask;
  std::uint32_t rpc;
};

enum class WarpState : std::uint8_t { kRunnable, kAtBarrier, kDone };

struct Warp {
  std::uint32_t pc = 0;
  std::uint32_t mask = 0;   // active lanes
  std::uint32_t live = 0;   // non-retired lanes
  std::uint32_t rpc = kNoReconv;
  std::vector<StackEntry> stack;
  WarpState state = WarpState::kRunnable;
};

namespace simt {

using u8 = unsigned char;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

// One block's execution environment as the rules below see it. `GM` is the
// global-memory policy: gm->TryAccess(addr, len) returns nullptr unless the
// range sits inside one live allocation, gm->Access(addr, len) returns the
// pointer or raises the host's precise error. The interpreter passes its
// GlobalMemory*, a native TU its callback table.
template <class GM>
struct Env {
  const DeviceConsts* dev = nullptr;
  BlockStats* st = nullptr;
  GM gm{};
  u64* regs = nullptr;  // register file, one row of `stride` lanes per vreg
  unsigned stride = 0;  // warps per block x warp size
  u8* shared = nullptr;
  u64 shared_size = 0;
  const u8* cmem = nullptr;
  u64 cmem_size = 0;
  const TextureBinding* textures = nullptr;
  u64 ntextures = 0;
  void* fail_ctx = nullptr;
  void (*fail)(void* ctx, int code, u64 a, u64 b) = nullptr;

  u64* Row(int r) const { return regs + static_cast<std::size_t>(r) * stride; }
  [[noreturn]] void Fail(Fault f, u64 a = 0, u64 b = 0) const {
    fail(fail_ctx, static_cast<int>(f), a, b);
    __builtin_unreachable();  // the hook throws host-side
  }
};

// Writes f(l) to dst[l] for every active lane. The full-mask case — the hot
// one by far — is a plain countable loop the compiler can unroll/vectorize.
// Callers that proved the mask full pass the kFullMask literal.
template <typename F>
inline void StoreLanes(u32 mask, u64* dst, F&& f) {
  if (mask == kFullMask) {
    for (unsigned l = 0; l < 32; ++l) dst[l] = f(l);
    return;
  }
  while (mask) {
    const unsigned l = static_cast<unsigned>(std::countr_zero(mask));
    mask &= mask - 1;
    dst[l] = f(l);
  }
}

template <Type TY>
struct FTraits;
template <>
struct FTraits<Type::kF32> {
  using T = float;
  static T Get(u64 v) { return DecodeF32(v); }
  static u64 Put(T v) { return EncodeF32(v); }
};
template <>
struct FTraits<Type::kF64> {
  using T = double;
  static T Get(u64 v) { return DecodeF64(v); }
  static u64 Put(T v) { return EncodeF64(v); }
};

// Integer results are normalized to the type's width: a 32-bit result fills
// the slot's low half (EncodeI32 leaves the upper half zero).
template <bool is64, bool sg>
inline u64 INorm(u64 v) {
  if constexpr (is64) {
    return v;
  } else {
    const u32 t = static_cast<u32>(v);
    if constexpr (sg) return EncodeI32(static_cast<i32>(t));
    return t;
  }
}

template <bool is64>
inline i64 IAsSigned(u64 v) {
  if constexpr (is64) return static_cast<i64>(v);
  return DecodeI32(v);
}

template <CmpOp CMP, typename T>
inline bool CmpApply(T x, T y) {
  if constexpr (CMP == CmpOp::kEq) return x == y;
  if constexpr (CMP == CmpOp::kNe) return x != y;
  if constexpr (CMP == CmpOp::kLt) return x < y;
  if constexpr (CMP == CmpOp::kLe) return x <= y;
  if constexpr (CMP == CmpOp::kGt) return x > y;
  if constexpr (CMP == CmpOp::kGe) return x >= y;
}

// ---- ALU ----

// Predicates use unsigned-32 ALU semantics (the logical ops the front end
// emits for !, &&, ||).
constexpr Type AluType(Type t) { return t == Type::kPred ? Type::kU32 : t; }

// The (opcode, type) pairs the ALU defines, for a type already mapped by
// AluType. Executing any other pair faults with Fault::kBadOp.
constexpr bool AluValid(Opcode op, Type ty) {
  switch (op) {
    case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul: case Opcode::kDiv:
    case Opcode::kRem: case Opcode::kMad: case Opcode::kMin: case Opcode::kMax:
    case Opcode::kNeg: case Opcode::kAbs:
      return IsFloatType(ty) || IsIntType(ty);
    case Opcode::kMul24: case Opcode::kAnd: case Opcode::kOr: case Opcode::kXor:
    case Opcode::kNot: case Opcode::kShl: case Opcode::kShr:
      return IsIntType(ty);
    case Opcode::kSqrt: case Opcode::kRsqrt: case Opcode::kFloor: case Opcode::kCeil:
      return IsFloatType(ty);
    case Opcode::kExp: case Opcode::kLog: case Opcode::kSin: case Opcode::kCos:
      return ty == Type::kF32;  // transcendentals exist in f32 only
    default:
      return false;
  }
}

// The second operand of a commutative float op x op y: x itself when x is
// NaN, so the result is x quieted (the first NaN operand, x86's rule for one
// instruction) whatever order the host compiler gives the operands (it swaps
// them at -O3). With at most one NaN operand the order cannot change the
// result. A select, not a branch, so the lane loops still vectorize.
template <class T>
[[gnu::always_inline]] inline T NanFirst(T x, T y) {
  return x != x ? x : y;
}

// ---- Lane bodies: what one lane computes ----
//
// One always-inlined body per register-only form (ALU, setp, cvt, mov, sel),
// each with the LaneFn signature: the lane's raw operand slots in, its raw
// result slot out. They belong in the caller's lane loop, as if written
// there, whatever the host compiler's inlining budget for a large emitted
// function. Every tier runs them through Lanes, and kcc folds through them
// (vgpu::EvalLane); vgpu::WithLaneRule (isa.hpp) maps an instruction to its
// body.
using LaneFn = u64 (*)(u64 a, u64 b, u64 c);

template <Opcode OP, Type TY>
[[gnu::always_inline]] inline u64 FloatLane(u64 a, u64 b, u64 c) {
  static_assert(AluValid(OP, TY) && IsFloatType(TY), "not a float ALU form");
  using FT = FTraits<TY>;
  using T = typename FT::T;
  const T av = FT::Get(a);
  if constexpr (OP == Opcode::kAdd) return FT::Put(av + NanFirst(av, FT::Get(b)));
  else if constexpr (OP == Opcode::kSub) return FT::Put(av - FT::Get(b));
  else if constexpr (OP == Opcode::kMul) return FT::Put(av * NanFirst(av, FT::Get(b)));
  else if constexpr (OP == Opcode::kDiv) return FT::Put(av / FT::Get(b));
  else if constexpr (OP == Opcode::kRem) return FT::Put(std::fmod(av, FT::Get(b)));
  else if constexpr (OP == Opcode::kMad) {
    const T p = av * NanFirst(av, FT::Get(b));
    return FT::Put(p + NanFirst(p, FT::Get(c)));
  }
  else if constexpr (OP == Opcode::kMin) return FT::Put(std::min(av, FT::Get(b)));
  else if constexpr (OP == Opcode::kMax) return FT::Put(std::max(av, FT::Get(b)));
  else if constexpr (OP == Opcode::kNeg) return FT::Put(-av);
  else if constexpr (OP == Opcode::kAbs) return FT::Put(std::fabs(av));
  else if constexpr (OP == Opcode::kSqrt) return FT::Put(std::sqrt(av));
  else if constexpr (OP == Opcode::kRsqrt) return FT::Put(T(1) / std::sqrt(av));
  else if constexpr (OP == Opcode::kFloor) return FT::Put(std::floor(av));
  else if constexpr (OP == Opcode::kCeil) return FT::Put(std::ceil(av));
  else if constexpr (OP == Opcode::kExp) return FT::Put(std::exp(av));
  else if constexpr (OP == Opcode::kLog) return FT::Put(std::log(av));
  else if constexpr (OP == Opcode::kSin) return FT::Put(std::sin(av));
  else return FT::Put(std::cos(av));
}

// Integer semantics: arithmetic wraps, results are normalized to the type's
// width, shifts clamp at the width, division by zero yields zero, and the one
// overflowing quotient (INT_MIN / -1) wraps to INT_MIN with remainder 0, as
// abs(INT_MIN) is INT_MIN — all computed without signed overflow.
template <Opcode OP, Type TY>
[[gnu::always_inline]] inline u64 IntLane(u64 a, u64 b, u64 c) {
  static_assert(AluValid(OP, TY) && IsIntType(TY), "not an integer ALU form");
  constexpr bool is64 = TY == Type::kI64 || TY == Type::kU64;
  constexpr bool sg = TY == Type::kI32 || TY == Type::kI64;
  if constexpr (OP == Opcode::kAdd) return INorm<is64, sg>(a + b);
  else if constexpr (OP == Opcode::kSub) return INorm<is64, sg>(a - b);
  else if constexpr (OP == Opcode::kMul) return INorm<is64, sg>(a * b);
  else if constexpr (OP == Opcode::kMad) return INorm<is64, sg>(a * b + c);
  else if constexpr (OP == Opcode::kMul24) {
    const u64 x = a & 0xffffffu, y = b & 0xffffffu;
    if constexpr (sg) {
      const i64 sx = static_cast<i64>(x << 40) >> 40;
      const i64 sy = static_cast<i64>(y << 40) >> 40;
      return INorm<is64, sg>(static_cast<u64>(sx * sy));
    } else {
      return INorm<is64, sg>(x * y);
    }
  } else if constexpr (OP == Opcode::kDiv || OP == Opcode::kRem) {
    if constexpr (sg) {
      const i64 n = IAsSigned<is64>(a), d = IAsSigned<is64>(b);
      if (d == 0) return 0;
      if (d == -1) return OP == Opcode::kDiv ? INorm<is64, sg>(0 - static_cast<u64>(n)) : 0;
      return INorm<is64, sg>(static_cast<u64>(OP == Opcode::kDiv ? n / d : n % d));
    } else {
      const u64 d = is64 ? b : static_cast<u32>(b);
      const u64 n = is64 ? a : static_cast<u32>(a);
      if (d == 0) return 0;
      return INorm<is64, sg>(OP == Opcode::kDiv ? n / d : n % d);
    }
  } else if constexpr (OP == Opcode::kMin || OP == Opcode::kMax) {
    if constexpr (sg) {
      const i64 x = IAsSigned<is64>(a), y = IAsSigned<is64>(b);
      const i64 r = OP == Opcode::kMin ? std::min(x, y) : std::max(x, y);
      return INorm<is64, sg>(static_cast<u64>(r));
    } else {
      const u64 x = is64 ? a : static_cast<u32>(a);
      const u64 y = is64 ? b : static_cast<u32>(b);
      return INorm<is64, sg>(OP == Opcode::kMin ? std::min(x, y) : std::max(x, y));
    }
  } else if constexpr (OP == Opcode::kNeg) {
    return INorm<is64, sg>(~a + 1);
  } else if constexpr (OP == Opcode::kAbs) {
    const i64 v = IAsSigned<is64>(a);
    return INorm<is64, sg>(v < 0 ? 0 - static_cast<u64>(v) : static_cast<u64>(v));
  } else if constexpr (OP == Opcode::kAnd) {
    return INorm<is64, sg>(a & b);
  } else if constexpr (OP == Opcode::kOr) {
    return INorm<is64, sg>(a | b);
  } else if constexpr (OP == Opcode::kXor) {
    return INorm<is64, sg>(a ^ b);
  } else if constexpr (OP == Opcode::kNot) {
    return INorm<is64, sg>(~a);
  } else if constexpr (OP == Opcode::kShl) {
    constexpr unsigned width = is64 ? 64 : 32;
    if (b >= width) return 0;
    return INorm<is64, sg>(a << b);
  } else {  // kShr
    constexpr unsigned width = is64 ? 64 : 32;
    if constexpr (sg) {
      const i64 v = IAsSigned<is64>(a);
      if (b >= width) return INorm<is64, sg>(static_cast<u64>(v < 0 ? -1 : 0));
      return INorm<is64, sg>(static_cast<u64>(v >> b));
    } else {
      if (b >= width) return 0;
      const u64 v = is64 ? a : static_cast<u32>(a);
      return INorm<is64, sg>(v >> b);
    }
  }
}

// setp: the comparison as a 0/1 predicate slot. Integers compare at their
// width and signedness, floats as doubles (exact for f32).
template <Type TY, CmpOp CMP>
[[gnu::always_inline]] inline u64 SetpLane(u64 a, u64 b, u64) {
  if constexpr (TY == Type::kI32) {
    return CmpApply<CMP, i64>(DecodeI32(a), DecodeI32(b));
  } else if constexpr (TY == Type::kU32) {
    return CmpApply<CMP, i64>(static_cast<u32>(a), static_cast<u32>(b));
  } else if constexpr (TY == Type::kI64) {
    return CmpApply<CMP, i64>(static_cast<i64>(a), static_cast<i64>(b));
  } else if constexpr (TY == Type::kU64 || TY == Type::kPred) {
    return CmpApply<CMP, u64>(a, b);
  } else if constexpr (TY == Type::kF32) {
    return CmpApply<CMP, double>(DecodeF32(a), DecodeF32(b));
  } else {
    return CmpApply<CMP, double>(DecodeF64(a), DecodeF64(b));
  }
}

// cvt from ST to DT. Integer->integer conversions must not round-trip
// through double (precision loss on 64-bit); they stay on the integer path.
template <Type DT, Type ST>
[[gnu::always_inline]] inline u64 CvtLane(u64 a, u64, u64) {
  if constexpr (IsIntType(DT) && (IsIntType(ST) || ST == Type::kPred)) {
    i64 sv;
    if constexpr (ST == Type::kI32) sv = DecodeI32(a);
    else if constexpr (ST == Type::kU32) sv = static_cast<u32>(a);
    else sv = static_cast<i64>(a);
    if constexpr (DT == Type::kI32) return EncodeI32(static_cast<i32>(sv));
    else if constexpr (DT == Type::kU32) return static_cast<u32>(sv);
    else return static_cast<u64>(sv);
  } else {
    double v;
    if constexpr (ST == Type::kI32) v = DecodeI32(a);
    else if constexpr (ST == Type::kU32) v = static_cast<u32>(a);
    else if constexpr (ST == Type::kI64) v = static_cast<double>(static_cast<i64>(a));
    else if constexpr (ST == Type::kU64) v = static_cast<double>(a);
    else if constexpr (ST == Type::kF32) v = DecodeF32(a);
    else if constexpr (ST == Type::kF64) v = DecodeF64(a);
    else v = a ? 1.0 : 0.0;
    if constexpr (DT == Type::kI32) return EncodeI32(static_cast<i32>(v));
    else if constexpr (DT == Type::kU32) return static_cast<u32>(static_cast<i64>(v));
    else if constexpr (DT == Type::kI64) return static_cast<u64>(static_cast<i64>(v));
    else if constexpr (DT == Type::kU64) return static_cast<u64>(v);
    else if constexpr (DT == Type::kF32) return EncodeF32(static_cast<float>(v));
    else if constexpr (DT == Type::kF64) return EncodeF64(v);
    else return v != 0.0;
  }
}

[[gnu::always_inline]] inline u64 MovLane(u64 a, u64, u64) { return a; }

// sel: a where the predicate slot c is nonzero, else b.
[[gnu::always_inline]] inline u64 SelLane(u64 a, u64 b, u64 c) { return c ? a : b; }

// One register-only warp-instruction: BODY on every active lane. A, B and C
// are operand accessors (operator[](lane) -> raw slot): the interpreter's
// row-or-immediate LaneSrc, a native TU's RS (register row) or IM
// (immediate); a form's unused operands are immediates it never reads.
// Always inlined, so a mask the caller proved full (the kFullMask literal)
// reaches StoreLanes as a constant.
template <LaneFn BODY, class A, class B, class C>
[[gnu::always_inline]] inline void Lanes(const u32 mask, u64* dst, A a, B b, C c) {
  StoreLanes(mask, dst, [&](unsigned l) { return BODY(a[l], b[l], c[l]); });
}

// ---- Memory: cost charges ----

// Charges global-memory transactions for the active lanes' addresses; lo/hi
// are the min/max lane addresses. Transactions are 128-byte segments: cc1.x
// coalesces per half-warp, cc2.x per full warp through the L1 line.
inline void ChargeGlobal(const DeviceConsts& dev, BlockStats& st, const u64* addrs, u32 mask,
                         u64 lo, u64 hi) {
  // Fully-coalesced accesses — the whole warp inside one segment — are the
  // overwhelmingly common case and need no dedup scan: one transaction per
  // non-empty coalescing group.
  if ((lo >> 7) == (hi >> 7)) {
    const int tx = dev.is_fermi ? 1 : ((mask & 0xffffu) ? 1 : 0) + ((mask >> 16) ? 1 : 0);
    st.mem_transactions += tx;
    st.memory_cycles += tx * dev.cycles_per_global_tx;
    ++st.global_instrs;
    return;
  }
  auto count_segments = [&](u32 m) {
    u64 segs[32];
    int n = 0;
    u64 last = ~0ull;
    while (m) {
      const int lane = std::countr_zero(m);
      m &= m - 1;
      const u64 seg = addrs[lane] >> 7;
      // Consecutive lanes overwhelmingly hit the same segment (coalesced
      // access): skip the dedup scan for runs.
      if (seg == last) continue;
      last = seg;
      bool seen = false;
      for (int k = 0; k < n; ++k) {
        if (segs[k] == seg) {
          seen = true;
          break;
        }
      }
      if (!seen) segs[n++] = seg;
    }
    return n;
  };
  const int tx = dev.is_fermi ? count_segments(mask)
                              : count_segments(mask & 0xffffu) + count_segments(mask >> 16 << 16);
  st.mem_transactions += tx;
  st.memory_cycles += tx * dev.cycles_per_global_tx;
  ++st.global_instrs;
}

// Charges shared-memory bank conflicts. `conflict_free` is proven by the
// caller's address sweep: either every active lane reads the same word (a
// broadcast, served in one cycle on both generations) or lane addresses are
// word-linear in the lane index with a lane span smaller than the bank count,
// which touches every bank at most once per conflict group. Both yield degree
// 1 in the general scan, so skipping it charges exactly the same cycles.
inline void ChargeShared(const DeviceConsts& dev, BlockStats& st, const u64* addrs, u32 mask,
                         bool conflict_free) {
  if (conflict_free) {
    st.issue_cycles += (dev.shared_access_cost - 1.0);
    return;
  }
  // Conflict degree = max number of distinct addresses mapping to one bank.
  auto degree = [&](u32 m) {
    int counts[32] = {0};
    u64 seen_addr[32];
    int seen_n = 0;
    while (m) {
      const int lane = std::countr_zero(m);
      m &= m - 1;
      const u64 a = addrs[lane];
      bool dup = false;
      for (int k = 0; k < seen_n; ++k) {
        if (seen_addr[k] == a) {
          dup = true;  // same word: broadcast, no extra cycle
          break;
        }
      }
      if (dup) continue;
      if (seen_n < 32) seen_addr[seen_n++] = a;
      ++counts[(a >> 2) % dev.shared_mem_banks];
    }
    int d = 1;
    for (int b = 0; b < 32; ++b) d = std::max(d, counts[b]);
    return d;
  };
  const int extra = dev.is_fermi ? degree(mask) - 1
                                 : (degree(mask & 0xffffu) - 1) + (degree(mask >> 16 << 16) - 1);
  if (extra > 0) {
    st.shared_conflict_cycles += extra;
    st.issue_cycles += extra;
  }
  st.issue_cycles += (dev.shared_access_cost - 1.0);
}

// ---- Memory: ld / st ----

// One lane's address resolution with the precise fault: the slow path of Mem
// and the shared-memory path of atomics.
template <class E>
inline u8* Resolve(const E& X, Space space, u64 addr, u64 bytes, bool for_write) {
  switch (space) {
    case Space::kGlobal:
      return X.gm->Access(addr, bytes);
    case Space::kShared:
      if (addr + bytes > X.shared_size) X.Fail(Fault::kSharedOob, addr, bytes);
      return X.shared + addr;
    case Space::kConst:
      if (for_write) X.Fail(Fault::kConstStore);
      if (addr + bytes > X.cmem_size) X.Fail(Fault::kConstOob, addr, bytes);
      return const_cast<u8*>(X.cmem + addr);
    default:
      X.Fail(Fault::kBadSpace);
  }
}

// The ld/st forms Mem executes. Any other one — a store to constant memory,
// a local or param space — faults on its first active lane, so it decodes
// straight to MemFault(space).
constexpr bool MemSupported(Space sp, bool load) {
  return sp == Space::kGlobal || sp == Space::kShared || (sp == Space::kConst && load);
}
constexpr Fault MemFault(Space sp) {
  return sp == Space::kConst ? Fault::kConstStore : Fault::kBadSpace;
}

// Mem's slow path: per-lane Resolve, so the first bad lane raises its
// precise fault. A function of its own, out of the hot path's way.
template <Space SP, bool LOAD, int ESZ, bool SEXT, class E, class C>
inline void MemSlow(E& X, u32 m, u64* dst, const u64* addrs, C cop) {
  while (m) {
    const int lane = std::countr_zero(m);
    m &= m - 1;
    u8* p = Resolve(X, SP, addrs[lane], ESZ, !LOAD);
    if constexpr (LOAD) {
      u64 raw = 0;
      std::memcpy(&raw, p, ESZ);
      if constexpr (SEXT) raw = EncodeI32(static_cast<i32>(raw));
      dst[lane] = raw;
    } else {
      const u64 raw = cop[static_cast<unsigned>(lane)];
      std::memcpy(p, &raw, ESZ);
    }
  }
}

// One ld/st warp-instruction of ESZ bytes (SEXT: an i32 load re-encoded
// sign-extended). One sweep computes the lane addresses, their span and the
// two address-pattern flags the shared-memory charge exploits (broadcast /
// word-linear); then the whole span is bounds-checked once for tight copy
// loops, falling back to per-lane Resolve (and its precise fault) when the
// span is not contained — global: in one live allocation; shared/const: in
// the region. FULL: the caller proved the mask is the full warp, so the lane
// loops are straight-line and the charges' popcounts fold to constants.
template <Space SP, bool LOAD, int ESZ, bool SEXT, bool FULL = false, class E, class A, class C>
inline void Mem(E& X, const Warp& w, u64* dst, A aop, u64 off, C cop) {
  static_assert(MemSupported(SP, LOAD), "decode unsupported forms to MemFault");
  const u32 msk = FULL ? kFullMask : w.mask;
  u64 addrs[32];
  const int lane0 = FULL ? 0 : std::countr_zero(msk);
  const u64 a0 = aop[static_cast<unsigned>(lane0)] + off;
  u64 lo = a0, hi = a0;
  bool all_same = true, linear4 = true;
  addrs[lane0] = a0;
  auto collect = [&](unsigned lane) {
    const u64 addr = aop[lane] + off;
    addrs[lane] = addr;
    lo = std::min(lo, addr);
    hi = std::max(hi, addr);
    if constexpr (SP == Space::kShared) {
      all_same &= (addr == a0);
      linear4 &= (addr - a0 == 4ull * (lane - static_cast<unsigned>(lane0)));
    }
  };
  if (msk == kFullMask) {  // statically true when FULL
    for (unsigned lane = 1; lane < 32; ++lane) collect(lane);
  } else {
    u32 m = msk & (msk - 1);  // lanes after the first
    while (m) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
      m &= m - 1;
      collect(lane);
    }
  }
  if constexpr (SP == Space::kGlobal) {
    ChargeGlobal(*X.dev, *X.st, addrs, msk, lo, hi);
  } else if constexpr (SP == Space::kShared) {
    const unsigned lane_span =
        static_cast<unsigned>(31 - std::countl_zero(msk)) - static_cast<unsigned>(lane0);
    ChargeShared(*X.dev, *X.st, addrs, msk,
                 all_same || (linear4 && lane_span < X.dev->shared_mem_banks));
  }

  u8* base;
  u64 rebase = 0;
  if constexpr (SP == Space::kGlobal) {
    base = const_cast<u8*>(X.gm->TryAccess(lo, hi + ESZ - lo));
    rebase = lo;
  } else if constexpr (SP == Space::kShared) {
    base = hi + ESZ <= X.shared_size ? X.shared : nullptr;
  } else {
    base = hi + ESZ <= X.cmem_size ? const_cast<u8*>(X.cmem) : nullptr;
  }
  auto for_lanes = [&](auto&& f) {
    if (msk == kFullMask) {
      for (int lane = 0; lane < 32; ++lane) f(lane);
    } else {
      u32 m = msk;
      while (m) {
        const int lane = std::countr_zero(m);
        m &= m - 1;
        f(lane);
      }
    }
  };
  if (!base) [[unlikely]] {
    MemSlow<SP, LOAD, ESZ, SEXT>(X, msk, dst, addrs, cop);
    return;
  }
  if constexpr (LOAD) {
    for_lanes([&](int lane) {
      u64 raw = 0;
      std::memcpy(&raw, base + (addrs[lane] - rebase), ESZ);
      if constexpr (SEXT) raw = EncodeI32(static_cast<i32>(raw));
      dst[lane] = raw;
    });
  } else {
    for_lanes([&](int lane) {
      const u64 raw = cop[static_cast<unsigned>(lane)];
      std::memcpy(base + (addrs[lane] - rebase), &raw, ESZ);
    });
  }
}

// ---- Atomics ----

// The atomic's new value as a function of the old: one definition for the
// lock-free global path (inside the CAS retry loop) and the plain shared one.
template <typename U>
inline U AtomicCombine(Opcode op, Type ty, U old, U operand, U cval) {
  static_assert(sizeof(U) == 4 || sizeof(U) == 8);
  constexpr bool is32 = sizeof(U) == 4;
  switch (op) {
    case Opcode::kAtomAdd:
      if (ty == Type::kF32) {
        if constexpr (is32) return static_cast<U>(EncodeF32(DecodeF32(old) + DecodeF32(operand)));
      } else if (ty == Type::kF64) {
        if constexpr (!is32) return static_cast<U>(EncodeF64(DecodeF64(old) + DecodeF64(operand)));
      }
      return old + operand;
    case Opcode::kAtomMin:
    case Opcode::kAtomMax: {
      const bool want_min = op == Opcode::kAtomMin;
      if (ty == Type::kI32 || ty == Type::kI64) {
        using S = std::conditional_t<is32, i32, i64>;
        const S x = static_cast<S>(old), y = static_cast<S>(operand);
        return static_cast<U>(want_min ? std::min(x, y) : std::max(x, y));
      }
      if (ty == Type::kF32) {
        if constexpr (is32) {
          const float x = DecodeF32(old), y = DecodeF32(operand);
          return static_cast<U>(EncodeF32(want_min ? std::min(x, y) : std::max(x, y)));
        }
      }
      return want_min ? std::min(old, operand) : std::max(old, operand);
    }
    case Opcode::kAtomExch:
      return operand;
    default:  // kAtomCas; Atomic rejects every non-atomic opcode up front
      return old == operand ? cval : old;
  }
}

// Global atomics are std::atomic_ref RMW on the arena, so cross-block
// reductions stay exact when blocks execute concurrently. Returns the old
// value zero-extended, like the plain path's memcpy read-back.
template <typename U>
inline u64 AtomicRmw(Opcode op, Type ty, u8* p, u64 operand, u64 cval) {
  std::atomic_ref<U> ref(*reinterpret_cast<U*>(p));
  U old = ref.load(std::memory_order_relaxed);
  for (;;) {
    const U desired = AtomicCombine<U>(op, ty, old, static_cast<U>(operand), static_cast<U>(cval));
    if (ref.compare_exchange_weak(old, desired, std::memory_order_relaxed)) break;
  }
  return old;
}

// Shared memory is block-private and a block runs on one host thread, so a
// plain read-modify-write suffices there.
inline u64 PlainRmw(Opcode op, Type ty, std::size_t esz, u8* p, u64 operand, u64 cval) {
  u64 old = 0;
  std::memcpy(&old, p, esz);
  u64 result;
  if (esz == 4) {
    result = AtomicCombine<u32>(op, ty, static_cast<u32>(old), static_cast<u32>(operand),
                                static_cast<u32>(cval));
  } else {
    result = AtomicCombine<u64>(op, ty, old, operand, cval);
  }
  std::memcpy(p, &result, esz);
  return old;
}

// One atomic warp-instruction: lanes serialize, one transaction each; `dst`
// (the old values) may be null.
template <bool FULL = false, class E, class A, class B, class C>
inline void Atomic(E& X, const Warp& w, Opcode op, Type ty, Space space, u64* dst, A a, B b,
                   C c) {
  if (!IsAtomicOp(op)) X.Fail(Fault::kBadAtomic);
  const std::size_t esz = TypeSize(ty);
  u32 m = FULL ? kFullMask : w.mask;
  const int lanes = FULL ? 32 : std::popcount(m);
  if (space == Space::kGlobal) {
    X.st->mem_transactions += lanes;
    X.st->memory_cycles += lanes * X.dev->cycles_per_global_tx;
    ++X.st->global_instrs;
  } else {
    X.st->issue_cycles += lanes;
  }
  while (m) {
    const int lane = std::countr_zero(m);
    m &= m - 1;
    const unsigned l = static_cast<unsigned>(lane);
    const u64 addr = a[l];
    u64 old;
    if (space == Space::kGlobal) {
      if (addr % esz != 0) X.Fail(Fault::kMisalignedAtomic, esz, addr);
      u8* p = X.gm->Access(addr, esz);
      old = esz == 4 ? AtomicRmw<u32>(op, ty, p, b[l], c[l])
                     : AtomicRmw<u64>(op, ty, p, b[l], c[l]);
    } else {
      old = PlainRmw(op, ty, esz, Resolve(X, space, addr, esz, true), b[l], c[l]);
    }
    if (dst) dst[lane] = old;
  }
}

// ---- Texture sampling ----

// tex2D with bilinear filtering and clamp addressing, texel centers at
// integer coordinates (matching the manual bilinear code in the CPU
// references); tex1D fetches element a, row-major. Texture reads go through
// the simulated texture cache: a reduced per-fetch memory charge compared to
// uncached global loads.
template <bool IS2D, bool FULL = false, class E, class A, class B>
inline void Tex(E& X, const Warp& w, int slot, u64* dst, A a, B b) {
  if (slot < 0 || static_cast<u64>(slot) >= X.ntextures) {
    X.Fail(Fault::kTexUnbound, static_cast<u64>(static_cast<i64>(slot)));
  }
  const TextureBinding& tex = X.textures[slot];
  if (tex.base == 0 || tex.w <= 0 || tex.h <= 0) {
    X.Fail(Fault::kTexInvalid, static_cast<u64>(static_cast<i64>(slot)));
  }
  const int lanes = FULL ? 32 : std::popcount(w.mask);
  X.st->texture_fetches += static_cast<u64>(lanes);
  X.st->memory_cycles += 0.25 * X.dev->cycles_per_global_tx * std::max(1, lanes / 8);
  ++X.st->global_instrs;

  // Resolve the whole texture once per instruction; per-texel Access only if
  // the binding does not sit in one live allocation.
  const u64 tex_bytes = static_cast<u64>(tex.w) * static_cast<u64>(tex.h) * 4;
  const u8* tbase = X.gm->TryAccess(tex.base, tex_bytes);
  auto fetch = [&](int x, int y) -> float {
    x = std::clamp(x, 0, tex.w - 1);
    y = std::clamp(y, 0, tex.h - 1);
    const u64 texel = (static_cast<u64>(y) * tex.w + static_cast<u64>(x)) * 4;
    const u8* p = tbase ? tbase + texel : X.gm->Access(tex.base + texel, 4);
    float v;
    std::memcpy(&v, p, 4);
    return v;
  };
  u32 m = FULL ? kFullMask : w.mask;
  while (m) {
    const int lane = std::countr_zero(m);
    m &= m - 1;
    const unsigned l = static_cast<unsigned>(lane);
    if constexpr (!IS2D) {
      const i32 idx = DecodeI32(a[l]);
      dst[lane] = EncodeF32(fetch(idx % std::max(tex.w, 1), idx / std::max(tex.w, 1)));
    } else {
      const float fx = DecodeF32(a[l]);
      const float fy = DecodeF32(b[l]);
      const int x0 = static_cast<int>(std::floor(fx));
      const int y0 = static_cast<int>(std::floor(fy));
      const float ax = fx - static_cast<float>(x0);
      const float ay = fy - static_cast<float>(y0);
      const float p00 = fetch(x0, y0);
      const float p01 = fetch(x0 + 1, y0);
      const float p10 = fetch(x0, y0 + 1);
      const float p11 = fetch(x0 + 1, y0 + 1);
      const float top = p00 + ax * (p01 - p00);
      const float bot = p10 + ax * (p11 - p10);
      dst[lane] = EncodeF32(top + ay * (bot - top));
    }
  }
}

// ---- Special registers ----

// Special register R for the active lanes of the warp at lane base `lb`. `G`
// is where the coordinates come from: G.tid(axis) -> the per-slot thread
// coordinate table, G.ntid(axis), G.ctaid(axis), G.nctaid(axis) and
// G.warp_size(), axis 0..2 for x..z (the interpreter's layout and launch
// config; a native TU's launch descriptor, or its shape constants). A
// register number past kWarpId decodes to a kBadOp fault.
template <SpecialReg R, class G>
inline void Sreg(const G& g, const u32 mask, unsigned lb, u64* dst) {
  constexpr int axis = static_cast<int>(R) % 3;
  StoreLanes(mask, dst, [&](unsigned l) -> u64 {
    if constexpr (R <= SpecialReg::kTidZ) return g.tid(axis)[lb + l];
    else if constexpr (R <= SpecialReg::kNtidZ) return g.ntid(axis);
    else if constexpr (R <= SpecialReg::kCtaidZ) return g.ctaid(axis);
    else if constexpr (R <= SpecialReg::kNctaidZ) return g.nctaid(axis);
    else if constexpr (R == SpecialReg::kLaneId) return l;
    else return (lb + l) / g.warp_size();  // kWarpId
  });
}

// ---- Control flow ----

// A warp run's dynamic counters. They stay in registers for the whole run and
// flush once, when the warp stops at a barrier or retires: the accumulation
// order (per warp run, warps in block order, blocks in chunk order) is fixed,
// so the folded sums are reproducible bit for bit. `wd_accum` is the warp
// instructions the caller's runner retired before this run: the watchdog
// budget is per runner, so a non-terminating loop still trips it. A fault
// ends the launch, so a faulting run flushes nothing.
struct WarpTally {
  u64 warp_instrs = 0;
  u64 lane_instrs = 0;
  double issue_cycles = 0;
  double ilp_sum = 0;  // added by the caller, in pc order
  u64 budget;

  WarpTally(const DeviceConsts& dev, u64 wd_accum) : budget(dev.watchdog_warp_instrs - wd_accum) {}

  // Charges `n` warp-instructions over `lanes` lane-instructions costing
  // `cost` issue cycles; fails with kWatchdog past the budget. Always
  // inlined, like Branch: a native TU calls it once per basic block.
  template <class E>
  [[gnu::always_inline]] void Charge(const E& X, u64 n, u64 lanes, double cost) {
    warp_instrs += n;
    if (warp_instrs > budget) [[unlikely]] X.Fail(Fault::kWatchdog);
    lane_instrs += lanes;
    issue_cycles += cost;
  }

  void Flush(BlockStats& st, u64& wd_accum) const {
    st.warp_instrs += warp_instrs;
    st.lane_instrs += lane_instrs;
    st.issue_cycles += issue_cycles;
    st.ilp_sum += ilp_sum;
    wd_accum += warp_instrs;
  }
};

// Pops reconvergence-stack entries until one with live lanes is found.
// Returns false when the warp has fully retired.
inline bool PopState(Warp& w) {
  while (!w.stack.empty()) {
    StackEntry e = w.stack.back();
    w.stack.pop_back();
    e.mask &= w.live;
    if (e.mask) {
      w.pc = e.pc;
      w.mask = e.mask;
      w.rpc = e.rpc;
      return true;
    }
  }
  return false;
}

// `exit` retires the active lanes and resumes the next pending path.
// Returns false, with the warp marked done, when none is left. Pending
// entries keep their masks: PopState drops the retired lanes from each as it
// pops it.
inline bool ExitLanes(Warp& w) {
  w.live &= ~w.mask;
  if (PopState(w)) return true;
  w.state = WarpState::kDone;
  return false;
}

// Brings the warp to the next pc it executes, for a kernel of `ncode`
// instructions: at its reconvergence pc it pops the stack, and a pc past the
// last instruction is an implicit `exit`. Returns false, with the warp
// marked done, when no lane is left to run.
//
// A warp run is a loop over this call that ends when it returns false, at
// `bar.sync` (Barrier) or when `exit` (ExitLanes) returns false. So a run
// returns only with the warp at a barrier or done, which RunBlock relies on.
inline bool Resume(Warp& w, u32 ncode) {
  for (;;) {
    if (w.pc == w.rpc) {
      if (!PopState(w)) {
        w.state = WarpState::kDone;
        return false;
      }
    } else if (w.pc >= ncode) {
      if (!ExitLanes(w)) return false;
    } else {
      return true;
    }
  }
}

// The lanes of `mask` whose predicate (negated when `neg`) holds. FULL: the
// caller proved the mask full, so the scan is a counted loop; otherwise it
// walks the set bits, even of a full mask (a run-time full-mask test made the
// decoded tier's predicated branches slower). `neg` applies to the scanned
// bits, outside the loop.
template <bool FULL = false>
inline u32 TakenLanes(u32 mask, const u64* preds, bool neg) {
  u32 nonzero = 0;
  if constexpr (FULL) {
    for (unsigned l = 0; l < 32; ++l)
      if (preds[l] != 0) nonzero |= 1u << l;
  } else {
    for (u32 m = mask; m; m &= m - 1) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(m));
      if (preds[l] != 0) nonzero |= 1u << l;
    }
  }
  return (neg ? ~nonzero : nonzero) & mask;
}

// Branch's divergent outcome: the taken side runs now, the join continuation
// and then the fall-through side are pushed. A function of its own, so the
// host compiler may keep it out of line in a large emitted function, where
// inlining Branch then spends little of the function's inlining budget.
template <class E>
inline void Diverge(const E& X, Warp& w, u32 mask, u32 taken, u32 pc, u32 target, i32 reconv) {
  if (reconv < 0) X.Fail(Fault::kNoReconv, pc);
  const u32 r = static_cast<u32>(reconv);
  w.stack.push_back({r, mask, w.rpc});
  w.stack.push_back({pc + 1, mask & ~taken, r});
  w.mask = taken;
  w.rpc = r;
  w.pc = target;
}

// `bra.pred` at `pc` over the predicate row `preds`. A uniform outcome jumps;
// a divergent one runs the taken side now and pushes the join continuation,
// then the fall-through side, or fails with kNoReconv when the branch has no
// reconvergence pc (reconv < 0). FULL: the caller proved the mask full.
// Always inlined, whatever the host compiler's budget for a large emitted
// function: a native TU passes constants for all but `w` and `preds`.
template <bool FULL = false, class E>
[[gnu::always_inline]] inline void Branch(const E& X, Warp& w, const u64* preds, bool neg,
                                          u32 pc, u32 target, i32 reconv) {
  const u32 mask = FULL ? kFullMask : w.mask;
  const u32 taken = TakenLanes<FULL>(mask, preds, neg);
  if (taken == mask) {
    w.pc = target;
  } else if (taken == 0) {
    w.pc = pc + 1;
  } else {
    Diverge(X, w, mask, taken, pc, target, reconv);
  }
}

// `bar.sync`: every live lane must be active. The warp waits at the barrier,
// which ends its run, and resumes at `next` once RunBlock releases it.
template <class E>
inline void Barrier(const E& X, Warp& w, u32 next) {
  if (w.mask != w.live) X.Fail(Fault::kDivergentBarrier);
  w.pc = next;
  w.state = WarpState::kAtBarrier;
}

// Runs one block of `nthreads` threads in warps of `ws` lanes to completion
// (a native shape variant passes both as constants, so the host compiler
// sees which warps are full). Zeroes shared memory,
// starts every warp at pc 0 (the last one partial when the block is not a
// multiple of the warp size), refills the parameter registers [0, nargs)
// (ordinary vregs a kernel may overwrite), then runs each runnable warp —
// run_warp(warp, lane_base), a loop over Resume — until it stops at a
// barrier or is done, and releases the barrier once every warp has stopped.
template <class E, class F>
inline void RunBlock(E& X, Warp* warps, unsigned ws, unsigned nthreads, const u64* args,
                     u64 nargs, F&& run_warp) {
  const unsigned nwarps = (nthreads + ws - 1) / ws;
  if (X.shared_size) std::memset(X.shared, 0, static_cast<std::size_t>(X.shared_size));
  for (unsigned wi = 0; wi < nwarps; ++wi) {
    const unsigned count = std::min(ws, nthreads - wi * ws);
    const u32 mask = count == 32 ? kFullMask : ((1u << count) - 1u);
    Warp& w = warps[wi];
    w.pc = 0;
    w.mask = mask;
    w.live = mask;
    w.rpc = kNoReconv;
    w.state = WarpState::kRunnable;
    w.stack.clear();
  }
  for (u64 p = 0; p < nargs; ++p) {
    u64* row = X.Row(static_cast<int>(p));
    std::fill(row, row + X.stride, args[p]);
  }
  while (true) {
    bool all_done = true;
    for (unsigned i = 0; i < nwarps; ++i) {
      if (warps[i].state == WarpState::kRunnable) run_warp(warps[i], i * ws);
      all_done &= warps[i].state == WarpState::kDone;
    }
    if (all_done) return;
    for (unsigned i = 0; i < nwarps; ++i) {
      if (warps[i].state == WarpState::kAtBarrier) warps[i].state = WarpState::kRunnable;
    }
    ++X.st->barriers;
  }
}

}  // namespace simt
}  // namespace kspec::vgpu
