#include "native/maskprop.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>

#include "native/shape.hpp"

namespace kspec::native {
namespace {

using vgpu::CmpOp;
using vgpu::Instr;
using vgpu::Opcode;
using vgpu::Operand;
using vgpu::SpecialReg;
using vgpu::Type;

using u64 = std::uint64_t;
using i64 = std::int64_t;
using u32 = std::uint32_t;
using i32 = std::int32_t;

// Range facts live in [0, kDomainMax] so the raw cell value equals its i32,
// u32, i64 and u64 interpretations and survives enc_i32 unchanged.
constexpr i64 kDomainMax = 0x7fffffff;

// Uid tag spaces (identity bookkeeping for uniform values; equality is only
// used to keep an identity stable across joins, never for soundness).
constexpr u64 kUidDef = 1ull << 63;    // | pc
constexpr u64 kUidParam = 1ull << 62;  // | param index
constexpr u64 kUidJoin = 1ull << 61;   // | (leader << 20) | reg
constexpr u64 kUidSreg = 3ull << 60;   // | special-reg id

struct AV {
  bool is_const = false;
  u64 cval = 0;
  bool uniform = false;
  u64 uid = 0;
  bool ranged = false;
  i64 lo = 0, hi = 0;

  bool operator==(const AV&) const = default;
};

AV Top() { return AV{}; }

AV Const(u64 v) {
  AV r;
  r.is_const = true;
  r.cval = v;
  r.uniform = true;
  r.uid = (5ull << 60) | (v & 0x0fffffffffffffffull);
  if (v <= static_cast<u64>(kDomainMax)) {
    r.ranged = true;
    r.lo = r.hi = static_cast<i64>(v);
  }
  return r;
}

AV UniformVal(u64 uid) {
  AV r;
  r.uniform = true;
  r.uid = uid;
  return r;
}

AV Ranged(i64 lo, i64 hi, bool uniform = false, u64 uid = 0) {
  if (lo < 0 || hi > kDomainMax || lo > hi) return uniform ? UniformVal(uid) : Top();
  if (lo == hi) return Const(static_cast<u64>(lo));
  AV r;
  r.ranged = true;
  r.lo = lo;
  r.hi = hi;
  r.uniform = uniform;
  r.uid = uid;
  return r;
}

std::optional<std::pair<i64, i64>> RangeOf(const AV& a) {
  if (a.is_const) {
    if (a.cval <= static_cast<u64>(kDomainMax)) {
      return std::pair<i64, i64>(static_cast<i64>(a.cval), static_cast<i64>(a.cval));
    }
    return std::nullopt;
  }
  if (a.ranged) return std::pair<i64, i64>(a.lo, a.hi);
  return std::nullopt;
}

// Merge at a non-reconvergence join: the warp enters over exactly one
// predecessor per dynamic visit, so uniformity survives (with a fresh but
// stable identity when the two sides disagree on which value it is).
AV JoinUniform(const AV& a, const AV& b, u64 join_uid) {
  AV r;
  if (a.is_const && b.is_const && a.cval == b.cval) return a;
  if (a.uniform && b.uniform) {
    r.uniform = true;
    r.uid = a.uid == b.uid ? a.uid : join_uid;
  }
  if (a.ranged && b.ranged) {
    r.ranged = true;
    r.lo = std::min(a.lo, b.lo);
    r.hi = std::max(a.hi, b.hi);
  } else {
    auto ra = RangeOf(a), rb = RangeOf(b);
    if (ra && rb) {
      r.ranged = true;
      r.lo = std::min(ra->first, rb->first);
      r.hi = std::max(ra->second, rb->second);
    }
  }
  return r;
}

// Interval arithmetic for monotone ops over the nonnegative domain. Both
// inputs and the result must stay within [0, kDomainMax]; anything else
// drops the range (never widens unsoundly).
std::optional<std::pair<i64, i64>> RangeArith(Opcode op, const AV& a, const AV& b,
                                              const AV& c) {
  const auto ra = RangeOf(a);
  const auto rb = RangeOf(b);
  auto ok = [](i64 lo, i64 hi) -> std::optional<std::pair<i64, i64>> {
    if (lo < 0 || hi > kDomainMax || lo > hi) return std::nullopt;
    return std::pair<i64, i64>(lo, hi);
  };
  switch (op) {
    case Opcode::kAdd:
      if (ra && rb) return ok(ra->first + rb->first, ra->second + rb->second);
      return std::nullopt;
    case Opcode::kSub:
      if (ra && rb) return ok(ra->first - rb->second, ra->second - rb->first);
      return std::nullopt;
    case Opcode::kMul:
      if (ra && rb) return ok(ra->first * rb->first, ra->second * rb->second);
      return std::nullopt;
    case Opcode::kMad: {
      const auto rc = RangeOf(c);
      if (ra && rb && rc) {
        return ok(ra->first * rb->first + rc->first, ra->second * rb->second + rc->second);
      }
      return std::nullopt;
    }
    case Opcode::kMul24:
      // Sign-extension of the low 24 bits is the identity below 2^23.
      if (ra && rb && ra->second < (1 << 23) && rb->second < (1 << 23)) {
        return ok(ra->first * rb->first, ra->second * rb->second);
      }
      return std::nullopt;
    case Opcode::kDiv:
      if (ra && rb && rb->first > 0) return ok(ra->first / rb->second, ra->second / rb->first);
      return std::nullopt;
    case Opcode::kRem:
      if (ra && rb && rb->first > 0) return ok(0, rb->second - 1);
      return std::nullopt;
    case Opcode::kMin:
      if (ra && rb) {
        return ok(std::min(ra->first, rb->first), std::min(ra->second, rb->second));
      }
      return std::nullopt;
    case Opcode::kMax:
      if (ra && rb) {
        return ok(std::max(ra->first, rb->first), std::max(ra->second, rb->second));
      }
      return std::nullopt;
    case Opcode::kAnd:
      // x & y <= min(x, y) for nonnegative values.
      if (ra && rb) return ok(0, std::min(ra->second, rb->second));
      if (ra) return ok(0, ra->second);
      if (rb) return ok(0, rb->second);
      return std::nullopt;
    case Opcode::kAbs:
      return ra;  // identity on the nonnegative domain
    case Opcode::kShl:
      if (ra && b.is_const && b.cval < 31) {
        return ok(ra->first << b.cval, ra->second << b.cval);
      }
      return std::nullopt;
    case Opcode::kShr:
      if (ra && b.is_const && b.cval < 31) {
        return ok(ra->first >> b.cval, ra->second >> b.cval);
      }
      return std::nullopt;
    default: return std::nullopt;
  }
}

// Typed compare over proven intervals; mirrors the emitted setp<>() exactly
// when it answers (and stays silent otherwise).
enum class Tri { kUnknown, kTrue, kFalse };

Tri CmpIntervals(CmpOp cmp, i64 la, i64 ha, i64 lb, i64 hb) {
  switch (cmp) {
    case CmpOp::kEq:
      if (la == ha && lb == hb && la == lb) return Tri::kTrue;
      if (ha < lb || hb < la) return Tri::kFalse;
      return Tri::kUnknown;
    case CmpOp::kNe:
      if (ha < lb || hb < la) return Tri::kTrue;
      if (la == ha && lb == hb && la == lb) return Tri::kFalse;
      return Tri::kUnknown;
    case CmpOp::kLt:
      if (ha < lb) return Tri::kTrue;
      if (la >= hb) return Tri::kFalse;
      return Tri::kUnknown;
    case CmpOp::kLe:
      if (ha <= lb) return Tri::kTrue;
      if (la > hb) return Tri::kFalse;
      return Tri::kUnknown;
    case CmpOp::kGt:
      if (la > hb) return Tri::kTrue;
      if (ha <= lb) return Tri::kFalse;
      return Tri::kUnknown;
    case CmpOp::kGe:
      if (la >= hb) return Tri::kTrue;
      if (ha < lb) return Tri::kFalse;
      return Tri::kUnknown;
  }
  return Tri::kUnknown;
}

// The comparison-domain interval of `a` under type `ty`, usable only when
// the interval compare is exact for that view. Domain values are in
// [0, kDomainMax], where all integer views agree; a constant outside the
// domain still has an exact signed view for i32/u32/i64.
std::optional<std::pair<i64, i64>> CmpRange(Type ty, const AV& a) {
  if (a.is_const) {
    switch (ty) {
      case Type::kI32: {
        const i64 v = vgpu::DecodeI32(a.cval);
        return std::pair<i64, i64>(v, v);
      }
      case Type::kU32: {
        const i64 v = static_cast<i64>(static_cast<u32>(a.cval));
        return std::pair<i64, i64>(v, v);
      }
      case Type::kI64: {
        const i64 v = static_cast<i64>(a.cval);
        return std::pair<i64, i64>(v, v);
      }
      case Type::kU64:
      case Type::kPred: {
        if (a.cval > static_cast<u64>(INT64_MAX)) return std::nullopt;
        const i64 v = static_cast<i64>(a.cval);
        return std::pair<i64, i64>(v, v);
      }
      default: return std::nullopt;  // float compares are never folded
    }
  }
  if (ty == Type::kF32 || ty == Type::kF64) return std::nullopt;
  return RangeOf(a);  // domain values read identically under every int view
}

// ---------------------------------------------------------------------------

struct RegState {
  std::vector<AV> regs;
  bool mask_full = false;
};

class Analyzer {
 public:
  Analyzer(const vgpu::CompiledKernel& ker, const ShapeSpec& shape, bool assume_full_entry)
      : ker_(ker), shape_(shape), full_entry_(assume_full_entry), cfg_(ker.code) {}

  MaskFacts Run() {
    MaskFacts facts;
    facts.branch.assign(ker_.code.size(), BranchKind::kScan);
    facts.full_at.assign(ker_.code.size(), 0);
    if (cfg_.size() == 0) return facts;

    // Outer loop: the divergent-branch set and the exit flag only grow /
    // degrade, so this terminates within #branches + 2 restarts. Each inner
    // run is an optimistic fixpoint under the current assumptions.
    bool complete = false;
    for (int restart = 0; restart < 4 + 2 * static_cast<int>(ker_.code.size()); ++restart) {
      if (RunOnce()) {
        complete = true;
        break;
      }
    }
    if (!complete) return facts;  // never publish a half-converged run

    // Record the final classifications and full-block flags.
    for (int b = 0; b < cfg_.size(); ++b) {
      if (!reached_[b]) continue;
      const vgpu::Cfg::Block& block = cfg_[b];
      const u32 leader = static_cast<u32>(block.begin);
      if (full_entry_ && in_[b].mask_full) {
        facts.full_at[leader] = 1;
        ++facts.full_blocks;
      }
      for (u32 pc = leader; pc < static_cast<u32>(block.end); ++pc) {
        if (ker_.code[pc].op != Opcode::kBraPred) continue;
        const BranchKind k = final_kind_[pc];
        facts.branch[pc] = k;
        if (k == BranchKind::kAlwaysTaken || k == BranchKind::kNeverTaken) {
          ++facts.folded_branches;
        } else if (k == BranchKind::kUniform) {
          ++facts.uniform_branches;
        }
      }
    }
    return facts;
  }

 private:
  // Recompute, from the current scan set, per reconvergence block: the
  // blocks a warp enters it from by the pop-restore path (the divergent
  // region, reachable from the branch without passing the reconvergence pc,
  // and the branch's own block) and the registers written in the region.
  void RebuildRegions() {
    const std::size_t nblocks = static_cast<std::size_t>(cfg_.size());
    const std::size_t nregs = static_cast<std::size_t>(std::max(ker_.num_vregs, 0));
    divergent_from_.assign(nblocks, {});
    written_in_.assign(nblocks, {});
    for (const auto& [pc, reconv] : scan_branches_) {
      // Flow never enters a pc past the end as a block.
      if (reconv < 0 || static_cast<std::size_t>(reconv) >= ker_.code.size()) continue;
      const int rb = cfg_.block_of(reconv);
      std::vector<char>& from = divergent_from_[rb];
      std::vector<char>& written = written_in_[rb];
      if (from.empty()) {
        from.assign(nblocks, 0);
        written.assign(nregs, 0);
      }
      // The region excludes the reconvergence block itself; the owning
      // branch's block enters it by the pop-restore path too.
      std::vector<char> region(nblocks, 0);
      std::vector<int> stack;
      for (int s : cfg_[cfg_.block_of(pc)].succs()) stack.push_back(s);
      while (!stack.empty()) {
        const int b = stack.back();
        stack.pop_back();
        if (b == rb || region[b]) continue;
        region[b] = 1;
        from[b] = 1;
        const vgpu::Cfg::Block& block = cfg_[b];
        for (int q = block.begin; q < block.end; ++q) {
          const i32 r = ker_.code[q].dst;
          if (r >= 0 && static_cast<std::size_t>(r) < nregs) written[r] = 1;
        }
        for (int s : block.succs()) stack.push_back(s);
      }
      from[cfg_.block_of(pc)] = 1;
    }
  }

  AV OperandAV(const RegState& st, const Operand& o) const {
    if (o.is_imm()) return Const(o.imm);
    if (o.is_reg() && o.reg >= 0 && static_cast<std::size_t>(o.reg) < st.regs.size()) {
      return st.regs[o.reg];
    }
    return Top();
  }

  AV EvalSreg(SpecialReg sr) const {
    const unsigned nthreads = shape_.threads_per_block();
    const unsigned nwarps = shape_.warps_per_block(32);
    switch (sr) {
      case SpecialReg::kTidX: return Ranged(0, static_cast<i64>(shape_.block_x) - 1);
      case SpecialReg::kTidY: return Ranged(0, static_cast<i64>(shape_.block_y) - 1);
      case SpecialReg::kTidZ: return Ranged(0, static_cast<i64>(shape_.block_z) - 1);
      case SpecialReg::kNtidX: return Const(shape_.block_x);
      case SpecialReg::kNtidY: return Const(shape_.block_y);
      case SpecialReg::kNtidZ: return Const(shape_.block_z);
      case SpecialReg::kCtaidX:
        return Ranged(0, static_cast<i64>(shape_.grid_x) - 1, true,
                      kUidSreg | static_cast<u64>(sr));
      case SpecialReg::kCtaidY:
        return Ranged(0, static_cast<i64>(shape_.grid_y) - 1, true,
                      kUidSreg | static_cast<u64>(sr));
      case SpecialReg::kCtaidZ:
        return Ranged(0, static_cast<i64>(shape_.grid_z) - 1, true,
                      kUidSreg | static_cast<u64>(sr));
      case SpecialReg::kNctaidX: return Const(shape_.grid_x);
      case SpecialReg::kNctaidY: return Const(shape_.grid_y);
      case SpecialReg::kNctaidZ: return Const(shape_.grid_z);
      case SpecialReg::kLaneId: return Ranged(0, 31);
      case SpecialReg::kWarpId:
        // lb is a multiple of the (gated) warp size 32, so (lb + l) / 32 is
        // per-warp constant.
        return Ranged(0, static_cast<i64>(nwarps) - 1, true,
                      kUidSreg | static_cast<u64>(sr));
    }
    (void)nthreads;
    return Top();
  }

  AV EvalSetp(u32 pc, const Instr& i, const AV& a, const AV& b) const {
    u64 out;
    if (a.is_const && b.is_const && !vgpu::IsFloatType(i.type) &&
        vgpu::EvalLane(i, a.cval, b.cval, 0, &out)) {
      return Const(out);
    }
    const auto ra = CmpRange(i.type, a);
    const auto rb = CmpRange(i.type, b);
    if (ra && rb) {
      const Tri t = CmpIntervals(i.cmp, ra->first, ra->second, rb->first, rb->second);
      if (t == Tri::kTrue) return Const(1);
      if (t == Tri::kFalse) return Const(0);
    }
    AV r = Ranged(0, 1);  // predicates are always 0/1
    if (a.uniform && b.uniform) {
      r.uniform = true;
      r.uid = kUidDef | pc;
    }
    return r;
  }

  AV EvalCvt(u32 pc, const Instr& i, const AV& a) const {
    const Type dt = i.type, st = i.type2;
    const bool int_dst = vgpu::IsIntType(dt);
    const bool int_src = vgpu::IsIntType(st) || st == Type::kPred;
    if (int_dst && int_src) {
      if (u64 out; a.is_const && vgpu::EvalLane(i, a.cval, 0, 0, &out)) return Const(out);
      AV r = Top();
      if (const auto ra = RangeOf(a)) {
        // Domain values pass through every int->int conversion unchanged.
        r = Ranged(ra->first, ra->second);
      }
      if (a.uniform) {
        r.uniform = true;
        r.uid = kUidDef | pc;
      }
      return r;
    }
    // Float-involved conversions: only uniformity survives (deterministic).
    if (a.uniform) return UniformVal(kUidDef | pc);
    return Top();
  }

  AV EvalAlu(u32 pc, const Instr& i, const RegState& st) const {
    const AV a = OperandAV(st, i.a);
    const AV b = OperandAV(st, i.b);
    const AV c = OperandAV(st, i.c);
    const bool is_float = i.type == Type::kF32 || i.type == Type::kF64;
    const bool have_b = !i.b.is_none();
    const bool have_c = !i.c.is_none();
    // Integers fold bit-exactly, by the lane body the emitted code runs.
    u64 out;
    if (!is_float && a.is_const && (!have_b || b.is_const) && (!have_c || c.is_const) &&
        vgpu::EvalLane(i, a.cval, b.cval, c.cval, &out)) {
      return Const(out);
    }
    AV r = Top();
    if (!is_float && i.type != Type::kPred) {
      if (const auto rr = RangeArith(i.op, a, b, c)) {
        r.ranged = true;
        r.lo = rr->first;
        r.hi = rr->second;
      }
    }
    const bool operands_uniform =
        a.uniform && (!have_b || b.uniform) && (!have_c || c.uniform);
    if (operands_uniform) {
      r.uniform = true;
      r.uid = kUidDef | pc;
    }
    return r;
  }

  // Classify a bra.pred under the current state. Branches already forced
  // divergent stay divergent (re-proving them would change edge semantics
  // mid-run).
  BranchKind Classify(u32 pc, const Instr& i, const RegState& st) const {
    if (scan_branches_.count(pc)) return BranchKind::kScan;
    const AV p = OperandAV(st, i.a);
    if (p.is_const) {
      const bool t = (p.cval != 0) != i.neg;
      return t ? BranchKind::kAlwaysTaken : BranchKind::kNeverTaken;
    }
    if (p.ranged && p.lo >= 1) {
      return i.neg ? BranchKind::kNeverTaken : BranchKind::kAlwaysTaken;
    }
    if (p.uniform) return BranchKind::kUniform;
    return BranchKind::kScan;
  }

  // Control reaching pc `target` from block `from` in state `st`, with the
  // entry mask full when `mask_full`. A target past the last instruction is
  // an implicit exit. Returns false when that exit invalidates the exit
  // assumption (the caller restarts).
  bool Flow(int from, u32 target, const RegState& st, bool mask_full) {
    if (target >= ker_.code.size()) return Exit(mask_full);
    JoinInto(cfg_.block_of(static_cast<i32>(target)), st, mask_full, from);
    return true;
  }

  // Lanes retire under a mask that is full when `mask_full`. Returns false
  // when they may retire under a partial mask while reconvergence points
  // still assume the pushed mask survives intact.
  bool Exit(bool mask_full) {
    if (mask_full || !exits_ok_) return true;
    exits_ok_ = false;
    return false;
  }

  // Joins `incoming` (entry mask full when `mask_full`), arriving from block
  // `from`, into the entry state of block `tb`, in place. Queues the block
  // when its state changed.
  void JoinInto(int tb, const RegState& incoming, bool mask_full, int from) {
    // Entries into a divergent reconvergence block by the pop-restore path
    // restore the branch-point mask, and merge lanes whose write histories
    // differ: registers written in the region lose constant/uniform facts.
    const std::vector<char>& divergent_from = divergent_from_[tb];
    const bool divergent = !divergent_from.empty() && divergent_from[from];
    const std::vector<char>* written = divergent ? &written_in_[tb] : nullptr;
    if (divergent) {
      mask_full = restore_full_[tb] >= 0 ? restore_full_[tb] && exits_ok_ : exits_ok_;
    }
    auto entry = [&](std::size_t r) {
      AV av = incoming.regs[r];
      if (written && (*written)[r]) {
        av.is_const = false;
        av.uniform = false;
      }
      return av;
    };
    RegState& cur = in_[tb];
    const std::size_t nregs = incoming.regs.size();
    if (!reached_[tb]) {
      reached_[tb] = 1;
      cur.mask_full = mask_full;
      cur.regs.resize(nregs);
      for (std::size_t r = 0; r < nregs; ++r) cur.regs[r] = entry(r);
      work_.push_back(tb);
      return;
    }
    bool changed = cur.mask_full && !mask_full;
    cur.mask_full = cur.mask_full && mask_full;
    const int jc = ++join_count_[tb];
    const u64 join_uid = kUidJoin | (static_cast<u64>(cfg_[tb].begin) << 20);
    for (std::size_t r = 0; r < nregs; ++r) {
      AV& old = cur.regs[r];
      AV j = JoinUniform(old, entry(r), join_uid | r);
      // Widen: after a few joins, a still-growing interval (a loop counter)
      // is dropped instead of crawling toward the domain bound.
      if (jc > 4 && j.ranged && old.ranged && (j.lo < old.lo || j.hi > old.hi)) {
        j.ranged = false;
        if (j.is_const) j = Const(j.cval);
      }
      if (!(j == old)) {
        old = j;
        changed = true;
      }
    }
    if (changed) work_.push_back(tb);
  }

  // One optimistic fixpoint run. Returns true if the run completed under the
  // current assumptions, false if an assumption was invalidated (caller
  // restarts with the degraded assumption set).
  bool RunOnce() {
    RebuildRegions();
    const std::size_t nblocks = static_cast<std::size_t>(cfg_.size());
    in_.resize(nblocks);
    reached_.assign(nblocks, 0);
    join_count_.assign(nblocks, 0);
    restore_full_.assign(nblocks, -1);
    final_kind_.assign(ker_.code.size(), BranchKind::kScan);
    work_.clear();

    RegState& entry = in_[0];
    entry.regs.assign(static_cast<std::size_t>(std::max(ker_.num_vregs, 0)), Top());
    for (std::size_t p = 0; p < ker_.params.size() && p < entry.regs.size(); ++p) {
      entry.regs[p] = UniformVal(kUidParam | p);  // args are broadcast
    }
    entry.mask_full = full_entry_;
    reached_[0] = 1;
    work_.push_back(0);

    // Bounded by the lattice height; the guard is just a backstop.
    const std::size_t max_steps = 64 * (nblocks + 4) * (nblocks + 4);
    std::size_t steps = 0;
    RegState st;
    while (!work_.empty()) {
      if (++steps > max_steps) {
        // Backstop against a non-converging lattice bug: drop every fact
        // rather than publish an optimistic half-fixpoint.
        reached_.assign(nblocks, 0);
        final_kind_.assign(ker_.code.size(), BranchKind::kScan);
        return true;
      }
      const int b = work_.back();
      work_.pop_back();
      st = in_[b];  // a copy: joins into this block may run while it is walked
      const u32 leader = static_cast<u32>(cfg_[b].begin);
      const u32 end = static_cast<u32>(cfg_[b].end);
      bool closed = false;
      for (u32 pc = leader; pc < end && !closed; ++pc) {
        const Instr& i = ker_.code[pc];
        switch (i.op) {
          case Opcode::kBra:
            if (!Flow(b, static_cast<u32>(i.target), st, st.mask_full)) return false;
            closed = true;
            break;
          case Opcode::kBraPred: {
            const BranchKind kind = Classify(pc, i, st);
            final_kind_[pc] = kind;
            if (kind == BranchKind::kScan && !scan_branches_.count(pc)) {
              // Optimism invalidated: this branch needs divergent semantics.
              scan_branches_[pc] = i.reconv;
              return false;
            }
            if (kind == BranchKind::kScan) {
              // Divergent: arms run with a possibly partial mask; the
              // reconvergence point restores the branch-point mask unless an
              // exit may have retired lanes.
              if (i.reconv >= 0 && static_cast<u32>(i.reconv) < ker_.code.size()) {
                const int rb = cfg_.block_of(i.reconv);
                signed char& restore = restore_full_[rb];
                if (restore < 0) {
                  restore = st.mask_full;
                } else if (restore && !st.mask_full) {
                  restore = 0;
                  if (reached_[rb] && in_[rb].mask_full) {
                    in_[rb].mask_full = false;
                    work_.push_back(rb);
                  }
                }
              }
              if (!Flow(b, static_cast<u32>(i.target), st, false) || !Flow(b, end, st, false)) {
                return false;
              }
            } else if (kind == BranchKind::kAlwaysTaken) {
              if (!Flow(b, static_cast<u32>(i.target), st, st.mask_full)) return false;
            } else if (kind == BranchKind::kNeverTaken) {
              if (!Flow(b, end, st, st.mask_full)) return false;
            } else {  // kUniform: both ways, mask intact, no push
              if (!Flow(b, static_cast<u32>(i.target), st, st.mask_full) ||
                  !Flow(b, end, st, st.mask_full)) {
                return false;
              }
            }
            closed = true;
            break;
          }
          case Opcode::kBarSync:
            if (!Flow(b, end, st, st.mask_full)) return false;
            closed = true;
            break;
          case Opcode::kExit:
            if (!Exit(st.mask_full)) return false;
            closed = true;
            break;
          default: {
            if (i.dst >= 0 && static_cast<std::size_t>(i.dst) < st.regs.size()) {
              AV dv = Top();
              switch (i.op) {
                case Opcode::kNop: dv = st.regs[i.dst]; break;
                case Opcode::kMov: dv = OperandAV(st, i.a); break;
                case Opcode::kSreg:
                  dv = EvalSreg(static_cast<SpecialReg>(i.a.imm));
                  break;
                case Opcode::kSetp:
                  dv = EvalSetp(pc, i, OperandAV(st, i.a), OperandAV(st, i.b));
                  break;
                case Opcode::kSel: {
                  const AV a = OperandAV(st, i.a);
                  const AV b = OperandAV(st, i.b);
                  const AV c = OperandAV(st, i.c);
                  if (c.is_const) {
                    dv = c.cval ? a : b;
                  } else {
                    dv = JoinUniform(a, b, kUidDef | pc);
                    dv.uniform = a.uniform && b.uniform && c.uniform;
                    if (dv.uniform) dv.uid = kUidDef | pc;
                    dv.is_const = false;
                  }
                  break;
                }
                case Opcode::kCvt: dv = EvalCvt(pc, i, OperandAV(st, i.a)); break;
                case Opcode::kLd:
                case Opcode::kAtomAdd:
                case Opcode::kAtomMin:
                case Opcode::kAtomMax:
                case Opcode::kAtomExch:
                case Opcode::kAtomCas:
                case Opcode::kTex2D:
                case Opcode::kTex1D:
                  dv = Top();
                  break;
                default: dv = EvalAlu(pc, i, st); break;
              }
              st.regs[i.dst] = dv;
            }
            break;
          }
        }
      }
      // Fell off the block into the next, or off the end of the kernel.
      if (!closed && !Flow(b, end, st, st.mask_full)) return false;
    }
    return true;
  }

  const vgpu::CompiledKernel& ker_;
  const ShapeSpec& shape_;
  const bool full_entry_;

  const vgpu::Cfg cfg_;

  // Degrading assumption set, preserved across restarts.
  std::map<u32, std::int32_t> scan_branches_;  // branch pc -> reconv pc
  bool exits_ok_ = true;

  // Per-run structures, indexed by block (final_kind_ by pc).
  std::vector<std::vector<char>> divergent_from_;  // reconv block -> pop-restore sources
  std::vector<std::vector<char>> written_in_;      // reconv block -> regs written in region
  std::vector<RegState> in_;
  std::vector<char> reached_;
  std::vector<int> join_count_;
  std::vector<signed char> restore_full_;  // -1: no divergent branch reconverges here
  std::vector<BranchKind> final_kind_;
  std::vector<int> work_;
};

}  // namespace

MaskFacts AnalyzeKernelMasks(const vgpu::CompiledKernel& ker, const ShapeSpec& shape,
                             bool assume_full_entry) {
  Analyzer az(ker, shape, assume_full_entry);
  return az.Run();
}

}  // namespace kspec::native
