#include "kcc/passes.hpp"

#include <algorithm>

#include "support/math.hpp"
#include "support/status.hpp"

namespace kspec::kcc {

namespace {

using vgpu::Instr;
using vgpu::Opcode;
using vgpu::Operand;
using vgpu::Type;

bool IsPure(Opcode op) {
  switch (op) {
    case Opcode::kMov: case Opcode::kSreg:
    case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul: case Opcode::kDiv:
    case Opcode::kRem: case Opcode::kMul24: case Opcode::kMad:
    case Opcode::kMin: case Opcode::kMax: case Opcode::kNeg: case Opcode::kAbs:
    case Opcode::kAnd: case Opcode::kOr: case Opcode::kXor: case Opcode::kNot:
    case Opcode::kShl: case Opcode::kShr:
    case Opcode::kSqrt: case Opcode::kRsqrt: case Opcode::kFloor: case Opcode::kCeil:
    case Opcode::kExp: case Opcode::kLog: case Opcode::kSin: case Opcode::kCos:
    case Opcode::kSetp: case Opcode::kSel: case Opcode::kCvt:
      return true;
    case Opcode::kLd:
    case Opcode::kTex2D:
    case Opcode::kTex1D:
      return true;  // no side effects; removable when the result is dead
    default:
      return false;
  }
}

// Sreg depends on the thread, so it is pure-but-not-constant; kLd reads
// memory. Neither is const-evaluable.
bool IsConstEvaluable(Opcode op) {
  return IsPure(op) && op != Opcode::kSreg && op != Opcode::kLd &&
         op != Opcode::kTex2D && op != Opcode::kTex1D;
}

// Float min/max is not commutative: min(a, b) returns a when the two compare
// unordered (a NaN) or equal (-0 and +0).
bool IsCommutative(const Instr& i) {
  switch (i.op) {
    case Opcode::kAdd: case Opcode::kMul: case Opcode::kAnd: case Opcode::kOr:
    case Opcode::kXor: case Opcode::kMul24:
      return true;
    case Opcode::kMin: case Opcode::kMax:
      return !vgpu::IsFloatType(i.type);
    default:
      return false;
  }
}

// Per-register lists of ints sharing one arena, for one basic block. A list
// is valid while its head's stamp matches the current generation, so Clear()
// is O(1) however many registers have lists.
class RegLists {
 public:
  explicit RegLists(std::size_t regs) : heads_(regs) {}

  void Clear() {
    ++gen_;
    links_.clear();
  }

  void Add(int reg, int value) {
    Head& h = heads_[reg];
    if (h.gen != gen_) h = {-1, gen_};
    links_.push_back({value, h.first});
    h.first = static_cast<int>(links_.size()) - 1;
  }

  // Calls fn(value) for every value filed under `reg`, then empties its list.
  template <typename Fn>
  void Drain(int reg, Fn&& fn) {
    Head& h = heads_[reg];
    if (h.gen != gen_) return;
    for (int l = h.first; l >= 0; l = links_[l].next) fn(links_[l].value);
    h.gen = 0;
  }

 private:
  struct Head {
    int first = -1;
    std::uint32_t gen = 0;
  };
  struct Link {
    int value;
    int next;
  };
  std::vector<Head> heads_;
  std::vector<Link> links_;
  std::uint32_t gen_ = 1;
};

// Facts about registers within one basic block, one slot per vreg. A fact
// may read one other register (`src`); it is filed under that register too,
// so redefining a register kills exactly the facts that read it. Lookup,
// insert and kill are O(1) per fact touched, Clear() is O(1), and size() is
// the exact number of live facts.
template <typename T>
class FactTable {
 public:
  explicit FactTable(std::size_t regs) : slots_(regs), readers_(regs) {}

  void Clear() {
    ++gen_;
    live_ = 0;
    readers_.Clear();
  }

  std::size_t size() const { return live_; }

  const T* Find(int reg) const {
    const Slot& s = slots_[reg];
    return s.gen == gen_ ? &s.value : nullptr;
  }

  // `reg` must hold no fact (callers Kill it first).
  void Insert(int reg, T value, int src = -1) {
    slots_[reg] = {value, src, gen_};
    ++live_;
    if (src >= 0) readers_.Add(src, reg);
  }

  // Drops the fact about `reg` and every fact that reads `reg`. A reader
  // filed under `reg` may since have been killed or redefined to read
  // another register; only one still reading `reg` goes.
  void Kill(int reg) {
    Erase(reg);
    readers_.Drain(reg, [&](int reader) {
      if (slots_[reader].gen == gen_ && slots_[reader].src == reg) Erase(reader);
    });
  }

 private:
  void Erase(int reg) {
    Slot& s = slots_[reg];
    if (s.gen != gen_) return;
    s.gen = 0;
    --live_;
  }

  struct Slot {
    T value{};
    int src = -1;
    std::uint32_t gen = 0;
  };
  std::vector<Slot> slots_;
  RegLists readers_;
  std::uint32_t gen_ = 1;
  std::size_t live_ = 0;
};

// Reusing a value defined far upstream extends its live range across
// everything in between; past this distance recomputation is cheaper than
// the register pressure (the rematerialization heuristic real GPU compilers
// apply, which keeps heavily unrolled kernels allocatable).
constexpr int kCseReuseWindow = 96;

bool SameOperand(const Operand& x, const Operand& y) {
  if (x.kind != y.kind) return false;
  if (x.is_reg()) return x.reg == y.reg;
  if (x.is_imm()) return x.imm == y.imm;
  return true;
}

bool SameExpr(const Instr& x, const Instr& y) {
  return x.op == y.op && x.type == y.type && x.type2 == y.type2 && x.cmp == y.cmp &&
         SameOperand(x.a, y.a) && SameOperand(x.b, y.b) && SameOperand(x.c, y.c);
}

// One basic block's CSE candidates: the pcs of pure definitions, chained in
// pc order per hash bucket of their expression, plus a per-register kill
// list of the entries naming that register as destination or operand. An
// entry's instruction is read from `code` and does not change while the
// entry lives (a block pass only rewrites the instruction it is at).
class CseTable {
 public:
  CseTable(const std::vector<Instr>& code, std::size_t regs) : code_(code), kills_(regs) {}

  void Clear() {
    ++gen_;
    entries_.clear();
    kills_.Clear();
  }

  // The destination of the oldest live entry computing the same expression
  // as `i` within kCseReuseWindow instructions before `pc`, or -1.
  int Find(const Instr& i, int pc) {
    Bucket& b = buckets_[BucketOf(i)];
    if (b.gen != gen_) return -1;
    // Entries are chained in pc order: once the head is live and in the
    // window, every later entry is in the window too.
    while (b.first >= 0 &&
           (!entries_[b.first].live || pc - entries_[b.first].pc > kCseReuseWindow)) {
      b.first = entries_[b.first].next;
    }
    for (int e = b.first; e >= 0; e = entries_[e].next) {
      const Entry& entry = entries_[e];
      if (entry.live && SameExpr(code_[entry.pc], i)) return code_[entry.pc].dst;
    }
    return -1;
  }

  // Records the definition at `pc`.
  void Insert(int pc) {
    const Instr& i = code_[pc];
    const int e = static_cast<int>(entries_.size());
    entries_.push_back({pc, -1, true});
    Bucket& b = buckets_[BucketOf(i)];
    if (b.gen != gen_ || b.first < 0) {
      b = {e, e, gen_};
    } else {
      entries_[b.last].next = e;
      b.last = e;
    }
    kills_.Add(i.dst, e);
    for (const Operand* o : {&i.a, &i.b, &i.c}) {
      if (o->is_reg()) kills_.Add(o->reg, e);
    }
  }

  // Kills every entry that defines or reads `reg`.
  void Kill(int reg) {
    kills_.Drain(reg, [&](int e) { entries_[e].live = false; });
  }

 private:
  static constexpr int kBucketBits = 8;

  // Hashes exactly what SameExpr compares.
  static std::size_t BucketOf(const Instr& i) {
    std::uint64_t h = static_cast<std::uint64_t>(i.op) | static_cast<std::uint64_t>(i.type) << 8 |
                      static_cast<std::uint64_t>(i.type2) << 16 |
                      static_cast<std::uint64_t>(i.cmp) << 24;
    for (const Operand* o : {&i.a, &i.b, &i.c}) {
      std::uint64_t key = static_cast<std::uint64_t>(o->kind);
      if (o->is_reg()) key |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(o->reg)) << 8;
      if (o->is_imm()) key ^= o->imm * 0x9e3779b97f4a7c15ull;
      h = (h ^ key) * 0xff51afd7ed558ccdull;
      h ^= h >> 32;
    }
    return static_cast<std::size_t>((h * 0x9e3779b97f4a7c15ull) >> (64 - kBucketBits));
  }

  struct Entry {
    int pc;
    int next;  // next entry in the same bucket, or -1
    bool live;
  };
  struct Bucket {
    int first = -1, last = -1;
    std::uint32_t gen = 0;
  };

  const std::vector<Instr>& code_;
  std::vector<Entry> entries_;
  Bucket buckets_[1 << kBucketBits];
  RegLists kills_;
  std::uint32_t gen_ = 1;
};

class Optimizer {
 public:
  Optimizer(std::vector<Instr>& code, const std::vector<Type>& vreg_types,
            const PassOptions& options)
      : code_(code),
        types_(vreg_types),
        options_(options),
        consts_(vreg_types.size() + 1),
        copies_(vreg_types.size() + 1),
        addrs_(vreg_types.size() + 1),
        cvts_(vreg_types.size() + 1),
        cse_(code, vreg_types.size() + 1) {}

  PassStats Run() {
    for (int round = 0; round < 3; ++round) {
      LocalPropagateFoldCse();
      RemoveUnreachable();
      Dce();
    }
    Compact();
    return stats_;
  }

 private:
  // ---- local constant/copy propagation + folding + strength red. + CSE ----
  void LocalPropagateFoldCse() {
    const vgpu::Cfg cfg(code_);
    for (const vgpu::Cfg::Block& b : cfg.blocks()) BlockPass(b.begin, b.end);
  }

  // Per-block local optimization: constant and copy propagation, folding,
  // address-offset and conversion-chain folding, strength reduction and CSE.
  void BlockPass(int begin, int end) {
    consts_.Clear();
    copies_.Clear();
    addrs_.Clear();
    cvts_.Clear();
    cse_.Clear();

    auto subst = [&](Operand& o) {
      if (!o.is_reg()) return;
      if (const int* src = copies_.Find(o.reg)) o.reg = *src;
      if (const std::uint64_t* imm = consts_.Find(o.reg)) o = Operand::Imm(*imm);
    };

    for (int pc = begin; pc < end; ++pc) {
      Instr& i = code_[pc];
      if (i.op == Opcode::kNop) continue;

      // The caps bound no work (a kill touches only the facts that read the
      // killed register). They exist because the emitted MiniPTX depends on
      // which facts survive, and that output is pinned byte for byte (the
      // listing goldens in test_kcc_optimizer): these clears must fire at
      // exactly these instructions. Dropping facts only forgoes
      // optimization opportunities, never correctness.
      constexpr std::size_t kFactCap = 768;
      if (copies_.size() > kFactCap) copies_.Clear();
      if (addrs_.size() > kFactCap) addrs_.Clear();
      if (cvts_.size() > kFactCap) cvts_.Clear();
      if (consts_.size() > 4 * kFactCap) consts_.Clear();

      subst(i.a);
      if (i.op != Opcode::kSreg) {
        subst(i.b);
        subst(i.c);
      }
      // Keep ld/st byte-offset immediates as immediates (b operand).

      // Canonicalize commutative ops: immediate to the right.
      if (IsCommutative(i) && i.a.is_imm() && i.b.is_reg()) std::swap(i.a, i.b);

      // Fold `add.u64 r, base, imm` address arithmetic into the ld/st byte
      // offset (what PTX's [reg+imm] addressing mode exists for).
      if ((i.op == Opcode::kLd || i.op == Opcode::kSt) && i.a.is_reg()) {
        if (const Addr* addr = addrs_.Find(i.a.reg)) {
          i.a = Operand::Reg(addr->base);
          i.b = Operand::Imm(i.b.imm + addr->offset);
        }
      }

      // Collapse 32->64->64 integer conversion chains (e.g. cvt.s64.s32
      // followed by cvt.u64.s64) into a single conversion; both orders of
      // extension agree with the direct conversion.
      if (i.op == Opcode::kCvt && i.a.is_reg()) {
        if (const int* def = cvts_.Find(i.a.reg)) {
          const Instr& inner = code_[*def];
          bool outer64 = i.type == Type::kI64 || i.type == Type::kU64;
          bool mid64 = inner.type == Type::kI64 || inner.type == Type::kU64;
          bool src32 = inner.type2 == Type::kI32 || inner.type2 == Type::kU32;
          if (outer64 && mid64 && src32 && i.type2 == inner.type) {
            i.type2 = inner.type2;
            i.a = inner.a;
          }
        }
      }

      // Constant-fold branches.
      if (i.op == Opcode::kBraPred && i.a.is_imm()) {
        bool taken = (i.a.imm != 0) != i.neg;
        if (taken) {
          Instr br = Instr::Make(Opcode::kBra, Type::kI32, -1);
          br.target = i.target;
          i = br;
        } else {
          i = Instr::Make(Opcode::kNop, Type::kI32, -1);
        }
        ++stats_.folded_consts;
        continue;
      }

      if (i.dst < 0) continue;

      // Full constant evaluation, by the lane rule the instruction runs.
      std::uint64_t out;
      if (!i.a.is_reg() && !i.b.is_reg() && !i.c.is_reg() && i.op != Opcode::kMov &&
          vgpu::EvalLane(i, i.a.imm, i.b.imm, i.c.imm, &out)) {
        i = Instr::Make(Opcode::kMov, i.type, i.dst, Operand::Imm(out));
        ++stats_.folded_consts;
      }

      if (options_.strength_reduction) StrengthReduce(i);

      // CSE lookup (pure, non-load, non-mov), bounded by reuse distance.
      if (options_.cse && IsConstEvaluable(i.op) && i.op != Opcode::kMov) {
        const int reuse = cse_.Find(i, pc);
        if (reuse >= 0) {
          i = Instr::Make(Opcode::kMov, i.type, i.dst, Operand::Reg(reuse));
          ++stats_.cse_hits;
        }
      }

      // Kill stale facts about the overwritten register, then record the new
      // ones. A definition whose operands include its own dst (e.g. the loop
      // `add r, r, 1`) is never a valid CSE source: the recorded operands
      // would name the post-update value.
      const int dst = i.dst;
      consts_.Kill(dst);
      copies_.Kill(dst);
      addrs_.Kill(dst);
      cvts_.Kill(dst);
      cse_.Kill(dst);
      bool self_ref = (i.a.is_reg() && i.a.reg == dst) || (i.b.is_reg() && i.b.reg == dst) ||
                      (i.c.is_reg() && i.c.reg == dst);
      if (IsConstEvaluable(i.op) && i.op != Opcode::kMov && !self_ref) cse_.Insert(pc);
      if (i.op == Opcode::kMov) {
        if (i.a.is_imm()) {
          consts_.Insert(dst, i.a.imm);
        } else if (i.a.is_reg() && i.a.reg != dst) {
          copies_.Insert(dst, i.a.reg, i.a.reg);
        }
      }
      if (i.op == Opcode::kAdd && i.type == Type::kU64 && i.a.is_reg() && i.b.is_imm() &&
          !self_ref) {
        // Resolve transitively so chained adds fold to one base.
        Addr addr{i.a.reg, i.b.imm};
        if (const Addr* inner = addrs_.Find(addr.base)) {
          addr.offset += inner->offset;
          addr.base = inner->base;
        }
        addrs_.Insert(dst, addr, addr.base);
      }
      if (i.op == Opcode::kCvt && !self_ref) cvts_.Insert(dst, pc, i.a.is_reg() ? i.a.reg : -1);
    }
  }

  void StrengthReduce(Instr& i) {
    const bool is_int = vgpu::IsIntType(i.type);
    if (!is_int) return;
    const bool sgn = vgpu::IsSignedInt(i.type);

    auto imm_val = [&](const Operand& o) -> std::uint64_t {
      if (i.type == Type::kI32) {
        return static_cast<std::uint64_t>(static_cast<std::uint32_t>(o.imm));
      }
      return o.imm;
    };

    if (i.op == Opcode::kMul && i.b.is_imm()) {
      std::uint64_t v = imm_val(i.b);
      if (v == 0) {
        i = Instr::Make(Opcode::kMov, i.type, i.dst, Operand::Imm(0));
        ++stats_.strength_reduced;
      } else if (v == 1) {
        i = Instr::Make(Opcode::kMov, i.type, i.dst, i.a);
        ++stats_.strength_reduced;
      } else if (IsPow2(v)) {
        i.op = Opcode::kShl;
        i.b = Operand::Imm(ILog2(v));
        ++stats_.strength_reduced;
      }
      return;
    }
    if ((i.op == Opcode::kDiv || i.op == Opcode::kRem) && i.b.is_imm() && !sgn) {
      std::uint64_t v = imm_val(i.b);
      if (v != 0 && IsPow2(v)) {
        if (i.op == Opcode::kDiv) {
          i.op = Opcode::kShr;
          i.b = Operand::Imm(ILog2(v));
        } else {
          i.op = Opcode::kAnd;
          i.b = Operand::Imm(v - 1);
        }
        ++stats_.strength_reduced;
      }
      return;
    }
    if ((i.op == Opcode::kAdd || i.op == Opcode::kSub) && i.b.is_imm() && imm_val(i.b) == 0) {
      i = Instr::Make(Opcode::kMov, i.type, i.dst, i.a);
      ++stats_.strength_reduced;
      return;
    }
    if ((i.op == Opcode::kShl || i.op == Opcode::kShr) && i.b.is_imm() && i.b.imm == 0) {
      i = Instr::Make(Opcode::kMov, i.type, i.dst, i.a);
      ++stats_.strength_reduced;
      return;
    }
  }

  // ---- unreachable code removal ----
  // Blocks reachable from pc 0 through static successors and the
  // reconvergence pcs of divergent branches (where their lanes pop back).
  void RemoveUnreachable() {
    const vgpu::Cfg cfg(code_);
    std::vector<bool> reachable(static_cast<std::size_t>(cfg.size()), false);
    std::vector<int> work;
    auto reach = [&](int b) {
      if (reachable[b]) return;
      reachable[b] = true;
      work.push_back(b);
    };
    if (cfg.size() > 0) reach(0);
    while (!work.empty()) {
      const vgpu::Cfg::Block& b = cfg[work.back()];
      work.pop_back();
      for (int s : b.succs()) reach(s);
      const Instr& last = code_[b.end - 1];
      if (last.op == Opcode::kBraPred && last.reconv >= 0 &&
          last.reconv < static_cast<int>(code_.size())) {
        reach(cfg.block_of(last.reconv));
      }
    }
    for (int bi = 0; bi < cfg.size(); ++bi) {
      if (reachable[bi]) continue;
      for (int pc = cfg[bi].begin; pc < cfg[bi].end; ++pc) {
        if (code_[pc].op != Opcode::kNop) code_[pc] = Instr::Make(Opcode::kNop, Type::kI32, -1);
      }
    }
  }

  // ---- dead code elimination ----
  void Dce() {
    // Dense use counts indexed by vreg (types_ sizes the register file).
    std::vector<int> uses(types_.size() + 1, 0);
    auto add_uses = [&](const Instr& i, int delta) {
      if (i.a.is_reg()) uses[i.a.reg] += delta;
      if (i.b.is_reg()) uses[i.b.reg] += delta;
      if (i.c.is_reg()) uses[i.c.reg] += delta;
    };
    for (const auto& i : code_) {
      if (i.op == Opcode::kNop) continue;
      add_uses(i, 1);
    }
    bool changed = true;
    while (changed) {
      changed = false;
      // Backward scan: a dead chain's tail dies first, freeing its inputs in
      // the same pass, so chains disappear in one sweep instead of one pass
      // per link.
      for (auto it = code_.rbegin(); it != code_.rend(); ++it) {
        Instr& i = *it;
        if (i.op == Opcode::kNop || i.dst < 0) continue;
        if (!IsPure(i.op)) continue;
        if (uses[i.dst] != 0) continue;
        // Self-moves are also dead.
        add_uses(i, -1);
        i = Instr::Make(Opcode::kNop, Type::kI32, -1);
        ++stats_.dce_removed;
        changed = true;
      }
    }
    // Remove mov r, r.
    for (auto& i : code_) {
      if (i.op == Opcode::kMov && i.a.is_reg() && i.a.reg == i.dst) {
        i = Instr::Make(Opcode::kNop, Type::kI32, -1);
        ++stats_.dce_removed;
      }
    }
  }

  // ---- compaction: drop nops, remap branch targets ----
  void Compact() {
    // Branches to the immediately following instruction become nops first.
    for (std::size_t pc = 0; pc < code_.size(); ++pc) {
      Instr& i = code_[pc];
      if (i.op == Opcode::kBra) {
        // Find next non-nop after pc.
        std::size_t next = pc + 1;
        while (next < code_.size() && code_[next].op == Opcode::kNop) ++next;
        std::size_t tgt = static_cast<std::size_t>(i.target);
        while (tgt < code_.size() && code_[tgt].op == Opcode::kNop) ++tgt;
        if (tgt == next) i = Instr::Make(Opcode::kNop, Type::kI32, -1);
      }
    }

    std::vector<int> remap(code_.size() + 1, 0);
    int new_pc = 0;
    for (std::size_t pc = 0; pc < code_.size(); ++pc) {
      remap[pc] = new_pc;
      if (code_[pc].op != Opcode::kNop) ++new_pc;
    }
    remap[code_.size()] = new_pc;

    std::vector<Instr> out;
    out.reserve(new_pc);
    for (std::size_t pc = 0; pc < code_.size(); ++pc) {
      if (code_[pc].op == Opcode::kNop) continue;
      Instr i = code_[pc];
      if (i.op == Opcode::kBra || i.op == Opcode::kBraPred) {
        i.target = remap[std::min<std::size_t>(i.target, code_.size())];
        if (i.reconv >= 0) i.reconv = remap[std::min<std::size_t>(i.reconv, code_.size())];
      }
      out.push_back(i);
    }
    code_ = std::move(out);
  }

  // A u64 register known to equal `base + offset`.
  struct Addr {
    int base;
    std::uint64_t offset;
  };

  std::vector<Instr>& code_;
  const std::vector<Type>& types_;
  PassOptions options_;
  PassStats stats_;
  // BlockPass state, sized once for every register and reset per block.
  FactTable<std::uint64_t> consts_;  // vreg -> immediate
  FactTable<int> copies_;            // vreg -> source vreg
  // vreg -> (base reg, byte offset) for u64 `add dst, base, imm` defs;
  // folded into ld/st address immediates.
  FactTable<Addr> addrs_;
  FactTable<int> cvts_;  // vreg -> pc of its defining cvt (chain collapsing)
  CseTable cse_;
};

}  // namespace

PassStats Optimize(std::vector<Instr>& code, const std::vector<Type>& vreg_types,
                   const PassOptions& options) {
  return Optimizer(code, vreg_types, options).Run();
}

}  // namespace kspec::kcc
