#include "kcc/regalloc.hpp"

#include <algorithm>
#include <iterator>

#include "support/status.hpp"

namespace kspec::kcc {

namespace {

using vgpu::Instr;
using vgpu::Opcode;
using vgpu::Type;

// Register sets are sorted vectors of distinct vregs.
using RegSet = std::vector<int>;

// A block's register sets for liveness.
struct BlockSets {
  RegSet use, def;
  RegSet live_in, live_out;
};

// Fills block `bi`'s use set (registers read before any def in the block)
// and def set. `mark` is scratch, one slot per vreg, never holding `bi` or
// `~bi` on entry.
void CollectUseDef(const std::vector<Instr>& code, const vgpu::Cfg& cfg, int bi, BlockSets& b,
                   std::vector<int>& mark) {
  const int defined = bi, used = ~bi;
  for (int pc = cfg[bi].begin; pc < cfg[bi].end; ++pc) {
    const Instr& i = code[pc];
    auto use = [&](const vgpu::Operand& o) {
      if (!o.is_reg() || mark[o.reg] == defined || mark[o.reg] == used) return;
      mark[o.reg] = used;
      b.use.push_back(o.reg);
    };
    if (i.op != Opcode::kSreg) {
      use(i.a);
      use(i.b);
      use(i.c);
    }
    if (i.dst >= 0 && mark[i.dst] != defined) {
      mark[i.dst] = defined;
      b.def.push_back(i.dst);
    }
  }
  std::sort(b.use.begin(), b.use.end());
  std::sort(b.def.begin(), b.def.end());
}

}  // namespace

AllocResult AllocateRegisters(const std::vector<Instr>& code,
                              const std::vector<Type>& vreg_types) {
  AllocResult out;
  out.ilp_at_pc.assign(code.size(), 1.0f);
  if (code.empty()) return out;

  const vgpu::Cfg cfg(code);
  std::vector<BlockSets> blocks(static_cast<std::size_t>(cfg.size()));
  std::vector<int> mark(vreg_types.size(), cfg.size());
  for (int bi = 0; bi < cfg.size(); ++bi) CollectUseDef(code, cfg, bi, blocks[bi], mark);

  // Iterative backward liveness.
  RegSet new_out, new_in, scratch;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int bi = cfg.size() - 1; bi >= 0; --bi) {
      BlockSets& b = blocks[bi];
      new_out.clear();
      for (int s : cfg[bi].succs()) {
        const RegSet& in = blocks[s].live_in;
        scratch.clear();
        std::set_union(new_out.begin(), new_out.end(), in.begin(), in.end(),
                       std::back_inserter(scratch));
        new_out.swap(scratch);
      }
      scratch.clear();
      std::set_difference(new_out.begin(), new_out.end(), b.def.begin(), b.def.end(),
                          std::back_inserter(scratch));
      new_in.clear();
      std::set_union(b.use.begin(), b.use.end(), scratch.begin(), scratch.end(),
                     std::back_inserter(new_in));
      if (new_out != b.live_out || new_in != b.live_in) {
        b.live_out = new_out;
        b.live_in = new_in;
        changed = true;
      }
    }
  }

  // Peak pressure: walk each block backwards from live_out.
  auto width = [&](int reg) -> int {
    Type t = vreg_types[static_cast<std::size_t>(reg)];
    if (t == Type::kPred) return 0;
    return vgpu::TypeSize(t) > 4 ? 2 : 1;
  };
  auto pred_width = [&](int reg) -> int {
    return vreg_types[static_cast<std::size_t>(reg)] == Type::kPred ? 1 : 0;
  };

  // `live_in_walk[r] == b` while register r is live in block b's walk; the
  // walk keeps the live set's total width and predicate count as registers
  // enter and leave it.
  int peak = 0, peak_pred = 0;
  std::vector<int> live_in_walk(vreg_types.size(), -1);
  for (int bi = 0; bi < cfg.size(); ++bi) {
    int w = 0, p = 0;
    auto enter = [&](int reg) {
      if (live_in_walk[reg] == bi) return;
      live_in_walk[reg] = bi;
      w += width(reg);
      p += pred_width(reg);
    };
    auto leave = [&](int reg) {
      if (live_in_walk[reg] != bi) return;
      live_in_walk[reg] = -1;
      w -= width(reg);
      p -= pred_width(reg);
    };
    auto measure = [&]() {
      peak = std::max(peak, w);
      peak_pred = std::max(peak_pred, p);
    };
    for (int r : blocks[bi].live_out) enter(r);
    measure();
    for (int pc = cfg[bi].end - 1; pc >= cfg[bi].begin; --pc) {
      const Instr& i = code[pc];
      if (i.dst >= 0) leave(i.dst);
      if (i.op != Opcode::kSreg) {
        if (i.a.is_reg()) enter(i.a.reg);
        if (i.b.is_reg()) enter(i.b.reg);
        if (i.c.is_reg()) enter(i.c.reg);
      }
      measure();
    }
  }
  // Real kernels always need a couple of registers for addresses/indices.
  out.reg_count = std::max(peak, 2);
  out.pred_count = peak_pred;

  // Static ILP per window: instructions / critical path. A window is a block
  // plus the blocks after it that start only because a bar.sync ends the one
  // before; a jump, a reconvergence pc, or the end of a bra, bra.pred or exit
  // starts a new window. Dependencies are def->use within the window; loads
  // depend on their address, stores on both operands. Memory is not
  // serialized for the estimate (GPUs overlap independent accesses
  // aggressively).
  // depth[r] is register r's chain depth at its last def in the window whose
  // first block is def_window[r] (a stale index means no def in this window
  // yet).
  std::vector<int> depth(vreg_types.size(), 0), def_window(vreg_types.size(), -1);
  for (int first = 0, last = 0; first < cfg.size(); first = ++last) {
    while (last + 1 < cfg.size() && !cfg[last + 1].jump_entry &&
           code[cfg[last + 1].begin - 1].op == Opcode::kBarSync) {
      ++last;
    }
    const int begin = cfg[first].begin, end = cfg[last].end;
    int cp = 1;
    for (int pc = begin; pc < end; ++pc) {
      const Instr& i = code[pc];
      int d = 0;
      auto dep = [&](const vgpu::Operand& o) {
        if (o.is_reg() && def_window[o.reg] == first) d = std::max(d, depth[o.reg]);
      };
      if (i.op != Opcode::kSreg) {
        dep(i.a);
        dep(i.b);
        dep(i.c);
      }
      int my_depth = d + 1;
      if (i.dst >= 0) {
        def_window[i.dst] = first;
        depth[i.dst] = my_depth;
      }
      cp = std::max(cp, my_depth);
    }
    const float ilp = static_cast<float>(end - begin) / static_cast<float>(cp);
    for (int pc = begin; pc < end; ++pc) out.ilp_at_pc[pc] = ilp;
  }
  return out;
}

}  // namespace kspec::kcc
