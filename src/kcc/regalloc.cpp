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

struct Block {
  int begin = 0;
  int end = 0;  // exclusive
  std::vector<int> succs;
  RegSet use, def;
  RegSet live_in, live_out;
};

std::vector<Block> BuildBlocks(const std::vector<Instr>& code) {
  const int n = static_cast<int>(code.size());
  std::vector<bool> leader(code.size() + 1, false);
  auto mark = [&](int pc) {
    if (pc >= 0 && pc <= n) leader[pc] = true;
  };
  mark(0);
  for (int pc = 0; pc < n; ++pc) {
    const Instr& i = code[pc];
    if (i.op == Opcode::kBra || i.op == Opcode::kBraPred || i.op == Opcode::kExit) {
      mark(pc + 1);
    }
    if (i.op == Opcode::kBra || i.op == Opcode::kBraPred) {
      mark(i.target);
      if (i.reconv >= 0) mark(i.reconv);
    }
  }
  mark(n);

  std::vector<Block> blocks;
  std::vector<int> block_of_pc(code.size() + 1, -1);
  int prev = 0;
  for (int l = 1; l <= n; ++l) {
    if (!leader[l]) continue;
    Block b;
    b.begin = prev;
    b.end = l;
    block_of_pc[prev] = static_cast<int>(blocks.size());
    blocks.push_back(b);
    prev = l;
  }
  // Successors.
  for (auto& b : blocks) {
    const Instr& last = code[b.end - 1];
    auto add = [&](int pc) {
      if (pc >= 0 && pc <= n && block_of_pc[pc] >= 0) b.succs.push_back(block_of_pc[pc]);
    };
    switch (last.op) {
      case Opcode::kExit:
        break;
      case Opcode::kBra:
        add(last.target);
        break;
      case Opcode::kBraPred:
        add(last.target);
        add(b.end);
        break;
      default:
        add(b.end);
        break;
    }
  }
  return blocks;
}

// Fills block `bi`'s use set (registers read before any def in the block)
// and def set. `mark` is scratch, one slot per vreg, never holding `bi` or
// `~bi` on entry.
void CollectUseDef(const std::vector<Instr>& code, int bi, Block& b, std::vector<int>& mark) {
  const int defined = bi, used = ~bi;
  for (int pc = b.begin; pc < b.end; ++pc) {
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

  std::vector<Block> blocks = BuildBlocks(code);
  std::vector<int> mark(vreg_types.size(), static_cast<int>(blocks.size()));
  for (int bi = 0; bi < static_cast<int>(blocks.size()); ++bi) {
    CollectUseDef(code, bi, blocks[bi], mark);
  }

  // Iterative backward liveness.
  RegSet new_out, new_in, scratch;
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
      Block& b = *it;
      new_out.clear();
      for (int s : b.succs) {
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
  for (int bi = 0; bi < static_cast<int>(blocks.size()); ++bi) {
    const Block& b = blocks[bi];
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
    for (int r : b.live_out) enter(r);
    measure();
    for (int pc = b.end - 1; pc >= b.begin; --pc) {
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

  // Static ILP per block: instructions / critical path. Dependencies are
  // def->use within the block; loads depend on their address, stores on both
  // operands. Memory is not serialized for the estimate (GPUs overlap
  // independent accesses aggressively).
  // depth[r] is register r's chain depth at its last def in block
  // def_block[r] (a stale block index means no def in this block yet).
  std::vector<int> depth(vreg_types.size(), 0), def_block(vreg_types.size(), -1);
  for (int bi = 0; bi < static_cast<int>(blocks.size()); ++bi) {
    const Block& b = blocks[bi];
    int n = b.end - b.begin;
    if (n <= 0) continue;
    int cp = 1;
    for (int pc = b.begin; pc < b.end; ++pc) {
      const Instr& i = code[pc];
      int d = 0;
      auto dep = [&](const vgpu::Operand& o) {
        if (o.is_reg() && def_block[o.reg] == bi) d = std::max(d, depth[o.reg]);
      };
      if (i.op != Opcode::kSreg) {
        dep(i.a);
        dep(i.b);
        dep(i.c);
      }
      int my_depth = d + 1;
      if (i.dst >= 0) {
        def_block[i.dst] = bi;
        depth[i.dst] = my_depth;
      }
      cp = std::max(cp, my_depth);
    }
    float ilp = static_cast<float>(n) / static_cast<float>(cp);
    for (int pc = b.begin; pc < b.end; ++pc) out.ilp_at_pc[pc] = ilp;
  }
  return out;
}

}  // namespace kspec::kcc
