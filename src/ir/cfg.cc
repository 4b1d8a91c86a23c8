#include "ir/cfg.h"

#include <deque>

namespace pbse::ir {

std::vector<std::uint32_t> block_successors(const Function& fn,
                                            std::uint32_t bb) {
  const auto& insts = fn.block(bb).insts;
  if (insts.empty()) return {};
  const Instruction& term = insts.back();
  switch (term.op) {
    case Opcode::kBr:
      if (term.bb_then == term.bb_else) return {term.bb_then};
      return {term.bb_then, term.bb_else};
    case Opcode::kJmp:
      return {term.bb_then};
    default:
      return {};
  }
}

BlockGraph::BlockGraph(const Module& module)
    : forward_(module.total_blocks()), reverse_(module.total_blocks()) {
  auto add_edge = [this](std::uint32_t from, std::uint32_t to) {
    forward_[from].push_back(to);
    reverse_[to].push_back(from);
  };

  for (std::uint32_t fi = 0; fi < module.num_functions(); ++fi) {
    const Function& fn = *module.function(fi);
    // Exit blocks of each function, for return edges.
    std::vector<std::uint32_t> exits;
    for (std::uint32_t bi = 0; bi < fn.num_blocks(); ++bi) {
      const auto& insts = fn.block(bi).insts;
      if (!insts.empty() && insts.back().op == Opcode::kRet)
        exits.push_back(fn.block(bi).global_id);
    }

    for (std::uint32_t bi = 0; bi < fn.num_blocks(); ++bi) {
      const std::uint32_t from = fn.block(bi).global_id;
      for (std::uint32_t succ : block_successors(fn, bi))
        add_edge(from, fn.block(succ).global_id);
      // Call edges.
      for (const Instruction& inst : fn.block(bi).insts) {
        if (inst.op != Opcode::kCall) continue;
        const Function& callee = *module.function(inst.callee);
        if (callee.num_blocks() == 0) continue;
        add_edge(from, callee.block(0).global_id);
        for (std::uint32_t ci = 0; ci < callee.num_blocks(); ++ci) {
          const auto& cinsts = callee.block(ci).insts;
          if (!cinsts.empty() && cinsts.back().op == Opcode::kRet)
            add_edge(callee.block(ci).global_id, from);
        }
      }
    }
  }
}

void DistanceToUncovered::recompute(const std::vector<bool>& covered) {
  std::fill(distance_.begin(), distance_.end(), kUnreachable);
  std::deque<std::uint32_t> queue;
  for (std::uint32_t b = 0; b < graph_.num_blocks(); ++b) {
    if (b < covered.size() && covered[b]) continue;
    distance_[b] = 0;
    queue.push_back(b);
  }
  while (!queue.empty()) {
    const std::uint32_t b = queue.front();
    queue.pop_front();
    for (std::uint32_t pred : graph_.predecessors(b)) {
      if (distance_[pred] != kUnreachable) continue;
      distance_[pred] = distance_[b] + 1;
      queue.push_back(pred);
    }
  }
}

}  // namespace pbse::ir
