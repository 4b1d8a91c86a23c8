// Dominator / post-dominator pass: the Cooper-Harper-Kennedy iterative
// algorithm over a reverse-postorder sweep. Runs per function on the
// intra-procedural CFG; the post-dominator variant reverses every edge and
// roots the tree at a virtual exit joined to all ret/unreachable
// terminators (so infinite loops post-dominate nothing, which is the
// conservative answer).
#include <algorithm>

#include "analysis/analysis.h"
#include "ir/cfg.h"

namespace pbse::analysis {

namespace {

/// Reverse postorder of `succ`-reachable nodes from `root`; iterative DFS.
std::vector<std::uint32_t> reverse_postorder(
    std::uint32_t root, std::uint32_t num_nodes,
    const std::vector<std::vector<std::uint32_t>>& succ) {
  std::vector<std::uint32_t> order;
  std::vector<std::uint8_t> state(num_nodes, 0);  // 0 new, 1 open, 2 done
  std::vector<std::pair<std::uint32_t, std::size_t>> stack{{root, 0}};
  state[root] = 1;
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < succ[node].size()) {
      const std::uint32_t s = succ[node][next++];
      if (state[s] == 0) {
        state[s] = 1;
        stack.emplace_back(s, 0);
      }
    } else {
      state[node] = 2;
      order.push_back(node);
      stack.pop_back();
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

/// Iterative dominator fixpoint (Cooper et al., "A Simple, Fast Dominance
/// Algorithm"). Returns idom[] with kNoBlock for unreached nodes and
/// idom[root] == root. `work` counts intersect steps.
std::vector<std::uint32_t> compute_idoms(
    std::uint32_t root, std::uint32_t num_nodes,
    const std::vector<std::vector<std::uint32_t>>& succ,
    const std::vector<std::vector<std::uint32_t>>& pred, std::uint64_t& work) {
  const std::vector<std::uint32_t> rpo = reverse_postorder(root, num_nodes, succ);
  std::vector<std::uint32_t> rpo_index(num_nodes, ir::kNoBlock);
  for (std::uint32_t i = 0; i < rpo.size(); ++i) rpo_index[rpo[i]] = i;

  std::vector<std::uint32_t> idom(num_nodes, ir::kNoBlock);
  idom[root] = root;

  auto intersect = [&](std::uint32_t a, std::uint32_t b) {
    while (a != b) {
      ++work;
      while (rpo_index[a] > rpo_index[b]) a = idom[a];
      while (rpo_index[b] > rpo_index[a]) b = idom[b];
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint32_t node : rpo) {
      if (node == root) continue;
      std::uint32_t new_idom = ir::kNoBlock;
      for (std::uint32_t p : pred[node]) {
        if (idom[p] == ir::kNoBlock) continue;  // predecessor not reached yet
        new_idom = new_idom == ir::kNoBlock ? p : intersect(new_idom, p);
      }
      if (new_idom != ir::kNoBlock && idom[node] != new_idom) {
        idom[node] = new_idom;
        changed = true;
      }
    }
  }
  return idom;
}

class DominatorPass final : public Pass {
 public:
  const char* name() const override { return "dominators"; }

  std::uint64_t run(const ir::Module& module, ModuleAnalysis& out) override {
    std::uint64_t work = 0;
    out.dominators.clear();
    out.post_dominators.clear();
    for (std::uint32_t fi = 0; fi < module.num_functions(); ++fi) {
      const ir::Function& fn = *module.function(fi);
      const std::uint32_t n = static_cast<std::uint32_t>(fn.num_blocks());

      std::vector<std::vector<std::uint32_t>> succ(n), pred(n);
      for (std::uint32_t b = 0; b < n; ++b) {
        for (std::uint32_t s : ir::block_successors(fn, b)) {
          succ[b].push_back(s);
          pred[s].push_back(b);
        }
      }

      DomTree dom;
      dom.entry = 0;
      dom.idom = n == 0 ? std::vector<std::uint32_t>{}
                        : compute_idoms(0, n, succ, pred, work);
      out.dominators.push_back(std::move(dom));

      // Post-dominators: reverse edges, virtual exit node n as the root,
      // with an edge exit -> every block whose terminator leaves the
      // function (ret or unreachable).
      std::vector<std::vector<std::uint32_t>> rsucc(n + 1), rpred(n + 1);
      for (std::uint32_t b = 0; b < n; ++b) {
        for (std::uint32_t s : succ[b]) {
          rsucc[s].push_back(b);
          rpred[b].push_back(s);
        }
        const auto& insts = fn.block(b).insts;
        const bool exits = !insts.empty() &&
                           (insts.back().op == ir::Opcode::kRet ||
                            insts.back().op == ir::Opcode::kUnreachable);
        if (exits) {
          rsucc[n].push_back(b);
          rpred[b].push_back(n);
        }
      }
      PostDomTree pdom;
      pdom.exit_id = n;
      pdom.idom = compute_idoms(n, n + 1, rsucc, rpred, work);
      out.post_dominators.push_back(std::move(pdom));
    }
    return work;
  }
};

}  // namespace

std::unique_ptr<Pass> make_dominator_pass() {
  return std::make_unique<DominatorPass>();
}

}  // namespace pbse::analysis
