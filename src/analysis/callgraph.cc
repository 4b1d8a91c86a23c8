// Call-graph pass: direct-call edges (kCall carries a static function
// index, so the graph is exact) plus entry reachability.
#include <algorithm>
#include <deque>

#include "analysis/analysis.h"

namespace pbse::analysis {

namespace {

class CallGraphPass final : public Pass {
 public:
  const char* name() const override { return "callgraph"; }

  std::uint64_t run(const ir::Module& module, ModuleAnalysis& out) override {
    const std::uint32_t n = static_cast<std::uint32_t>(module.num_functions());
    CallGraph& cg = out.callgraph;
    cg.callees.assign(n, {});
    cg.callers.assign(n, {});
    cg.reachable.assign(n, false);

    std::uint64_t work = 0;
    for (std::uint32_t fi = 0; fi < n; ++fi) {
      const ir::Function& fn = *module.function(fi);
      for (const ir::BasicBlock& bb : fn.blocks()) {
        for (const ir::Instruction& inst : bb.insts) {
          ++work;
          if (inst.op != ir::Opcode::kCall) continue;
          cg.callees[fi].push_back(inst.callee);
          cg.callers[inst.callee].push_back(fi);
        }
      }
    }
    for (auto& list : cg.callees) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    for (auto& list : cg.callers) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }

    const ir::Function* entry = module.function_by_name("main");
    if (entry == nullptr) return work;
    cg.entry = entry->index();
    std::deque<std::uint32_t> queue{cg.entry};
    cg.reachable[cg.entry] = true;
    while (!queue.empty()) {
      const std::uint32_t fi = queue.front();
      queue.pop_front();
      for (std::uint32_t callee : cg.callees[fi]) {
        if (cg.reachable[callee]) continue;
        cg.reachable[callee] = true;
        queue.push_back(callee);
      }
    }
    return work;
  }
};

}  // namespace

std::unique_ptr<Pass> make_callgraph_pass() {
  return std::make_unique<CallGraphPass>();
}

}  // namespace pbse::analysis
