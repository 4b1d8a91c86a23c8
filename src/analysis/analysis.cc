#include "analysis/analysis.h"

#include <algorithm>
#include <cassert>

namespace pbse::analysis {

ValueFact ValueFact::interval(std::uint64_t lo, std::uint64_t hi, unsigned w) {
  const std::uint64_t max = width_max(w);
  assert(lo <= hi && hi <= max);
  if (lo == hi) return constant(lo, w);
  if (lo == 0 && hi == max) return top(w);
  return {Kind::kInterval, w, lo, hi};
}

ValueFact ValueFact::join(const ValueFact& a, const ValueFact& b) {
  if (a.is_bottom()) return b;
  if (b.is_bottom()) return a;
  const unsigned w = std::max(a.width, b.width);
  if (a.is_top() || b.is_top()) return top(w);
  return interval(std::min(a.lo, b.lo), std::max(a.hi, b.hi), w);
}

std::string ValueFact::to_string() const {
  switch (kind) {
    case Kind::kBottom: return "bottom";
    case Kind::kTop: return "top:i" + std::to_string(width);
    case Kind::kConstant: return std::to_string(lo) + ":i" + std::to_string(width);
    case Kind::kInterval:
      return "[" + std::to_string(lo) + "," + std::to_string(hi) + "]:i" +
             std::to_string(width);
  }
  return "?";
}

bool DomTree::dominates(std::uint32_t a, std::uint32_t b) const {
  if (!reached(a) || !reached(b)) return false;
  // Walk b's idom chain up to the entry; chains are short (tree height).
  while (true) {
    if (b == a) return true;
    if (b == entry) return false;
    b = idom[b];
  }
}

bool PostDomTree::postdominates(std::uint32_t a, std::uint32_t b) const {
  if (!reached(a) || !reached(b)) return false;
  while (true) {
    if (b == a) return true;
    if (b == exit_id) return false;
    b = idom[b];
  }
}

const char* sink_kind_name(SinkKind kind) {
  switch (kind) {
    case SinkKind::kDivByZero: return "div-by-zero";
    case SinkKind::kOobIndex: return "oob-index";
    case SinkKind::kOverflow: return "overflow";
  }
  return "?";
}

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kProvablySafe: return "provably-safe";
    case Verdict::kPossiblyUnsafe: return "possibly-unsafe";
    case Verdict::kProvablyBuggy: return "provably-buggy";
  }
  return "?";
}

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
ModuleAnalysis::infeasible_edges() const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(infeasible_.size());
  for (std::uint64_t key : infeasible_)
    edges.emplace_back(static_cast<std::uint32_t>(key >> 32),
                       static_cast<std::uint32_t>(key));
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::vector<std::uint32_t> ModuleAnalysis::sink_blocks() const {
  std::vector<std::uint32_t> blocks;
  for (const SinkFinding& f : findings)
    if (f.verdict != Verdict::kProvablySafe) blocks.push_back(f.block);
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  return blocks;
}

void PassManager::run(const ir::Module& module, ModuleAnalysis& out) const {
  for (const auto& pass : passes_) {
    const std::uint64_t work = pass->run(module, out);
    out.pass_log.emplace_back(pass->name(), work);
  }
}

std::unique_ptr<ModuleAnalysis> analyze_module(const ir::Module& module) {
  assert(module.finalized() && "finalize the module before analysis");
  auto result = std::make_unique<ModuleAnalysis>();
  PassManager pm;
  pm.add(make_callgraph_pass());
  pm.add(make_dominator_pass());
  pm.add(make_sccp_pass());
  pm.add(make_lint_pass());
  pm.run(module, *result);
  return result;
}

}  // namespace pbse::analysis
