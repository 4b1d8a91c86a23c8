// pbse-analyze — standalone report over the static analysis subsystem
// (DESIGN.md §12): per target, the pass log, call-graph reachability,
// statically-unreachable blocks, infeasible branch edges, and the bug-sink
// lint's findings with their verdicts.
//
//   pbse-analyze [target|all] [--json] [--edges] [--safe]
//
//   --json    machine-readable output (one JSON object for the whole run,
//             on one line)
//   --edges   list every infeasible edge (text mode; JSON always has them)
//   --safe    include provably-safe findings (text mode; JSON always does)
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.h"
#include "support/json.h"
#include "targets/targets.h"

namespace {

using namespace pbse;

struct Args {
  std::string target = "all";
  bool json = false;
  bool edges = false;
  bool safe = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: pbse-analyze [target|all] [--json] [--edges] [--safe]\n"
               "  --json   JSON report on stdout\n"
               "  --edges  list infeasible edges in the text report\n"
               "  --safe   include provably-safe findings in the text "
               "report\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") args.json = true;
    else if (arg == "--edges") args.edges = true;
    else if (arg == "--safe") args.safe = true;
    else if (arg.rfind("--", 0) == 0) return false;
    else args.target = arg;
  }
  return true;
}

struct TargetReport {
  std::string driver;
  ir::Module module;
  std::unique_ptr<analysis::ModuleAnalysis> result;
};

void print_text(const TargetReport& r, const Args& args) {
  const analysis::ModuleAnalysis& a = *r.result;
  std::uint32_t reachable_fns = 0;
  for (bool f : a.callgraph.reachable) reachable_fns += f ? 1 : 0;
  std::size_t warn = 0, err = 0, safe = 0;
  for (const auto& f : a.findings) {
    if (f.verdict == analysis::Verdict::kProvablySafe) ++safe;
    else if (f.verdict == analysis::Verdict::kProvablyBuggy) ++err;
    else ++warn;
  }

  std::printf("%s: %zu functions (%u reachable), %u blocks "
              "(%llu statically unreachable)\n",
              r.driver.c_str(), r.module.num_functions(), reachable_fns,
              r.module.total_blocks(),
              static_cast<unsigned long long>(a.num_unreachable));
  std::printf("  passes:");
  for (const auto& [name, work] : a.pass_log)
    std::printf(" %s(%llu)", name.c_str(),
                static_cast<unsigned long long>(work));
  std::printf("\n");
  std::printf("  infeasible edges: %zu, sink blocks: %zu "
              "(%zu possibly-unsafe, %zu provably-buggy, %zu provably-safe)\n",
              a.num_infeasible_edges(), a.sink_blocks().size(), warn, err,
              safe);
  if (args.edges)
    for (const auto& [from, to] : a.infeasible_edges())
      std::printf("  infeasible: bb%u -> bb%u\n", from, to);
  for (const auto& f : a.findings) {
    if (!args.safe && f.verdict == analysis::Verdict::kProvablySafe) continue;
    std::printf("  [%s] %s %s at %s:%u (bb%u): %s\n",
                analysis::severity_name(f.severity),
                analysis::verdict_name(f.verdict),
                analysis::sink_kind_name(f.kind),
                r.module.function(f.function)->name().c_str(), f.line,
                f.block, f.message.c_str());
  }
}

void print_json(const std::vector<TargetReport>& reports) {
  Json targets = Json::array();
  for (const TargetReport& r : reports) {
    const analysis::ModuleAnalysis& a = *r.result;
    Json passes = Json::array();
    for (const auto& [name, work] : a.pass_log) {
      Json pass = Json::object();
      pass.set("name", Json::string(name));
      pass.set("work", Json::number(work));
      passes.push_back(std::move(pass));
    }
    Json edges = Json::array();
    for (const auto& [from, to] : a.infeasible_edges()) {
      Json edge = Json::array();
      edge.push_back(Json::number(from));
      edge.push_back(Json::number(to));
      edges.push_back(std::move(edge));
    }
    Json findings = Json::array();
    for (const auto& f : a.findings) {
      Json finding = Json::object();
      finding.set("kind", Json::string(analysis::sink_kind_name(f.kind)));
      finding.set("verdict", Json::string(analysis::verdict_name(f.verdict)));
      finding.set("severity",
                  Json::string(analysis::severity_name(f.severity)));
      finding.set("function",
                  Json::string(r.module.function(f.function)->name()));
      finding.set("line", Json::number(f.line));
      finding.set("block", Json::number(f.block));
      finding.set("message", Json::string(f.message));
      findings.push_back(std::move(finding));
    }
    Json target = Json::object();
    target.set("driver", Json::string(r.driver));
    target.set("functions", Json::number(r.module.num_functions()));
    target.set("blocks", Json::number(r.module.total_blocks()));
    target.set("unreachable_blocks", Json::number(a.num_unreachable));
    target.set("passes", std::move(passes));
    target.set("infeasible_edges", std::move(edges));
    target.set("findings", std::move(findings));
    targets.push_back(std::move(target));
  }
  Json report = Json::object();
  report.set("targets", std::move(targets));
  std::printf("%s\n", report.dump().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();

  std::vector<TargetReport> reports;
  for (const auto& info : targets::all_targets()) {
    if (args.target != "all" && args.target != info.driver) continue;
    TargetReport r;
    r.driver = info.driver;
    r.module = targets::build_target(info.source());
    r.result = analysis::analyze_module(r.module);
    reports.push_back(std::move(r));
  }
  if (reports.empty()) {
    std::fprintf(stderr, "unknown target '%s'\n", args.target.c_str());
    return 1;
  }

  if (args.json) {
    print_json(reports);
  } else {
    for (const auto& r : reports) print_text(r, args);
  }
  return 0;
}
