// pbse — command-line driver, the downstream user's entry point.
//
//   pbse list
//       List registered targets.
//   pbse klee <target> [--searcher=S] [--sym-size=N] [--budget=T]
//       Plain symbolic execution with a whole-file symbolic input.
//   pbse run <target> [--seed-scale=K] [--budget=T]
//       Full pbSE (Algorithm 1): concolic + phase analysis + scheduling.
//   pbse concolic <target> [--seed-scale=K]
//       Concolic run only; prints the BBV/phase summary.
//   pbse phases <target> [--seed-scale=K]
//       Phase division report (the Fig 4 view).
//
// For 'klee' and 'run', <target> may be a single driver name, a
// comma-separated list, or 'all'; --jobs=N runs the per-target campaigns
// on N worker threads sharing the sharded solver cache (disable sharing
// with --no-share-cache for bit-exact serial/parallel parity).
//
// Budgets are virtual-clock ticks (default 1,000,000 = the bench "1h").
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "concolic/concolic_executor.h"
#include "core/driver.h"
#include "obs/trace.h"
#include "core/parallel.h"
#include "phase/phase_analysis.h"
#include "support/argparse.h"
#include "targets/targets.h"

namespace {

using namespace pbse;

struct Args {
  std::string command;
  std::string target;
  search::SearcherKind searcher = search::SearcherKind::kDefault;
  unsigned sym_size = 1000;
  std::uint64_t budget = 1'000'000;
  unsigned seed_scale = 6;
  unsigned jobs = 1;
  bool share_cache = true;
  std::string trace_path;
};

int usage() {
  std::fprintf(stderr,
               "usage: pbse <list|klee|run|concolic|phases> [target]\n"
               "  <target> for klee/run: driver name, comma-list, or 'all'\n"
               "  --searcher=dfs|bfs|random-state|random-path|covnew|md2u|"
               "default\n"
               "  --sym-size=N   symbolic file size for 'klee' (default 1000)\n"
               "  --budget=T     tick budget (default 1000000)\n"
               "  --seed-scale=K seed generator scale (default 6)\n"
               "  --jobs=N       worker threads for multi-target campaigns\n"
               "  --no-share-cache  per-campaign private solver caches\n"
               "  --target=NAME  alternative to the positional <target>\n"
               "  --trace=PATH   capture a trace (.json -> Chrome "
               "trace_event,\n"
               "                 anything else -> JSONL; see pbse-trace)\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  int pos = 2;
  if (args.command != "list" && argc >= 3 &&
      std::strncmp(argv[2], "--", 2) != 0) {
    args.target = argv[2];
    pos = 3;
  }
  for (int i = pos; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    // Numeric flags are strict: garbage, a sign, trailing junk or zero is a
    // usage error naming the flag, never a silently coerced value.
    std::string error;
    auto reject = [&error] {
      std::fprintf(stderr, "pbse: %s\n", error.c_str());
      return false;
    };
    if (const char* v = value_of("--searcher=")) {
      if (!search::parse_searcher_kind(v, args.searcher)) return false;
    } else if (const char* v = value_of("--sym-size=")) {
      if (!support::parse_positive_count("--sym-size", v, args.sym_size, error))
        return reject();
    } else if (const char* v = value_of("--budget=")) {
      if (!support::parse_u64_flag("--budget", v, 1, args.budget, error))
        return reject();
    } else if (const char* v = value_of("--seed-scale=")) {
      if (!support::parse_positive_count("--seed-scale", v, args.seed_scale,
                                         error))
        return reject();
    } else if (const char* v = value_of("--jobs=")) {
      if (!support::parse_positive_count("--jobs", v, args.jobs, error))
        return reject();
    } else if (const char* v = value_of("--target=")) {
      args.target = v;
    } else if (const char* v = value_of("--trace=")) {
      args.trace_path = v;
    } else if (arg == "--no-share-cache") {
      args.share_cache = false;
    } else {
      return false;
    }
  }
  if (args.command != "list" && args.target.empty()) return false;
  return true;
}

const targets::TargetInfo* find_target(const std::string& driver) {
  for (const auto& t : targets::all_targets())
    if (t.driver == driver) return &t;
  std::fprintf(stderr, "unknown target '%s'; try 'pbse list'\n",
               driver.c_str());
  return nullptr;
}

std::string format_bugs(const vm::Executor& executor) {
  std::string out;
  char buf[256];
  for (const auto& bug : executor.bugs()) {
    std::snprintf(buf, sizeof buf, "BUG %s at %s:%u  (%s)\n    witness:",
                  vm::bug_kind_name(bug.kind), bug.function.c_str(), bug.line,
                  bug.message.c_str());
    out += buf;
    for (std::size_t i = 0; i < bug.input.size() && i < 24; ++i) {
      std::snprintf(buf, sizeof buf, " %02x", bug.input[i]);
      out += buf;
    }
    if (bug.input.size() > 24) out += " ...";
    out += "\n";
  }
  return out;
}

/// <target> for klee/run: a driver name, comma-list, or 'all'.
std::vector<std::string> resolve_targets(const std::string& spec) {
  std::vector<std::string> out;
  if (spec == "all") {
    for (const auto& t : targets::all_targets()) out.push_back(t.driver);
    return out;
  }
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string name = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!name.empty()) out.push_back(name);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Runs the campaigns (inline for --jobs=1), prints each campaign's
/// preformatted output (rows[i][0]) in campaign order, and an aggregate
/// footer when more than one campaign or worker was involved.
int run_campaigns(const Args& args, std::vector<core::Campaign> campaigns) {
  core::ParallelOptions popts;
  popts.jobs = args.jobs;
  popts.share_solver_cache = args.share_cache;
  core::ParallelCampaignRunner runner(popts);
  const auto outcomes = runner.run(campaigns);
  int rc = 0;
  for (const auto& o : outcomes) {
    for (const auto& row : o.rows) std::printf("%s", row[0].c_str());
    if (o.stats.get("cli.failed") != 0) rc = 1;
  }
  if (outcomes.size() > 1 || args.jobs > 1) {
    const Stats& agg = runner.aggregate_stats();
    const std::uint64_t hits = agg.get("cache.shared_hits");
    const std::uint64_t misses = agg.get("cache.shared_misses");
    std::printf("-- %zu campaigns, %u job(s), %.2fs wall", outcomes.size(),
                args.jobs, runner.wall_seconds());
    if (args.share_cache && hits + misses > 0)
      std::printf(", shared cache hit-rate %.1f%%",
                  100.0 * hits / static_cast<double>(hits + misses));
    std::printf("\n");
  }
  return rc;
}

int cmd_list() {
  std::printf("%-12s %-10s %-8s %s\n", "driver", "package", "blocks",
              "CVE analogs");
  for (const auto& t : targets::all_targets()) {
    ir::Module module = targets::build_target(t.source());
    std::string cves;
    for (const auto& c : t.cve_analogs)
      if (c != "N") cves += c + " ";
    std::printf("%-12s %-10s %-8u %s\n", t.driver.c_str(), t.package.c_str(),
                module.total_blocks(), cves.c_str());
  }
  return 0;
}

int cmd_klee(const Args& args) {
  std::vector<core::Campaign> campaigns;
  for (const std::string& name : resolve_targets(args.target)) {
    if (find_target(name) == nullptr) return 1;
    campaigns.push_back({name, [name, &args](const core::CampaignContext& ctx) {
      const auto* info = find_target(name);
      ir::Module module = targets::build_target(info->source());
      core::KleeRunOptions options;
      options.searcher = args.searcher;
      options.sym_file_size = args.sym_size;
      options.solver.shared_cache = ctx.shared_cache;
      core::KleeRun run(module, "main", options);
      run.run(args.budget);
      core::CampaignOutcome out;
      out.covered = run.executor().num_covered();
      out.ticks = run.clock().now();
      out.bugs = run.executor().bugs().size();
      out.stats = run.stats();
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s: covered %llu / %u blocks in %llu ticks (%s, sym-%u)\n"
                    "states live: %zu, test cases: %zu, bugs: %zu\n",
                    name.c_str(), static_cast<unsigned long long>(out.covered),
                    module.total_blocks(),
                    static_cast<unsigned long long>(out.ticks),
                    search::searcher_kind_name(args.searcher), args.sym_size,
                    run.num_states(), run.executor().test_cases().size(),
                    run.executor().bugs().size());
      out.rows = {{std::string(buf) + format_bugs(run.executor())}};
      return out;
    }});
  }
  return run_campaigns(args, std::move(campaigns));
}

int cmd_run(const Args& args) {
  std::vector<core::Campaign> campaigns;
  for (const std::string& name : resolve_targets(args.target)) {
    if (find_target(name) == nullptr) return 1;
    campaigns.push_back({name, [name, &args](const core::CampaignContext& ctx) {
      const auto* info = find_target(name);
      ir::Module module = targets::build_target(info->source());
      const auto seed = info->seed(args.seed_scale);
      core::PbseOptions options;
      options.solver.shared_cache = ctx.shared_cache;
      core::PbseDriver driver(module, "main", options);
      core::CampaignOutcome out;
      if (!driver.prepare(seed)) {
        out.rows = {{name + ": prepare failed: no symbolic branches on the "
                            "seed\n"}};
        out.stats.add("cli.failed");
        return out;
      }
      char buf[256];
      std::snprintf(
          buf, sizeof buf,
          "%s concolic: %llu ticks, %zu phases (%u traps), %llu seedStates\n",
          name.c_str(), static_cast<unsigned long long>(driver.c_time_ticks()),
          driver.phases().phases.size(), driver.phases().num_trap_phases,
          static_cast<unsigned long long>(
              driver.stats().get("pbse.seed_states_kept")));
      std::string text = buf;
      if (args.budget > driver.clock().now())
        driver.run(args.budget - driver.clock().now());
      out.covered = driver.executor().num_covered();
      out.ticks = driver.clock().now();
      out.bugs = driver.executor().bugs().size();
      out.stats = driver.stats();
      std::snprintf(buf, sizeof buf,
                    "%s: covered %llu / %u blocks in %llu ticks\n",
                    name.c_str(), static_cast<unsigned long long>(out.covered),
                    module.total_blocks(),
                    static_cast<unsigned long long>(out.ticks));
      text += buf;
      out.rows = {{text + format_bugs(driver.executor())}};
      return out;
    }});
  }
  return run_campaigns(args, std::move(campaigns));
}

int cmd_concolic(const Args& args) {
  const auto* info = find_target(args.target);
  if (info == nullptr) return 1;
  ir::Module module = targets::build_target(info->source());
  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  vm::Executor executor(module, solver, clock, stats);
  const auto seed = info->seed(args.seed_scale);
  const auto result = concolic::run_concolic(executor, "main", seed);
  std::printf("%s: seed %zu bytes -> %llu instructions, %llu/%u blocks, "
              "%zu BBV intervals, %zu seedStates, %zu bug(s)\n",
              args.target.c_str(), seed.size(),
              static_cast<unsigned long long>(result.instructions),
              static_cast<unsigned long long>(executor.num_covered()),
              module.total_blocks(), result.bbvs.size(),
              result.seed_states.size(), executor.bugs().size());
  std::printf("%s", format_bugs(executor).c_str());
  return 0;
}

int cmd_phases(const Args& args) {
  const auto* info = find_target(args.target);
  if (info == nullptr) return 1;
  ir::Module module = targets::build_target(info->source());
  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  vm::Executor executor(module, solver, clock, stats);
  concolic::ConcolicOptions copts;
  copts.record_trace = false;
  const auto result =
      concolic::run_concolic(executor, "main", info->seed(args.seed_scale), copts);
  const auto analysis = phase::analyze_phases(result.bbvs);
  std::printf("%s: %zu intervals, k=%u -> %zu phases, %u trap(s)\n",
              args.target.c_str(), result.bbvs.size(), analysis.chosen_k,
              analysis.phases.size(), analysis.num_trap_phases);
  for (const auto& p : analysis.phases)
    std::printf("  phase %u%s: %zu intervals, first tick %llu, longest run "
                "%u\n",
                p.id, p.is_trap ? " [trap]" : "", p.intervals.size(),
                static_cast<unsigned long long>(p.first_ticks), p.longest_run);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  if (!args.trace_path.empty())
    pbse::obs::start_tracing_to_file(args.trace_path);
  int rc = 2;
  if (args.command == "list") rc = cmd_list();
  else if (args.command == "klee") rc = cmd_klee(args);
  else if (args.command == "run") rc = cmd_run(args);
  else if (args.command == "concolic") rc = cmd_concolic(args);
  else if (args.command == "phases") rc = cmd_phases(args);
  else return usage();
  pbse::obs::stop_tracing();
  return rc;
}
