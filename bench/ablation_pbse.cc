// Ablations of pbSE design choices called out in DESIGN.md:
//   1. coverage element in the BBV featurization (Fig 4 quantified over
//      all targets): trap phases found with vs without;
//   2. trap-run threshold N (paper: 5% of intervals): sweep 2%..20%;
//   3. phase scheduling TimePeriod: coverage after a fixed budget for
//      several period settings;
//   4. seed scale: phase count and coverage as the seed grows.
// --only=SECTION runs one of them (coverage-element, trap-threshold,
// time-period, seed-scale); an unknown section is a usage error (exit 2).
#include <functional>
#include <utility>

#include "bench_common.h"
#include "concolic/concolic_executor.h"
#include "phase/phase_analysis.h"

using namespace pbse;
using namespace pbse::bench;

namespace {

concolic::ConcolicResult concolic_for(const ir::Module& module,
                                      const std::vector<std::uint8_t>& seed) {
  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  vm::Executor executor(module, solver, clock, stats);
  concolic::ConcolicOptions copts;
  copts.interval_ticks = 1024;
  copts.record_trace = false;
  return run_concolic(executor, "main", seed, copts);
}

void ablation_coverage_element() {
  print_header("Ablation 1: coverage element in BBVs (trap phases found)");
  TextTable table;
  table.header({"driver", "intervals", "traps BBV-only", "traps BBV+cov"});
  for (const auto& target : targets::all_targets()) {
    ir::Module module = targets::build_target(target.source());
    const auto concolic = concolic_for(module, target.seed(8));
    if (concolic.bbvs.empty()) continue;
    phase::PhaseOptions without;
    without.coverage_weight = 0.0;
    phase::PhaseOptions with;
    const auto a = phase::analyze_phases(concolic.bbvs, without);
    const auto b = phase::analyze_phases(concolic.bbvs, with);
    table.row({target.driver, std::to_string(concolic.bbvs.size()),
               std::to_string(a.num_trap_phases),
               std::to_string(b.num_trap_phases)});
  }
  std::printf("%s", table.render().c_str());
}

void ablation_trap_threshold() {
  print_header("Ablation 2: trap-run threshold N (fraction of intervals)");
  ir::Module module = build_by_driver("gif2tiff");
  const auto concolic = concolic_for(module, targets::make_mgif_seed(8));
  TextTable table;
  table.header({"threshold", "chosen k", "phases", "trap phases"});
  for (const double fraction : {0.02, 0.05, 0.10, 0.20}) {
    phase::PhaseOptions options;
    options.trap_run_fraction = fraction;
    const auto analysis = phase::analyze_phases(concolic.bbvs, options);
    table.row({fmt_percent(fraction), std::to_string(analysis.chosen_k),
               std::to_string(analysis.phases.size()),
               std::to_string(analysis.num_trap_phases)});
  }
  std::printf("%s", table.render().c_str());
}

void ablation_time_period(const BenchConfig& config) {
  print_header("Ablation 3: Algorithm 3 TimePeriod (coverage after budget)");
  ir::Module module = build_by_driver("readelf");
  const auto seed = targets::make_melf_seed(6);
  TextTable table;
  table.header({"TimePeriod (ticks)", "covered BBs", "bugs"});
  for (const std::uint64_t period : {5'000ull, 30'000ull, 120'000ull}) {
    core::PbseOptions options = config.pbse_options();
    options.time_period_ticks = period;
    core::PbseDriver driver(module, "main", options);
    if (!driver.prepare(seed)) continue;
    driver.run(config.hour10 - driver.clock().now());
    table.row({std::to_string(period),
               std::to_string(driver.executor().num_covered()),
               std::to_string(driver.executor().bugs().size())});
  }
  std::printf("%s", table.render().c_str());
}

void ablation_seed_scale(const BenchConfig& config) {
  print_header("Ablation 4: seed size vs phases and coverage (readelf)");
  ir::Module module = build_by_driver("readelf");
  TextTable table;
  table.header({"seed bytes", "c-time", "phases", "traps", "covered BBs"});
  for (const unsigned scale : {1u, 4u, 10u, 20u}) {
    const auto seed = targets::make_melf_seed(scale);
    core::PbseDriver driver(module, "main", config.pbse_options());
    if (!driver.prepare(seed)) continue;
    driver.run(config.hour1);
    table.row({std::to_string(seed.size()),
               std::to_string(driver.c_time_ticks()),
               std::to_string(driver.phases().phases.size()),
               std::to_string(driver.phases().num_trap_phases),
               std::to_string(driver.executor().num_covered())});
  }
  std::printf("%s", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = parse_args(argc, argv);
  const std::pair<const char*, std::function<void()>> sections[] = {
      {"coverage-element", ablation_coverage_element},
      {"trap-threshold", ablation_trap_threshold},
      {"time-period", [&config] { ablation_time_period(config); }},
      {"seed-scale", [&config] { ablation_seed_scale(config); }},
  };
  bool known = config.only.empty();
  for (const auto& [name, run] : sections) known |= config.only == name;
  if (!known) {
    std::fprintf(stderr, "%s: unknown --only=%s; sections:", argv[0],
                 config.only.c_str());
    for (const auto& [name, run] : sections) std::fprintf(stderr, " %s", name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  for (const auto& [name, run] : sections)
    if (config.only.empty() || config.only == name) run();
  return 0;
}
