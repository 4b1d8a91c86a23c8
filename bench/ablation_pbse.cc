// Ablations of pbSE design choices called out in DESIGN.md:
//   1. coverage element in the BBV featurization (Fig 4 quantified over
//      all targets): trap phases found with vs without;
//   2. trap-run threshold N (paper: 5% of intervals): sweep 2%..20%;
//   3. phase scheduling TimePeriod: coverage after a fixed budget for
//      several period settings;
//   4. seed scale: phase count and coverage as the seed grows.
//   5. interpolant subsumption (DESIGN.md §10): pbSE and KLEE with
//      pruning on vs off; fails (exit 1) if pruning loses coverage.
//      Writes BENCH_ablation_subsumption.json so check.sh can pin both
//      modes against a committed golden. --only=subsumption runs just
//      this section.
#include "bench_common.h"
#include "bench_json.h"
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

int ablation_subsumption(const BenchConfig& config) {
  print_header("Ablation 5: interpolant subsumption");
  // (pbSE, KLEE-default) campaign pairs on readelf, pruning on vs off. An
  // off campaign IS the pre-subsumption engine (no probes, zero tick
  // deltas), so pinning its covered/ticks numbers
  // against a committed golden proves the off path didn't drift; each on
  // campaign must cover at least as much as its off twin — pruning may
  // trade explored states for ticks but never covered blocks.
  const auto seed = targets::make_melf_seed(6);
  std::vector<core::Campaign> campaigns;
  for (const bool pruning : {true, false}) {
    const char* suffix = pruning ? "on" : "off";
    campaigns.push_back(
        {std::string("pbse-") + suffix,
         [pruning, &seed, &config](const core::CampaignContext& ctx) {
           ir::Module module = build_by_driver("readelf");
           core::PbseOptions options = config.pbse_options(ctx);
           options.executor.use_subsumption = pruning && config.subsumption;
           core::PbseDriver driver(module, "main", options);
           core::CampaignOutcome out;
           if (!driver.prepare(seed)) return out;
           driver.run(config.hour10 - driver.clock().now());
           out.covered = driver.executor().num_covered();
           out.ticks = driver.clock().now();
           out.bugs = driver.executor().bugs().size();
           out.stats = driver.stats();
           return out;
         }});
    // A plain KLEE campaign alongside pbSE: barren subsumption mostly bites
    // in long searcher-driven symbolic runs, so the gate should watch one.
    campaigns.push_back(
        {std::string("klee-default-") + suffix,
         [pruning, &config](const core::CampaignContext& ctx) {
           ir::Module module = build_by_driver("readelf");
           core::KleeRunOptions options = config.klee_options(ctx);
           options.sym_file_size = 100;
           options.executor.use_subsumption = pruning && config.subsumption;
           core::KleeRun run(module, "main", options);
           run.run(config.hour10);
           core::CampaignOutcome out;
           out.covered = run.executor().num_covered();
           out.ticks = run.clock().now();
           out.bugs = run.executor().bugs().size();
           out.stats = run.stats();
           return out;
         }});
  }
  core::ParallelCampaignRunner runner(config.parallel());
  const auto outcomes = runner.run(campaigns);

  std::uint64_t kills = 0, explored = 0;
  TextTable table;
  table.header({"campaign", "covered BBs", "ticks", "pruned", "explored"});
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const core::CampaignOutcome& o = outcomes[i];
    const std::uint64_t k = o.stats.get("executor.subsumed_barren");
    const std::uint64_t e =
        o.stats.get("executor.forks") + o.stats.get("concolic.seed_states");
    if (o.name.size() > 3 && o.name.rfind("-on") == o.name.size() - 3) {
      kills += k;
      explored += e;
    }
    table.row({o.name, std::to_string(o.covered), std::to_string(o.ticks),
               std::to_string(k), std::to_string(e)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("pruned fraction: %.1f%% of explored states (on campaigns)\n",
              explored > 0 ? 100.0 * static_cast<double>(kills) /
                                 static_cast<double>(explored)
                           : 0.0);

  write_bench_json("BENCH_ablation_subsumption.json", "ablation_subsumption",
                   config.jobs, config.share_cache, runner, outcomes);

  // Campaigns come in (on, off) pairs per driver: pruning may never lose
  // covered blocks on the gate workload.
  int rc = 0;
  for (std::size_t i = 0; i + 2 < outcomes.size(); i += 1) {
    if (outcomes[i].name.rfind("-on") == outcomes[i].name.size() - 3) {
      const core::CampaignOutcome& off = outcomes[i + 2];
      if (outcomes[i].covered < off.covered) {
        std::fprintf(stderr, "FAIL: %s covered %llu < %s %llu\n",
                     outcomes[i].name.c_str(),
                     static_cast<unsigned long long>(outcomes[i].covered),
                     off.name.c_str(),
                     static_cast<unsigned long long>(off.covered));
        rc = 1;
      }
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = parse_args(argc, argv);
  const auto want = [&config](const char* section) {
    return config.only.empty() || config.only == section;
  };
  if (want("coverage-element")) ablation_coverage_element();
  if (want("trap-threshold")) ablation_trap_threshold();
  if (want("time-period")) ablation_time_period(config);
  if (want("seed-scale")) ablation_seed_scale(config);
  return want("subsumption") ? ablation_subsumption(config) : 0;
}
