// Target programs: every MiniC source compiles + verifies, every generated
// seed drives its target to a clean exit with no bug triggered (seeds are
// valid files), and the Fig 5 buggy seed concretely triggers the Fig 6
// CIELab out-of-bounds read.
#include <gtest/gtest.h>

#include "concolic/concolic_executor.h"
#include "solver/solver.h"
#include "targets/targets.h"
#include "vm/executor.h"

namespace pbse {
namespace {

struct ConcreteRun {
  vm::TerminationReason termination;
  std::size_t bugs;
  std::uint64_t covered;
  std::uint64_t instructions;
  std::size_t seed_states;
};

ConcreteRun run_seed(const ir::Module& module,
                     const std::vector<std::uint8_t>& seed) {
  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  vm::Executor executor(module, solver, clock, stats);
  concolic::ConcolicOptions options;
  options.record_trace = false;
  options.offpath_bug_checks = false;  // pure replay: no solver bugs
  auto result = run_concolic(executor, "main", seed, options);
  return ConcreteRun{result.termination, executor.bugs().size(),
                     executor.num_covered(), result.instructions,
                     result.seed_states.size()};
}

TEST(Targets, AllSourcesCompileAndVerify) {
  for (const auto& t : targets::all_targets()) {
    SCOPED_TRACE(t.driver);
    ir::Module module = targets::build_target(t.source());
    EXPECT_NE(module.function_by_name("main"), nullptr);
    EXPECT_GT(module.total_blocks(), 20u) << t.driver;
  }
}

TEST(Targets, SeedsRunCleanlyAndDeep) {
  for (const auto& t : targets::all_targets()) {
    SCOPED_TRACE(t.driver);
    ir::Module module = targets::build_target(t.source());
    const auto seed = t.seed(4);
    const ConcreteRun run = run_seed(module, seed);
    EXPECT_EQ(run.termination, vm::TerminationReason::kExit) << t.driver;
    EXPECT_EQ(run.bugs, 0u) << t.driver << ": valid seed must not crash";
    // A valid seed must reach deep phases: a healthy fraction of blocks.
    EXPECT_GT(run.covered, module.total_blocks() / 4) << t.driver;
    // And fork plenty of seedStates for pbSE to schedule.
    if (t.driver != "tcpdump") {
      EXPECT_GT(run.seed_states, 20u) << t.driver;
    }
  }
}

TEST(Targets, SeedsScaleInSize) {
  for (const auto& t : targets::all_targets()) {
    SCOPED_TRACE(t.driver);
    EXPECT_LT(t.seed(2).size(), t.seed(8).size());
  }
}

TEST(Targets, BuggyTiffSeedTriggersCIELabRead) {
  ir::Module module = targets::build_target(targets::tiff2rgba_source());
  const ConcreteRun good = run_seed(module, targets::make_mtif_seed(4));
  EXPECT_EQ(good.bugs, 0u);
  const ConcreteRun bad = run_seed(module, targets::make_mtif_buggy_seed());
  EXPECT_EQ(bad.bugs, 1u) << "Fig 5 buggy seed must hit the Fig 6 OOB read";
}

TEST(Targets, PngSeedExercisesAllChunkHandlers) {
  ir::Module module = targets::build_target(targets::pngtest_source());
  const ConcreteRun run = run_seed(module, targets::make_mpng_seed(4));
  EXPECT_EQ(run.termination, vm::TerminationReason::kExit);
  // IHDR + PLTE + tIME + tEXt + IDAT + IEND handlers all run: high coverage.
  EXPECT_GT(run.covered, module.total_blocks() / 2);
}

}  // namespace
}  // namespace pbse
