// pbSE core: seed selection heuristic, the PbseDriver pipeline
// (Algorithm 1), the phase scheduler (Algorithm 3), and KleeRun.
#include <gtest/gtest.h>

#include "core/driver.h"
#include "core/seed_select.h"
#include "expr/node_map.h"
#include "ir/verifier.h"
#include "lang/codegen.h"
#include "serialize/campaign_codec.h"
#include "targets/targets.h"

namespace pbse {
namespace {

ir::Module compile(const std::string& source) {
  ir::Module module;
  std::string error;
  if (!minic::compile(source, module, error))
    ADD_FAILURE() << "compile error: " << error;
  module.finalize();
  return module;
}

// A three-stage pipeline program (the structure pbSE targets): stage
// boundaries are guarded by values read from the input, and the deepest
// stage hides a bug.
constexpr const char* kPipeline = R"(
u8 table[4] = { 1, 2, 3, 4 };
u32 main(u8* f, u32 size) {
  if (size < 8) { return 1; }
  if (f[0] != 'P' || f[1] != '1') { return 2; }
  // Stage 1: header loop ending on a count from the input.
  u32 n = (u32)f[2];
  u32 sum = 0;
  for (u32 i = 0; i < n; ++i) {
    if (3 + i >= size) { return 3; }
    sum += (u32)f[3 + i];
  }
  out(sum);
  // Stage 2: records.
  u32 off = 3 + n;
  u32 records = 0;
  while (off + 2 <= size) {
    u32 kind = (u32)f[off];
    u32 value = (u32)f[off + 1];
    off += 2;
    if (kind == 0) { break; }
    if (kind == 3) {
      out(table[value]);     // <-- OOB read when value > 3 (deep stage)
    }
    records += 1;
  }
  out(records);
  return 0;
}
)";

std::vector<std::uint8_t> pipeline_seed() {
  //            P    1  n=3 [ 3 payload ] k  v   k  v   end
  return {'P', '1', 3, 10, 20, 30, 3, 1, 3, 2, 0, 0};
}

TEST(SeedSelect, PicksBestCoverageAmongTenSmallest) {
  ir::Module module = compile(kPipeline);
  std::vector<std::vector<std::uint8_t>> seeds;
  seeds.push_back({'X'});                       // tiny, bad magic
  seeds.push_back(pipeline_seed());             // good
  seeds.push_back({'P', '1', 0, 0});            // valid but shallow
  std::vector<std::uint8_t> huge(4096, 0);      // large, bad
  seeds.push_back(huge);
  std::vector<core::SeedScore> scores;
  const std::size_t chosen = core::select_seed(module, "main", seeds, &scores);
  EXPECT_EQ(chosen, 1u);
  EXPECT_EQ(scores.size(), 4u);
}

TEST(SeedSelect, OnlyTenSmallestAreMeasured) {
  ir::Module module = compile(kPipeline);
  std::vector<std::vector<std::uint8_t>> seeds;
  for (unsigned i = 0; i < 14; ++i)
    seeds.push_back(std::vector<std::uint8_t>(10 + i, 0));
  // The one good seed is the LARGEST: it must NOT be considered.
  auto good = pipeline_seed();
  good.resize(200, 0);
  seeds.push_back(good);
  std::vector<core::SeedScore> scores;
  const std::size_t chosen = core::select_seed(module, "main", seeds, &scores);
  EXPECT_EQ(scores.size(), 10u);
  EXPECT_NE(chosen, seeds.size() - 1)
      << "the paper's heuristic only looks at the 10 smallest seeds";
}

TEST(PbseDriver, PrepareProducesPhasesAndSeedStates) {
  ir::Module module = compile(kPipeline);
  core::PbseDriver driver(module, "main");
  ASSERT_TRUE(driver.prepare(pipeline_seed()));
  EXPECT_GT(driver.c_time_ticks(), 0u);
  EXPECT_GT(driver.p_time_ticks(), 0u);
  EXPECT_FALSE(driver.phases().phases.empty());
  std::size_t total_seed_states = 0;
  for (const auto& list : driver.phase_seed_states())
    total_seed_states += list.size();
  EXPECT_GT(total_seed_states, 0u);
}

// Every seedState of a campaign carries the seed's model. Validating them
// on one evaluator walks the path prefix they share once: each seedState
// adds memo entries only for the nodes no earlier seedState reached. Both
// a prepared driver and a driver restored from its snapshot validate this
// way; their pending seedStates are checked in activation order.
TEST(PbseDriver, SeedStatesValidateTheirSharedPrefixOnce) {
  const ir::Module module = targets::build_target(targets::readelf_source());
  const std::vector<std::uint8_t> seed = targets::make_melf_seed(4);
  core::PbseDriver warm(module, "main");
  ASSERT_TRUE(warm.prepare(seed));
  core::PbseDriver restored(module, "main");
  ASSERT_TRUE(restored.prepare(seed));
  serialize::CampaignCodec::restore(restored,
                                    serialize::CampaignCodec::snapshot(warm));

  for (core::PbseDriver* driver : {&warm, &restored}) {
    SCOPED_TRACE(driver == &warm ? "warm" : "restored");
    const std::vector<const vm::ExecutionState*> pending = driver->states();
    ASSERT_GE(pending.size(), 20u);
    NodeMap<bool> reached;  // nodes under an earlier seedState's path
    std::size_t path_nodes = 0, fresh_nodes = 0;
    const CachingEvaluator* shared = nullptr;
    for (const vm::ExecutionState* s : pending) {
      auto state = std::make_unique<vm::ExecutionState>(*s);
      std::size_t fresh = 0;
      NodeMap<bool> in_path;
      std::vector<const Expr*> stack;
      for (const ExprRef& c : state->constraints.constraints())
        stack.push_back(c.get());
      while (!stack.empty()) {
        const Expr* e = stack.back();
        stack.pop_back();
        if (!in_path.insert(e, true)) continue;
        ++path_nodes;
        if (reached.insert(e, true)) ++fresh;
        for (std::size_t i = 0; i < e->num_kids(); ++i)
          stack.push_back(e->kid(i).get());
      }
      fresh_nodes += fresh;
      const std::size_t before = shared != nullptr ? shared->memo_size() : 0;
      driver->executor().validate_model(*state);
      ASSERT_NE(state->model_eval, nullptr);
      if (shared == nullptr) shared = state->model_eval.get();
      ASSERT_EQ(state->model_eval.get(), shared);
      EXPECT_EQ(shared->memo_size() - before, fresh);
    }
    // Non-vacuity: the paths do share most of their nodes.
    EXPECT_LT(2 * fresh_nodes, path_nodes);
  }
}

TEST(PbseDriver, FindsTheDeepBugAndTagsItsPhase) {
  ir::Module module = compile(kPipeline);
  core::PbseDriver driver(module, "main");
  ASSERT_TRUE(driver.prepare(pipeline_seed()));
  driver.run(500'000);
  ASSERT_GE(driver.executor().bugs().size(), 1u);
  const auto& bugs = driver.executor().bugs();
  bool oob = false;
  for (std::size_t i = 0; i < bugs.size(); ++i) {
    if (bugs[i].kind == vm::BugKind::kOutOfBoundsRead) {
      oob = true;
      // Bug found during phase scheduling gets a valid phase id.
      ASSERT_LT(i, driver.bug_phases().size());
    }
  }
  EXPECT_TRUE(oob);
  EXPECT_EQ(driver.bug_phases().size(), bugs.size());
}

TEST(PbseDriver, PrepareFailsOnConstantProgram) {
  ir::Module module = compile(R"(
    u32 main(u8* f, u32 size) { out(1); return 0; }
  )");
  core::PbseDriver driver(module, "main");
  EXPECT_FALSE(driver.prepare({1, 2, 3}))
      << "no symbolic branches -> nothing to schedule";
}

TEST(PbseDriver, CoverageBeatsOrMatchesConcolicAlone) {
  ir::Module module = compile(kPipeline);
  core::PbseDriver driver(module, "main");
  ASSERT_TRUE(driver.prepare(pipeline_seed()));
  const std::uint64_t after_concolic = driver.executor().num_covered();
  driver.run(500'000);
  EXPECT_GT(driver.executor().num_covered(), after_concolic)
      << "phase scheduling must add coverage beyond the seed path";
}

TEST(KleeRun, ResumableBudgets) {
  ir::Module module = compile(kPipeline);
  core::KleeRunOptions options;
  options.sym_file_size = 16;
  core::KleeRun run(module, "main", options);
  run.run(20'000);
  const auto c1 = run.executor().num_covered();
  run.run(500'000);
  const auto c2 = run.executor().num_covered();
  EXPECT_GE(c2, c1);
  EXPECT_GT(c2, 0u);
}

// A KLEE baseline campaign on pngtest runs its whole budget: the first
// exhausted paths must not end the campaign while forked states remain.
// (A heuristic that pruned states by the entry prefixes of dead paths once
// ended these runs after about 900 ticks, with no state left and 41 of 287
// blocks covered.)
TEST(KleeRun, CampaignsOffReadelfRunToTheirBudget) {
  ir::Module module = targets::build_target(targets::pngtest_source());
  for (const search::SearcherKind kind :
       {search::SearcherKind::kDefault, search::SearcherKind::kRandomPath,
        search::SearcherKind::kCovNew}) {
    core::KleeRunOptions options;
    options.searcher = kind;
    options.sym_file_size = 100;
    core::KleeRun run(module, "main", options);
    run.run(100'000);
    const char* name = search::searcher_kind_name(kind);
    EXPECT_GE(run.clock().now(), 100'000u) << name;
    EXPECT_GT(run.num_states(), 0u) << name;
    EXPECT_GT(run.executor().num_covered(), 41u) << name;
  }
}

TEST(PbseTesting, EndToEndEntryPoint) {
  ir::Module module = compile(kPipeline);
  std::vector<std::vector<std::uint8_t>> seeds = {pipeline_seed(),
                                                  {'P', '1', 0, 0}};
  const auto result = core::pbse_testing(module, "main", seeds, 500'000);
  ASSERT_NE(result.driver, nullptr);
  EXPECT_EQ(result.chosen_seed_index, 0u);
  EXPECT_GT(result.driver->executor().num_covered(), 10u);
}

TEST(PbseDriver, TimePeriodGrowsAcrossTurns) {
  // Indirect check of Algorithm 3's turn structure: with a tiny TimePeriod
  // the driver still terminates and visits every phase (no starvation).
  ir::Module module = compile(kPipeline);
  core::PbseOptions options;
  options.time_period_ticks = 500;
  options.no_new_cover_window = 200;
  core::PbseDriver driver(module, "main", options);
  ASSERT_TRUE(driver.prepare(pipeline_seed()));
  driver.run(300'000);
  EXPECT_GT(driver.executor().num_covered(), 10u);
}

}  // namespace
}  // namespace pbse
