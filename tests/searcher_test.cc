// Searchers and the engine loop: selection order, population tracking,
// PTree consistency, weighted-searcher preferences, engine stop predicate.
#include <gtest/gtest.h>

#include "ir/verifier.h"
#include "lang/codegen.h"
#include "searchers/engine.h"
#include "searchers/searcher.h"
#include "solver/solver.h"

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

// Binary tree of depth 5 over input bytes: 32 distinct paths.
constexpr const char* kTree = R"(
u32 main(u8* f, u32 size) {
  u32 path = 0;
  for (u32 i = 0; i < 5; ++i) {
    if (f[i] & 1) { path = path * 2 + 1; } else { path = path * 2; }
  }
  out(path);
  return 0;
}
)";

struct EngineFixture {
  explicit EngineFixture(const std::string& source,
                         search::SearcherKind kind)
      : module(compile(source)),
        executor(module, solver, clock, stats),
        searcher(search::make_searcher(kind, executor, rng)),
        engine(executor, *searcher) {
    auto input = std::make_shared<Array>("file", 8);
    engine.add_state(executor.make_initial_state("main", input, {}));
  }

  ir::Module module;
  VClock clock;
  Stats stats;
  Rng rng{7};
  Solver solver{clock, stats};
  vm::Executor executor;
  std::unique_ptr<search::Searcher> searcher;
  search::SymbolicEngine engine;
};

using SearcherSweep = ::testing::TestWithParam<search::SearcherKind>;

TEST_P(SearcherSweep, ExploresAllPathsOfSmallTree) {
  EngineFixture fx(kTree, GetParam());
  fx.engine.run(Deadline(fx.clock, 3'000'000));
  EXPECT_EQ(fx.engine.num_states(), 0u) << "all states must terminate";
  // All 32 paths produce distinct out() values 0..31.
  std::set<std::uint64_t> seen(fx.executor.out_log().begin(),
                               fx.executor.out_log().end());
  EXPECT_EQ(seen.size(), 32u)
      << search::searcher_kind_name(GetParam())
      << " must enumerate every path of the bounded tree";
  EXPECT_EQ(fx.executor.test_cases().size(), 32u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSearchers, SearcherSweep,
    ::testing::Values(search::SearcherKind::kDFS, search::SearcherKind::kBFS,
                      search::SearcherKind::kRandomState,
                      search::SearcherKind::kRandomPath,
                      search::SearcherKind::kCovNew,
                      search::SearcherKind::kMD2U,
                      search::SearcherKind::kDefault));

TEST(Searchers, NamesAndParsing) {
  for (const auto kind :
       {search::SearcherKind::kDFS, search::SearcherKind::kBFS,
        search::SearcherKind::kRandomState, search::SearcherKind::kRandomPath,
        search::SearcherKind::kCovNew, search::SearcherKind::kMD2U,
        search::SearcherKind::kDefault}) {
    search::SearcherKind parsed;
    ASSERT_TRUE(
        search::parse_searcher_kind(search::searcher_kind_name(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  search::SearcherKind parsed;
  EXPECT_FALSE(search::parse_searcher_kind("nonsense", parsed));
}

TEST(Searchers, DfsRunsNewestStateFirst) {
  // Forked children are newer than their parents, so DFS dives into the
  // off-model side at every branch: the first completed path flips every
  // bit (31), and the tree unwinds in descending order.
  EngineFixture dfs(kTree, search::SearcherKind::kDFS);
  dfs.engine.run(Deadline(dfs.clock, 3'000'000));
  const auto& outs = dfs.executor.out_log();
  ASSERT_GE(outs.size(), 2u);
  EXPECT_EQ(outs[0], 31u);
  EXPECT_EQ(outs[1], 30u);
}

TEST(Engine, ExtraStopPredicateInterruptsRun) {
  EngineFixture fx(kTree, search::SearcherKind::kDefault);
  int calls = 0;
  fx.engine.run(Deadline(fx.clock, 3'000'000), [&calls] {
    return ++calls > 3;
  });
  EXPECT_GT(fx.engine.num_states(), 0u) << "stopped before exhaustion";
}

TEST(Engine, DeadlineBoundsVirtualTime) {
  EngineFixture fx(kTree, search::SearcherKind::kDefault);
  fx.engine.run(Deadline(fx.clock, 500));
  EXPECT_LE(fx.clock.now(), 3000u)
      << "run must stop promptly after the deadline expires";
}

TEST(Engine, CovNewPrefersFreshStates) {
  // The covnew weight decays with insts_since_cov_new: a state that keeps
  // covering new code retains weight. Smoke-check that covnew finishes the
  // tree (selection remains productive) and touches every path.
  EngineFixture fx(kTree, search::SearcherKind::kCovNew);
  fx.engine.run(Deadline(fx.clock, 3'000'000));
  EXPECT_EQ(fx.engine.num_states(), 0u);
}

}  // namespace
}  // namespace pbse
