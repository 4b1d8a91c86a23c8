// Concolic execution (Algorithm 2): lockstep fidelity, BBV gathering,
// seedState recording and their constraint semantics.
#include <gtest/gtest.h>

#include "concolic/concolic_executor.h"
#include "ir/verifier.h"
#include "lang/codegen.h"
#include "solver/solver.h"
#include "vm/executor.h"

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

constexpr const char* kLoopy = R"(
u32 main(u8* f, u32 size) {
  u32 n = (u32)f[0];
  u32 sum = 0;
  for (u32 i = 0; i < n && i < 32; ++i) {
    sum += (u32)f[1 + i];
  }
  out(sum);
  if (f[0] == 9 && f[1] == 7) { out(0xBEEF); }
  return 0;
}
)";

struct Fixture {
  explicit Fixture(const std::string& source) : module(compile(source)),
        executor(module, solver, clock, stats) {}
  ir::Module module;
  VClock clock;
  Stats stats;
  Solver solver{clock, stats};
  vm::Executor executor;
};

TEST(Concolic, FollowsSeedExactly) {
  Fixture fx(kLoopy);
  const std::vector<std::uint8_t> seed = {3, 10, 20, 30, 40};
  const auto result = concolic::run_concolic(fx.executor, "main", seed);
  EXPECT_EQ(result.termination, vm::TerminationReason::kExit);
  ASSERT_FALSE(fx.executor.out_log().empty());
  EXPECT_EQ(fx.executor.out_log()[0], 60u) << "sum of 3 bytes after f[0]";
  EXPECT_EQ(fx.executor.bugs().size(), 0u);
}

TEST(Concolic, UsesNoSolver) {
  Fixture fx(kLoopy);
  concolic::run_concolic(fx.executor, "main", {5, 1, 2, 3, 4, 5, 6});
  EXPECT_EQ(fx.stats.get("solver.queries"), 0u)
      << "Algorithm 2 performs no feasibility queries";
}

TEST(Concolic, SeedStatesFlipTheFollowedBranch) {
  Fixture fx(kLoopy);
  const std::vector<std::uint8_t> seed = {2, 5, 5, 0, 0};
  auto result = concolic::run_concolic(fx.executor, "main", seed);
  ASSERT_FALSE(result.seed_states.empty());

  Assignment seed_assignment;
  seed_assignment.set(result.input_array, seed);
  for (const auto& record : result.seed_states) {
    // Every seedState's newest constraint contradicts the seed: the seed
    // CANNOT satisfy the full set (it went the other way). Algorithm 2
    // records ONLY these flipped states — a seed-following snapshot would
    // satisfy its whole constraint set and fail this check.
    const auto& constraints = record.state->constraints.constraints();
    ASSERT_FALSE(constraints.empty());
    bool all = true;
    for (const auto& c : constraints)
      all = all && evaluate_bool(c, seed_assignment);
    EXPECT_FALSE(all) << "seedState must diverge from the seed path";
  }
}

TEST(Concolic, SeedStatesDedupedByForkPoint) {
  Fixture fx(kLoopy);
  // n = 8: the loop guard forks at the same site every iteration; only the
  // earliest is recorded (paper Sec. III-B3).
  auto result = concolic::run_concolic(fx.executor, "main",
                                       {8, 1, 1, 1, 1, 1, 1, 1, 1, 1});
  std::set<std::pair<std::uint32_t, std::uint32_t>> points;
  for (const auto& record : result.seed_states) {
    const auto point = std::make_pair(record.fork_bb, record.fork_inst);
    EXPECT_TRUE(points.insert(point).second)
        << "duplicate seedState for one fork point";
  }
  // kLoopy has exactly four symbolic fork points on this seed: the loop
  // guard `i < n`, its materialized `&&` re-branch in and.end, the
  // `f[0] == 9` test, and ITS and.end re-branch. One seedState per
  // distinct fork point — the both-directions regression doubles this.
  EXPECT_EQ(result.seed_states.size(), 4u);
  // The guard re-forks on every one of the 8 remaining iterations plus the
  // exit test; all but the first encounter dedup away.
  EXPECT_GT(fx.stats.get("concolic.seed_states_deduped"), 0u);
  EXPECT_EQ(result.seed_states.size() +
                fx.stats.get("concolic.seed_states_deduped"),
            fx.stats.get("concolic.symbolic_branches"));
}

TEST(Concolic, SeedStatesAllUnsatisfiableUnderSeed) {
  // Regression guard for the both-directions bug: EVERY recorded seedState
  // (across a seed that exercises loops and nested conditions) must be
  // unsatisfiable under the seed assignment, and there must be exactly one
  // per distinct fork point.
  Fixture fx(kLoopy);
  const std::vector<std::uint8_t> seed = {9, 7, 3, 0, 0, 0, 0, 0, 0, 0, 0};
  auto result = concolic::run_concolic(fx.executor, "main", seed);
  ASSERT_FALSE(result.seed_states.empty());

  Assignment seed_assignment;
  seed_assignment.set(result.input_array, seed);
  std::set<std::pair<std::uint32_t, std::uint32_t>> points;
  for (const auto& record : result.seed_states) {
    points.insert({record.fork_bb, record.fork_inst});
    bool all = true;
    for (const auto& c : record.state->constraints.constraints())
      all = all && evaluate_bool(c, seed_assignment);
    EXPECT_FALSE(all) << "seed-side snapshot leaked into seedStates";
  }
  EXPECT_EQ(points.size(), result.seed_states.size())
      << "seedStates must be deduplicated on the fork point alone";
  // f[0] == 9 here, so the `f[1] == 7` arm IS reached (it feeds the second
  // and.end re-branch): loop guard + its and.end + `f[0] == 9` + its
  // and.end — four distinct fork points, recorded exactly once each.
  EXPECT_EQ(result.seed_states.size(), 4u);
}

TEST(Concolic, BBVsPartitionTheExecution) {
  Fixture fx(kLoopy);
  concolic::ConcolicOptions options;
  options.interval_ticks = 64;
  auto result = concolic::run_concolic(fx.executor, "main",
                                       {32, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                        1, 2, 3, 4, 5, 6, 7, 8, 9, 0,
                                        1, 2, 3, 4, 5, 6, 7, 8, 9, 0,
                                        1, 2, 3},
                                       options);
  ASSERT_GT(result.bbvs.size(), 2u);
  // Intervals tile time without overlap and in order.
  for (std::size_t i = 1; i < result.bbvs.size(); ++i) {
    EXPECT_EQ(result.bbvs[i - 1].end_ticks, result.bbvs[i].start_ticks);
    EXPECT_LE(result.bbvs[i].start_ticks, result.bbvs[i].end_ticks);
  }
  // Total BBV entries == trace length (every block entry is counted once).
  std::uint64_t entries = 0;
  for (const auto& bbv : result.bbvs) entries += bbv.total_entries();
  EXPECT_EQ(entries, result.trace.size());
  // Coverage element is a monotone fraction in [0, 1].
  double last = 0;
  for (const auto& bbv : result.bbvs) {
    EXPECT_GE(bbv.coverage, last);
    EXPECT_LE(bbv.coverage, 1.0);
    last = bbv.coverage;
  }
}

TEST(Concolic, TraceTimesAreMonotonic) {
  Fixture fx(kLoopy);
  auto result =
      concolic::run_concolic(fx.executor, "main", {4, 1, 2, 3, 4, 5});
  for (std::size_t i = 1; i < result.trace.size(); ++i)
    EXPECT_LE(result.trace[i - 1].first, result.trace[i].first);
}

TEST(Concolic, BugOnSeedPathIsReported) {
  Fixture fx(R"(
    u8 small[2];
    u32 main(u8* f, u32 size) {
      small[f[0]] = 1;
      return 0;
    })");
  concolic::run_concolic(fx.executor, "main", {9});
  ASSERT_EQ(fx.executor.bugs().size(), 1u);
  EXPECT_EQ(fx.executor.bugs()[0].kind, vm::BugKind::kOutOfBoundsWrite);
}

TEST(Concolic, FeaturizeNormalizesRows) {
  Fixture fx(kLoopy);
  concolic::ConcolicOptions options;
  options.interval_ticks = 64;
  auto result = concolic::run_concolic(
      fx.executor, "main", {16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 6, 7},
      options);
  const auto points = concolic::featurize_bbvs(result.bbvs, 0.0);
  for (const auto& p : points) {
    double l1 = 0;
    for (double v : p) l1 += v;
    if (l1 > 0) {
      EXPECT_NEAR(l1, 1.0, 1e-9);
    }
  }
  // With the coverage element the rows get one extra dimension.
  const auto with_cov = concolic::featurize_bbvs(result.bbvs, 2.0);
  ASSERT_FALSE(with_cov.empty());
  EXPECT_EQ(with_cov[0].size(), points[0].size() + 1);
}

}  // namespace
}  // namespace pbse
