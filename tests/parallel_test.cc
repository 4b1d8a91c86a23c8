// Parallel campaign infrastructure: the sharded shared solver cache and
// the campaign runner — including the determinism contract (a campaign's
// results are identical at any --jobs level when cache sharing is off).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "core/driver.h"
#include "core/parallel.h"
#include "solver/cache.h"
#include "targets/targets.h"

namespace pbse {
namespace {

// --- ShardedQueryCache ------------------------------------------------------

TEST(ShardedCache, UnsatRoundTripsByKey) {
  ShardedQueryCache cache(4);
  cache.insert(0x1234, QueryCache::Entry{SolverResult::kUnsat, {}});
  const auto hit = cache.lookup(0x1234, {});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result, SolverResult::kUnsat);
  EXPECT_FALSE(cache.lookup(0x9999, {}).has_value());
  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedCache, SatModelRemapsOntoSameShapeArrays) {
  ShardedQueryCache cache(4);
  // Producer campaign: array "f" of size 8, model f[0]=5 satisfying
  // f[0] == 5. The consumer has its OWN ArrayRef with the same name+size.
  auto producer_arr = std::make_shared<Array>("f", 8);
  QueryCache::Entry entry;
  entry.result = SolverResult::kSat;
  entry.model.push_back({producer_arr, std::vector<std::uint8_t>(8, 0)});
  entry.model.back().second[0] = 5;
  cache.insert(42, entry);

  auto consumer_arr = std::make_shared<Array>("f", 8);
  const ExprRef c = mk_eq(mk_read(consumer_arr, 0), mk_const(5, 8));
  const auto hit = cache.lookup(42, {c});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result, SolverResult::kSat);
  ASSERT_EQ(hit->model.size(), 1u);
  // The returned model must reference the CONSUMER's array object.
  EXPECT_EQ(hit->model[0].first.get(), consumer_arr.get());
  EXPECT_EQ(hit->model[0].second[0], 5);
}

TEST(ShardedCache, StaleSatModelCountsAsMiss) {
  ShardedQueryCache cache(4);
  auto producer_arr = std::make_shared<Array>("f", 8);
  QueryCache::Entry entry;
  entry.result = SolverResult::kSat;
  entry.model.push_back({producer_arr, std::vector<std::uint8_t>(8, 0)});
  cache.insert(42, entry);  // model has f[0] == 0

  auto consumer_arr = std::make_shared<Array>("f", 8);
  const ExprRef c = mk_eq(mk_read(consumer_arr, 0), mk_const(5, 8));
  // Key collision with a model that does not satisfy the constraints:
  // must be reported as a miss, never a wrong SAT.
  EXPECT_FALSE(cache.lookup(42, {c}).has_value());
  EXPECT_EQ(cache.counters().misses, 1u);
}

TEST(ShardedCache, ConcurrentInsertLookupIsConsistent) {
  ShardedQueryCache cache(8);
  constexpr int kThreads = 4;
  constexpr int kKeys = 256;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> observed_hits{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &observed_hits] {
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        // Spread keys across shards (shard index uses the high bits).
        const std::uint64_t key = k << 48 | k;
        cache.insert(key, QueryCache::Entry{SolverResult::kUnsat, {}});
        const auto hit = cache.lookup(key, {});
        ASSERT_TRUE(hit.has_value());
        ASSERT_EQ(hit->result, SolverResult::kUnsat);
        ++observed_hits;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(cache.counters().hits, observed_hits.load());
  EXPECT_EQ(cache.counters().misses, 0u);
}

// --- ParallelCampaignRunner -------------------------------------------------

TEST(ParallelRunner, OutcomesInCampaignOrderWithAggregateStats) {
  core::ParallelOptions options;
  options.jobs = 2;
  core::ParallelCampaignRunner runner(options);
  std::vector<core::Campaign> campaigns;
  for (int i = 0; i < 6; ++i) {
    campaigns.push_back({"c" + std::to_string(i),
                         [i](const core::CampaignContext& ctx) {
      EXPECT_EQ(ctx.index, static_cast<std::size_t>(i));
      EXPECT_NE(ctx.shared_cache, nullptr);
      core::CampaignOutcome out;
      out.covered = static_cast<std::uint64_t>(i);
      out.stats.add("campaign.work", 10);
      return out;
    }});
  }
  const auto outcomes = runner.run(campaigns);
  ASSERT_EQ(outcomes.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(outcomes[i].name, "c" + std::to_string(i));
    EXPECT_EQ(outcomes[i].covered, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(runner.aggregate_stats().get("campaign.work"), 60u);
  EXPECT_EQ(runner.aggregate_stats().get("parallel.campaigns"), 6u);
  EXPECT_GE(runner.wall_seconds(), 0.0);
}

TEST(ParallelRunner, FirstCampaignExceptionWinsAndOthersSettle) {
  core::ParallelOptions options;
  options.jobs = 2;
  core::ParallelCampaignRunner runner(options);
  std::atomic<int> settled{0};
  std::vector<core::Campaign> campaigns;
  campaigns.push_back({"ok", [&settled](const core::CampaignContext&) {
    ++settled;
    return core::CampaignOutcome{};
  }});
  campaigns.push_back({"bad1", [](const core::CampaignContext&)
                                   -> core::CampaignOutcome {
    throw std::logic_error("bad1");
  }});
  campaigns.push_back({"bad2", [](const core::CampaignContext&)
                                   -> core::CampaignOutcome {
    throw std::runtime_error("bad2");
  }});
  campaigns.push_back({"ok2", [&settled](const core::CampaignContext&) {
    ++settled;
    return core::CampaignOutcome{};
  }});
  EXPECT_THROW(runner.run(campaigns), std::logic_error);
  EXPECT_EQ(settled.load(), 2);
}

TEST(ParallelRunner, NoSharedCacheWhenSharingDisabled) {
  core::ParallelOptions options;
  options.share_solver_cache = false;
  core::ParallelCampaignRunner runner(options);
  std::vector<core::Campaign> campaigns;
  campaigns.push_back({"c", [](const core::CampaignContext& ctx) {
    EXPECT_EQ(ctx.shared_cache, nullptr);
    return core::CampaignOutcome{};
  }});
  runner.run(campaigns);
  EXPECT_EQ(runner.aggregate_stats().get("cache.shared_hits"), 0u);
}

TEST(ParallelRunner, SingleJobRunsInlineOnCallingThread) {
  core::ParallelOptions options;
  options.jobs = 1;
  core::ParallelCampaignRunner runner(options);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::vector<core::Campaign> campaigns;
  for (int i = 0; i < 3; ++i) {
    campaigns.push_back({"c" + std::to_string(i),
                         [caller, &order](const core::CampaignContext& ctx) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(ctx.index);
      return core::CampaignOutcome{};
    }});
  }
  runner.run(campaigns);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ParallelRunner, MoreJobsThanCampaignsReturnsEveryOutcomeInOrder) {
  core::ParallelOptions options;
  options.jobs = 4;
  core::ParallelCampaignRunner runner(options);
  std::vector<core::Campaign> campaigns;
  for (int i = 0; i < 2; ++i) {
    campaigns.push_back({"c" + std::to_string(i),
                         [i](const core::CampaignContext&) {
      core::CampaignOutcome out;
      out.covered = static_cast<std::uint64_t>(10 + i);
      return out;
    }});
  }
  const auto outcomes = runner.run(campaigns);
  ASSERT_EQ(outcomes.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(outcomes[i].name, "c" + std::to_string(i));
    EXPECT_EQ(outcomes[i].covered, static_cast<std::uint64_t>(10 + i));
  }
  EXPECT_EQ(runner.aggregate_stats().get("parallel.campaigns"), 2u);
}

// --- Determinism ------------------------------------------------------------

// The tentpole's correctness contract: each campaign owns its VClock /
// Stats / Executor and interns expressions thread-locally, so with cache
// sharing OFF a parallel run covers exactly what the serial run covers,
// tick for tick.
TEST(ParallelRunner, TwoJobCampaignsMatchSerialBitForBit) {
  const auto run_campaigns = [](unsigned jobs) {
    core::ParallelOptions options;
    options.jobs = jobs;
    options.share_solver_cache = false;
    core::ParallelCampaignRunner runner(options);
    std::vector<core::Campaign> campaigns;
    for (const char* driver : {"pngtest", "readelf"}) {
      campaigns.push_back({driver, [driver](const core::CampaignContext&) {
        const targets::TargetInfo* info = nullptr;
        for (const auto& t : targets::all_targets())
          if (t.driver == driver) info = &t;
        ir::Module module = targets::build_target(info->source());
        core::KleeRunOptions options;
        options.sym_file_size = 32;
        core::KleeRun run(module, "main", options);
        run.run(60'000);
        core::CampaignOutcome out;
        out.covered = run.executor().num_covered();
        out.ticks = run.clock().now();
        out.stats = run.stats();
        return out;
      }});
    }
    return runner.run(campaigns);
  };

  const auto serial = run_campaigns(1);
  const auto parallel = run_campaigns(2);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].covered, parallel[i].covered) << serial[i].name;
    EXPECT_EQ(serial[i].ticks, parallel[i].ticks) << serial[i].name;
    EXPECT_EQ(serial[i].stats.all(), parallel[i].stats.all())
        << serial[i].name;
  }
}

// Sharing ON with one job must still be sound: a second campaign on the
// same target re-uses the first campaign's solved queries and reaches the
// same coverage (hits change tick accounting, never soundness).
TEST(ParallelRunner, SharedCacheReuseKeepsCoverage) {
  core::ParallelOptions options;
  options.jobs = 1;
  core::ParallelCampaignRunner runner(options);
  const auto body = [](const core::CampaignContext& ctx) {
    ir::Module module = targets::build_target(
        targets::all_targets().front().source());
    core::KleeRunOptions options;
    options.sym_file_size = 32;
    options.solver.shared_cache = ctx.shared_cache;
    core::KleeRun run(module, "main", options);
    run.run(40'000);
    core::CampaignOutcome out;
    out.covered = run.executor().num_covered();
    out.stats = run.stats();
    return out;
  };
  const auto outcomes =
      runner.run({{"first", body}, {"second", body}});
  EXPECT_EQ(outcomes[0].covered, outcomes[1].covered);
  // The second campaign must actually have hit the shared cache.
  EXPECT_GT(outcomes[1].stats.get("solver.shared_cache_hits"), 0u);
  EXPECT_GT(runner.aggregate_stats().get("cache.shared_hits"), 0u);
}

}  // namespace
}  // namespace pbse
