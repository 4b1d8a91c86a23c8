// Support library: virtual clock/deadlines, deterministic RNG, stats,
// and the table renderer.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "support/argparse.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/vclock.h"

namespace pbse {
namespace {

TEST(VClock, AdvancesMonotonically) {
  VClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance(5);
  clock.advance(7);
  EXPECT_EQ(clock.now(), 12u);
  clock.reset();
  EXPECT_EQ(clock.now(), 0u);
}

TEST(VClock, DeadlineSemantics) {
  VClock clock;
  Deadline never;  // default: never expires
  EXPECT_FALSE(never.expired());

  Deadline soon(clock, 10);
  EXPECT_FALSE(soon.expired());
  EXPECT_EQ(soon.remaining(), 10u);
  clock.advance(9);
  EXPECT_FALSE(soon.expired());
  clock.advance(1);
  EXPECT_TRUE(soon.expired());
  EXPECT_EQ(soon.remaining(), 0u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Rng c(124);
  EXPECT_NE(a(), c()) << "different seeds must diverge";
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
    EXPECT_EQ(rng.below(1), 0u);
  }
}

TEST(Rng, UniformCoversUnitInterval) {
  Rng rng(9);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  int counts[8] = {};
  const int trials = 80000;
  for (int i = 0; i < trials; ++i) ++counts[rng.below(8)];
  for (int c : counts) {
    EXPECT_GT(c, trials / 8 - trials / 80);
    EXPECT_LT(c, trials / 8 + trials / 80);
  }
}

TEST(Stats, CountersAccumulate) {
  Stats stats;
  stats.add("a");
  stats.add("a", 4);
  stats.add("b", 2);
  EXPECT_EQ(stats.get("a"), 5u);
  EXPECT_EQ(stats.get("b"), 2u);
  EXPECT_EQ(stats.get("missing"), 0u);
  stats.clear();
  EXPECT_EQ(stats.get("a"), 0u);
}

TEST(Stats, StatsIterationOrderIsSortedByName) {
  // Locks in the ordering contract documented in stats.h: all() is sorted
  // by counter name regardless of interning or increment order, so bench
  // tables and golden files are reproducible.
  Stats stats;
  stats.add("zzz.last", 1);
  stats.add("aaa.first", 2);
  stats.add("mmm.middle", 3);
  const auto all = stats.all();
  std::vector<std::string> names;
  for (const auto& [name, value] : all) names.push_back(name);
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(names, sorted);
  EXPECT_EQ(all.at("aaa.first"), 2u);
  EXPECT_EQ(all.at("zzz.last"), 1u);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable table;
  table.header({"name", "value"});
  table.row({"x", "1"});
  table.separator();
  table.row({"long-name", "23456"});
  const std::string text = table.render();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("long-name"), std::string::npos);
  // Every line has the same column boundary: find '|' positions equal.
  std::vector<std::size_t> pipe_positions;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    const std::string line = text.substr(start, end - start);
    if (line.find('|') != std::string::npos)
      pipe_positions.push_back(line.find('|'));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  ASSERT_GE(pipe_positions.size(), 3u);
  for (std::size_t p : pipe_positions) EXPECT_EQ(p, pipe_positions[0]);
}

TEST(ArgParse, RejectsMalformedNumericValues) {
  for (const char* value : {"abc", "-5", "0", "5000junk", "", " 7"}) {
    std::uint64_t u64 = 42;
    unsigned count = 42;
    std::string error;
    EXPECT_FALSE(support::parse_u64_flag("--budget", value, 1, u64, error))
        << value;
    EXPECT_NE(error.find("--budget"), std::string::npos) << error;
    EXPECT_EQ(u64, 42u) << value;
    error.clear();
    EXPECT_FALSE(support::parse_positive_count("--seed-scale", value, count,
                                               error))
        << value;
    EXPECT_NE(error.find("--seed-scale"), std::string::npos) << error;
    EXPECT_EQ(count, 42u) << value;
  }
  std::uint64_t u64 = 0;
  unsigned count = 0;
  std::string error;
  EXPECT_TRUE(support::parse_u64_flag("--budget", "5000", 1, u64, error));
  EXPECT_EQ(u64, 5000u);
  EXPECT_TRUE(support::parse_positive_count("--sym-size", "100", count, error));
  EXPECT_EQ(count, 100u);
  EXPECT_FALSE(support::parse_positive_count("--sym-size", "4294967296",
                                             count, error));
}

TEST(TextTable, Formatting) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(1.09), "109%");
  EXPECT_EQ(fmt_percent(0.5), "50%");
}

}  // namespace
}  // namespace pbse
