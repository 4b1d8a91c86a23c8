// The command-line tools at their process boundary: pbse validates numeric
// flags strictly, campaigns on its default shared solver cache explore
// independently of one another, and pbse-analyze --json is valid JSON.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.h"
#include "targets/targets.h"

namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr, interleaved
};

CliRun run_tool(const std::string& exe, const std::string& args) {
  CliRun run;
  const std::string command = exe + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
    run.output.append(buf, n);
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

CliRun run_pbse(const std::string& args) {
  return run_tool(PBSE_CLI_EXE, args);
}

TEST(PbseCli, RejectsMalformedNumericFlags) {
  for (const char* flag : {"--budget", "--seed-scale", "--sym-size"}) {
    for (const char* value : {"abc", "-5", "0", "5000junk", ""}) {
      const std::string arg = std::string(flag) + "=" + value;
      const CliRun run = run_pbse("klee readelf " + arg);
      EXPECT_EQ(run.exit_code, 2) << arg << "\n" << run.output;
      EXPECT_NE(run.output.find(std::string("pbse: ") + flag),
                std::string::npos)
          << arg << "\n" << run.output;
    }
  }
  const CliRun ok = run_pbse("klee readelf --sym-size=10 --budget=5000");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

// Two identical KLEE campaigns, one after the other on the shared solver
// cache that `pbse` uses by default. The second reuses the first's solver
// answers, but no state of its own may be dropped because the first
// campaign reached it: it runs to its budget and covers at least as much.
TEST(PbseCli, DuplicateCampaignsOnTheSharedCacheKeepCoverage) {
  constexpr std::uint64_t kBudget = 200'000;
  const CliRun run =
      run_pbse("klee readelf,readelf --sym-size=100 --budget=" +
               std::to_string(kBudget) + " --jobs=1");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  ASSERT_NE(run.output.find("shared cache hit-rate"), std::string::npos)
      << "the campaigns did not share a solver cache\n" << run.output;

  struct Row {
    unsigned long long covered, ticks;
  };
  std::vector<Row> rows;
  std::istringstream lines(run.output);
  std::string line;
  while (std::getline(lines, line)) {
    Row row{};
    unsigned long long total = 0;
    if (std::sscanf(line.c_str(),
                    "readelf: covered %llu / %llu blocks in %llu ticks",
                    &row.covered, &total, &row.ticks) == 3)
      rows.push_back(row);
  }
  ASSERT_EQ(rows.size(), 2u) << run.output;
  EXPECT_GE(rows[1].ticks, kBudget) << run.output;
  EXPECT_GE(rows[1].covered, rows[0].covered) << run.output;
}

// The one JSON document pbse-analyze --json prints carries every target's
// report, with the fields a consumer of the findings needs.
TEST(PbseAnalyze, JsonReportParses) {
  const CliRun run = run_tool(PBSE_ANALYZE_EXE, "all --json");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const pbse::Json report = pbse::parse_json(run.output);
  const std::vector<pbse::Json>& targets = report.get("targets").items();
  EXPECT_EQ(targets.size(), pbse::targets::all_targets().size());
  for (const pbse::Json& target : targets) {
    const std::string driver = target.get_string("driver", "");
    for (const char* key : {"driver", "blocks", "infeasible_edges", "findings"})
      EXPECT_TRUE(target.has(key)) << driver << ": " << key;
    for (const pbse::Json& finding : target.get("findings").items())
      for (const char* key : {"kind", "verdict", "function", "line", "message"})
        EXPECT_TRUE(finding.has(key)) << driver << ": " << key;
  }
}

}  // namespace
