// Machine-readable bench output: each table bench writes its own file in
// the working directory (table1 BENCH_pbse.json, table2 BENCH_table2.json,
// table3 BENCH_table3.json; the "bench" field says which harness produced
// it), so the perf trajectory — wall-clock, coverage, solver-cache
// hit-rate — can be tracked across changes without scraping the text
// tables, and scripts/check.sh can pin table1 and table2 side by side.
#pragma once

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "support/json.h"

namespace pbse::bench {

/// One key of the `solver_cache` section and the aggregate counter it
/// reports. A null metric marks the derived shared-cache hit rate.
struct SolverCacheRow {
  const char* key;
  const char* metric;
};

/// The `solver_cache` section, in output order. Every counter is
/// deterministic under fixed jobs and --no-share-cache, and
/// scripts/bench_diff.py compares every key it finds, so adding or
/// removing a counter is one row here plus a golden regeneration.
inline constexpr SolverCacheRow kSolverCacheRows[] = {
    {"shared_hits", "cache.shared_hits"},
    {"shared_misses", "cache.shared_misses"},
    {"shared_hit_rate", nullptr},
    {"shard_contention", "cache.shared_contention"},
    {"shared_entries", "cache.shared_entries"},
    {"l1_hits", "solver.cache_hits"},
    // Incremental-pipeline hit class (solver.h): queries whose propagation
    // was seeded from a memoized prefix.
    {"domain_memo_hits", "solver.domain_memo_hits"},
    // Solver Unknowns: queries whose search budget ran out, and the fork
    // directions the executor dropped because of one.
    {"search_unknown", "solver.search_unknown"},
    {"fork_unknown", "executor.fork_unknown"},
    // States forked, and queries asked: the denominators of the rows above.
    {"states_forked", "executor.forks"},
    {"queries", "solver.queries"},
};

/// Writes the canonical bench JSON for one bench run to `path`.
inline void write_bench_json(const std::string& path, const std::string& bench,
                             unsigned jobs, bool share_cache,
                             const core::ParallelCampaignRunner& runner,
                             const std::vector<core::CampaignOutcome>& outcomes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::uint64_t covered = 0, bugs = 0, ticks = 0;
  for (const auto& o : outcomes) {
    covered += o.covered;
    bugs += o.bugs;
    ticks += o.ticks;
  }
  const Stats& agg = runner.aggregate_stats();
  const std::uint64_t shared_hits = agg.get("cache.shared_hits");
  const double denom =
      static_cast<double>(shared_hits + agg.get("cache.shared_misses"));
  const double hit_rate = denom > 0 ? shared_hits / denom : 0.0;

  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": %s,\n", json_quote(bench).c_str());
  std::fprintf(f, "  \"jobs\": %u,\n", jobs);
  std::fprintf(f, "  \"share_cache\": %s,\n", share_cache ? "true" : "false");
  std::fprintf(f, "  \"wall_seconds\": %.3f,\n", runner.wall_seconds());
  std::fprintf(f, "  \"total_covered\": %llu,\n",
               static_cast<unsigned long long>(covered));
  std::fprintf(f, "  \"total_bugs\": %llu,\n",
               static_cast<unsigned long long>(bugs));
  std::fprintf(f, "  \"total_ticks\": %llu,\n",
               static_cast<unsigned long long>(ticks));
  std::fprintf(f, "  \"solver_cache\": {\n");
  for (const SolverCacheRow& row : kSolverCacheRows) {
    const char* sep = &row == std::end(kSolverCacheRows) - 1 ? "" : ",";
    const std::string key = json_quote(row.key);
    if (row.metric == nullptr)
      std::fprintf(f, "    %s: %.4f%s\n", key.c_str(), hit_rate, sep);
    else
      std::fprintf(f, "    %s: %llu%s\n", key.c_str(),
                   static_cast<unsigned long long>(agg.get(row.metric)), sep);
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"campaigns\": [\n");
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    std::fprintf(f,
                 "    {\"name\": %s, \"covered\": %llu, \"ticks\": %llu, "
                 "\"bugs\": %llu, \"wall_seconds\": %.3f}%s\n",
                 json_quote(o.name).c_str(),
                 static_cast<unsigned long long>(o.covered),
                 static_cast<unsigned long long>(o.ticks),
                 static_cast<unsigned long long>(o.bugs), o.wall_seconds,
                 i + 1 < outcomes.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (wall %.2fs, %u jobs, cache hit-rate %.1f%%)\n",
              path.c_str(), runner.wall_seconds(), jobs, hit_rate * 100.0);
}

}  // namespace pbse::bench
