// Shared infrastructure for the table/figure harnesses.
//
// All experiment budgets are virtual-clock ticks. The mapping used
// throughout (documented in DESIGN.md): "1h" of the paper's wall-clock
// = kTicksPerHour ticks. Pass --quick to any bench to divide budgets by
// 10 (CI smoke mode), --jobs=N to run campaigns on N worker threads, and
// --no-share-cache to give every campaign a private solver cache (bit-exact
// serial/parallel parity; see DESIGN.md "Parallel campaigns").
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/driver.h"
#include "core/parallel.h"
#include "obs/trace.h"
#include "support/argparse.h"
#include "support/table.h"
#include "targets/targets.h"

namespace pbse::bench {

inline constexpr std::uint64_t kTicksPerHour = 1'000'000;

struct BenchConfig {
  std::uint64_t hour1 = kTicksPerHour;
  std::uint64_t hour10 = 10 * kTicksPerHour;
  bool quick = false;
  unsigned jobs = 1;
  bool share_cache = true;
  /// When non-empty, run only the section with this name (ablation
  /// harnesses; other benches ignore it).
  std::string only;
  std::string trace_path;

  core::ParallelOptions parallel() const {
    core::ParallelOptions p;
    p.jobs = jobs;
    p.share_solver_cache = share_cache;
    return p;
  }

  /// Options every KLEE campaign body starts from: the campaign's shared
  /// solver cache (none outside a runner, or with --no-share-cache).
  core::KleeRunOptions klee_options(
      const core::CampaignContext& ctx = {}) const {
    core::KleeRunOptions options;
    options.solver.shared_cache = ctx.shared_cache;
    return options;
  }

  /// The same for a pbSE campaign.
  core::PbseOptions pbse_options(const core::CampaignContext& ctx = {}) const {
    core::PbseOptions options;
    options.solver.shared_cache = ctx.shared_cache;
    return options;
  }
};

inline BenchConfig parse_args(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.quick = true;
      config.hour1 /= 10;
      config.hour10 /= 10;
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      std::string error;
      if (!support::parse_positive_count("--jobs", argv[i] + 7, config.jobs,
                                         error)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--no-share-cache") == 0) {
      config.share_cache = false;
    } else if (std::strncmp(argv[i], "--only=", 7) == 0) {
      config.only = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      config.trace_path = argv[i] + 8;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      std::fprintf(stderr,
                   "usage: %s [--quick] [--jobs=N] [--no-share-cache] "
                   "[--only=SECTION] [--trace=PATH]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (!config.trace_path.empty())
    obs::start_tracing_to_file(config.trace_path);
  return config;
}

/// Builds a fresh module for a Table III-ordered target by driver name.
inline ir::Module build_by_driver(const std::string& driver) {
  for (const auto& t : targets::all_targets()) {
    if (t.driver == driver) return targets::build_target(t.source());
  }
  std::fprintf(stderr, "unknown target driver: %s\n", driver.c_str());
  std::abort();
}

inline const targets::TargetInfo& target_by_driver(const std::string& driver) {
  for (const auto& t : targets::all_targets())
    if (t.driver == driver) return t;
  std::fprintf(stderr, "unknown target driver: %s\n", driver.c_str());
  std::abort();
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace pbse::bench
