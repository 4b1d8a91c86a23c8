// Parallel campaign runner: executes independent pbSE / KLEE campaigns
// concurrently on up to `jobs` threads, each claiming the next unstarted
// campaign until none is left.
//
// The unit of scale-out is a whole campaign (one target × searcher ×
// configuration run), mirroring how the paper's experiments — and
// campaign-level trials in learned-search-heuristics work — parallelize.
// Each campaign owns its VClock, Stats, Solver and Executor and builds its
// own module and expressions (the expression interner is thread-local), so
// a campaign's virtual-time trajectory is independent of scheduling and
// its results are bit-identical to a serial run of the same campaign.
//
// Campaigns optionally share a ShardedQueryCache (L2): structurally
// identical solver queries issued by different campaigns — common when
// several searchers explore the same target — are solved once. Sharing is
// sound (SAT models are re-verified per hit, UNSAT keys are definitive)
// but makes a campaign's virtual-time accounting depend on which cache
// entries other campaigns published first; disable it when bit-exact
// equality between `--jobs 1` and `--jobs N` matters more than throughput.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "solver/cache.h"
#include "support/stats.h"

namespace pbse::core {

struct ParallelOptions {
  /// Worker threads. 0 or 1 runs campaigns inline on the calling thread.
  unsigned jobs = 1;
  /// Cross-campaign solver-cache sharing (see the header comment).
  bool share_solver_cache = true;
};

/// Handed to every campaign body.
struct CampaignContext {
  std::size_t index = 0;
  /// Null when sharing is off; otherwise plug into SolverOptions.
  std::shared_ptr<ShardedQueryCache> shared_cache;
};

/// What a campaign reports back. `rows` carries bench-specific table
/// payloads (single-row benches use rows[0]); the named fields feed
/// BENCH_pbse.json and aggregate stats.
struct CampaignOutcome {
  std::string name;
  std::uint64_t covered = 0;
  std::uint64_t ticks = 0;
  std::uint64_t bugs = 0;
  double wall_seconds = 0;
  Stats stats;
  std::vector<std::vector<std::string>> rows;
};

struct Campaign {
  std::string name;
  std::function<CampaignOutcome(const CampaignContext&)> body;
};

class ParallelCampaignRunner {
 public:
  explicit ParallelCampaignRunner(ParallelOptions options = {});

  /// Runs every campaign and returns outcomes in CAMPAIGN ORDER (never
  /// completion order), so downstream reporting is deterministic. If any
  /// campaign throws, all campaigns still settle, then the first exception
  /// by campaign index is re-thrown.
  std::vector<CampaignOutcome> run(const std::vector<Campaign>& campaigns);

  /// Campaign stats merged together, plus the shared-cache counters
  /// ("cache.shared_hits" / "cache.shared_misses" /
  /// "cache.shared_contention" / "cache.shared_entries") and the runner's
  /// own bookkeeping. Valid after run().
  const Stats& aggregate_stats() const { return aggregate_; }

  /// Wall-clock of the last run() in seconds.
  double wall_seconds() const { return wall_seconds_; }

 private:
  ParallelOptions options_;
  std::shared_ptr<ShardedQueryCache> shared_cache_;
  Stats aggregate_;
  double wall_seconds_ = 0;
};

}  // namespace pbse::core
