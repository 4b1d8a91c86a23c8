// Convenience drivers:
//  * KleeRun — plain KLEE-style symbolic execution with a chosen searcher
//    and a whole-file symbolic input of a given size (the baselines in
//    Tables I and II).
//  * pbse_testing — the full Algorithm 1 entry point: pick a seed with the
//    paper's heuristic, run concolic + phase analysis + scheduling.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/pbse.h"
#include "searchers/engine.h"

namespace pbse::core {

struct KleeRunOptions {
  search::SearcherKind searcher = search::SearcherKind::kDefault;
  /// Size of the whole-file symbolic input ("sym-10" ... "sym-10000").
  std::uint32_t sym_file_size = 100;
  std::uint64_t rng_seed = 1;
  SolverOptions solver;
  vm::ExecutorOptions executor;
};

/// A resumable KLEE-style run: call run() repeatedly to extend the budget
/// (Table I reports the same run at 1h and at 10h).
class KleeRun {
 public:
  KleeRun(const ir::Module& module, const std::string& entry,
          KleeRunOptions options = {});

  /// Runs for `budget` more ticks.
  void run(VClock::Ticks budget);

  /// Runs for at most `budget` more ticks, also stopping at the first
  /// BATCH boundary where `batch_stop` returns true. Because batches are
  /// never truncated, a run sliced this way and resumed from a snapshot
  /// consumes the searcher/RNG streams exactly like run(budget) would —
  /// the server's checkpointing depends on that equivalence.
  void run_sliced(VClock::Ticks budget,
                  const std::function<bool()>& batch_stop);

  vm::Executor& executor() { return *executor_; }
  VClock& clock() { return clock_; }
  Stats& stats() { return stats_; }
  std::size_t num_states() const { return engine_->num_states(); }

 private:
  friend class pbse::serialize::CampaignCodec;

  KleeRunOptions options_;
  VClock clock_;
  Stats stats_;
  Rng rng_;
  std::unique_ptr<Solver> solver_;
  std::unique_ptr<vm::Executor> executor_;
  std::unique_ptr<search::Searcher> searcher_;
  std::unique_ptr<search::SymbolicEngine> engine_;
};

struct PbseTestingResult {
  std::size_t chosen_seed_index = 0;
  std::unique_ptr<PbseDriver> driver;
};

/// Algorithm 1 with the paper's seed-selection heuristic. Runs prepare()
/// and then run() for `budget` ticks.
PbseTestingResult pbse_testing(const ir::Module& module,
                               const std::string& entry,
                               const std::vector<std::vector<std::uint8_t>>& seeds,
                               VClock::Ticks budget,
                               const PbseOptions& options = {});

}  // namespace pbse::core
