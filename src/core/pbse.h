// pbSE: the phase-based symbolic execution driver — the paper's primary
// contribution (Algorithms 1 and 3).
//
// Pipeline:
//   prepare():  concolic execution on the seed (Algorithm 2) -> BBVs and
//               seedStates; phase analysis (k-means over coverage-augmented
//               BBVs, trap-phase identification); seedState dedup (same
//               fork point -> keep earliest) and mapping to phases by fork
//               time.
//   run():      Algorithm 3 — round-robin over phases ordered by first-BBV
//               time. Each turn gives a phase turnNum * TimePeriod ticks;
//               the phase keeps running past its period only while it still
//               covers new code. Empty phases are retired.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "concolic/concolic_executor.h"
#include "phase/phase_analysis.h"
#include "searchers/engine.h"
#include "searchers/searcher.h"
#include "solver/solver.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/vclock.h"
#include "vm/executor.h"

namespace pbse::serialize {
class CampaignCodec;
}

namespace pbse::core {

struct PbseOptions {
  concolic::ConcolicOptions concolic;
  phase::PhaseOptions phase;
  /// Algorithm 3's TimePeriod (ticks per phase per first-turn visit).
  std::uint64_t time_period_ticks = 30'000;
  /// A phase past its period stops once it has not covered new code for
  /// this many ticks (isCoverNewInst window).
  std::uint64_t no_new_cover_window = 8'000;
  /// Searcher used inside each phase.
  search::SearcherKind phase_searcher = search::SearcherKind::kDefault;
  vm::ExecutorOptions executor;
  SolverOptions solver;
  std::uint64_t rng_seed = 1;
};

class PbseDriver {
 public:
  PbseDriver(const ir::Module& module, const std::string& entry,
             PbseOptions options = {});

  /// Step 1+2 of Algorithm 1: concolic execution and phase parsing.
  /// Returns false if the seed path executed no symbolic branch (nothing
  /// to schedule).
  bool prepare(const std::vector<std::uint8_t>& seed);

  /// Step 3: phase-scheduled symbolic execution until the deadline.
  /// Resets the rotation cursor at entry — calling run() again re-visits
  /// retired phases exactly as the original driver did (the benches rely
  /// on this when extending a 1h run to 10h).
  void run(VClock::Ticks budget);

  // --- Sliced execution (server checkpointing) ----------------------------
  // run(budget) == begin_run() followed by step_turn(overall) until false.
  // A server job instead calls step_turn once per slice and snapshots
  // between calls; because a turn is a deterministic unit, the sliced run
  // is tick- and RNG-identical to the monolithic one.

  /// Resets the Algorithm 3 rotation to its start (all phases live, turn
  /// counter zero). run() does this implicitly; a RESTORED driver must NOT
  /// call it — the deserialized cursor already points mid-rotation.
  void begin_run();

  /// Executes one rotation step (retire an empty phase, or run one phase
  /// turn) against `overall`. Returns true while live phases and budget
  /// remain. Cursor state persists across calls.
  bool step_turn(const Deadline& overall);

  // --- Introspection ------------------------------------------------------
  vm::Executor& executor() { return *executor_; }
  const concolic::ConcolicResult& concolic_result() const { return concolic_; }
  const phase::PhaseAnalysisResult& phases() const { return analysis_; }
  VClock& clock() { return clock_; }
  Stats& stats() { return stats_; }

  std::uint64_t c_time_ticks() const { return c_time_; }
  std::uint64_t p_time_ticks() const { return p_time_; }

  /// Phase id in which each executor bug (by index) was found; phase id
  /// ~0u marks bugs found during the concolic step itself.
  const std::vector<std::uint32_t>& bug_phases() const { return bug_phases_; }

  /// SeedStates retained per phase after dedup (for tests/reporting).
  const std::vector<std::vector<vm::ForkRecord>>& phase_seed_states() const {
    return phase_seed_states_;
  }

  /// Every state the campaign holds, phase by phase: the seedStates not
  /// yet activated, then the engine's live states in id order.
  std::vector<const vm::ExecutionState*> states() const;

 private:
  friend class pbse::serialize::CampaignCodec;

  struct PhaseRuntime {
    std::uint32_t phase_id = 0;
    std::unique_ptr<search::Searcher> searcher;
    std::unique_ptr<search::SymbolicEngine> engine;
    std::vector<vm::ForkRecord> pending;  // not yet activated
    bool started = false;
  };

  /// Algorithm 3's rotation position: the turn counter and the indices of
  /// runtimes_ still in the rotation. Index-based (not pointer-based) so a
  /// snapshot can persist it directly.
  struct TurnCursor {
    std::uint64_t i = 0;
    std::vector<std::uint32_t> live;
  };

  void activate_pending(PhaseRuntime& phase);

  const ir::Module& module_;
  std::string entry_;
  PbseOptions options_;

  VClock clock_;
  Stats stats_;
  Rng rng_;
  std::unique_ptr<Solver> solver_;
  std::unique_ptr<vm::Executor> executor_;

  concolic::ConcolicResult concolic_;
  phase::PhaseAnalysisResult analysis_;
  std::vector<std::vector<vm::ForkRecord>> phase_seed_states_;
  std::vector<PhaseRuntime> runtimes_;
  std::vector<std::uint32_t> bug_phases_;
  TurnCursor cursor_;

  std::uint64_t c_time_ = 0;
  std::uint64_t p_time_ = 0;
};

}  // namespace pbse::core
