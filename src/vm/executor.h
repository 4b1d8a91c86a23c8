// The interpreter / symbolic executor over the Mini-IR — KLEE's Executor.
//
// Two modes share one instruction dispatcher:
//
//  * Symbolic (step): branch feasibility is decided with the solver; both
//    feasible directions fork. The state's `model` is kept as an invariant
//    satisfying assignment, so the direction the model already takes is
//    followed for free and only the off-model direction needs a query —
//    KLEE's seed-mode optimization generalized.
//
//  * Concolic (step_concolic, Algorithm 2 of the paper): one state follows
//    the seed input concretely while accumulating symbolic constraints. At
//    every symbolic branch the flipped (unexplored) direction is recorded
//    as a *seedState* (ForkRecord) without any solver work — one per
//    distinct fork point, keeping the earliest; bugs are only reported if
//    the seed itself triggers them.
//
// All checks KLEE performs are implemented: load/store bounds (symbolic
// offsets become solver queries and feasible violations become bug
// reports), null dereference, division by zero, use-after-return, checked
// integer overflow, and check() assertions.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>

#include "ir/ir.h"
#include "solver/solver.h"
#include "support/stats.h"
#include "support/vclock.h"
#include "vm/bugs.h"
#include "vm/state.h"
#include "vm/testcase.h"

namespace pbse::serialize {
class CampaignCodec;
}

namespace pbse::vm {

struct ExecutorOptions {
  std::uint64_t max_call_depth = 128;
  /// When on, returned-from allocas are kept (dead) so accesses report
  /// use-after-return; when off they are erased, keeping the per-state
  /// object map — and therefore fork cost — proportional to live memory.
  bool detect_use_after_return = false;
};

/// A seedState: the flipped (off-seed) fork recorded during concolic
/// execution (paper Sec. III-B2). Its `model` is still the seed (which does
/// NOT satisfy the flipped constraint); pbSE validates it on activation.
struct ForkRecord {
  std::shared_ptr<ExecutionState> state;
  std::uint64_t fork_ticks = 0;
  std::uint32_t fork_bb = 0;    // global block id of the fork point
  std::uint32_t fork_inst = 0;  // instruction index within the block
};

class Executor {
 public:
  Executor(const ir::Module& module, Solver& solver, VClock& clock,
           Stats& stats, ExecutorOptions options = {});

  /// Builds the initial state: globals materialized, `entry(file, size)`
  /// on the call stack with `input` as the symbolic file. `seed` initializes
  /// the state's model (pass the seed bytes in concolic mode; empty means
  /// all-zeros). Entry must have signature (ptr, int).
  std::unique_ptr<ExecutionState> make_initial_state(
      const std::string& entry, const ArrayRef& input,
      const std::vector<std::uint8_t>& seed);

  /// Executes one instruction of `state` symbolically. Fork children are
  /// appended to `forked`. Check state.done() afterwards.
  void step(ExecutionState& state,
            std::vector<std::unique_ptr<ExecutionState>>& forked);

  /// Executes one instruction in concolic lockstep along the seed that
  /// `seed_eval` evaluates over (kept by the caller for the whole run).
  /// With `offpath_bug_checks` guards also report feasible-but-off-seed
  /// violations of internal buffers (solved witness input); without it only
  /// bugs the seed itself triggers are reported — pure replay semantics.
  void step_concolic(ExecutionState& state, CachingEvaluator& seed_eval,
                     std::vector<ForkRecord>& fork_records,
                     bool offpath_bug_checks = true);

  // --- Coverage ----------------------------------------------------------
  struct CoverEvent {
    std::uint64_t ticks;
    std::uint32_t global_bb;
  };
  const std::vector<bool>& covered() const { return covered_; }
  std::uint64_t num_covered() const { return num_covered_; }
  const std::vector<CoverEvent>& coverage_log() const { return coverage_log_; }
  /// Bumped every time a new block is covered (used by covnew/md2u to
  /// invalidate cached distances).
  std::uint64_t coverage_epoch() const { return coverage_epoch_; }

  /// Called on EVERY block entry (not just first coverage): BBV gathering.
  std::function<void(const ExecutionState&, std::uint32_t)> on_block_entered;

  // --- Results -----------------------------------------------------------
  const std::vector<BugReport>& bugs() const { return bugs_; }
  const std::vector<TestCase>& test_cases() const { return test_cases_; }

  /// Values passed to out(), evaluated under the emitting state's model
  /// (capped; primarily for tests and examples).
  const std::vector<std::uint64_t>& out_log() const { return out_log_; }

  const ir::Module& module() const { return module_; }
  const ExecutorOptions& options() const { return options_; }
  Solver& solver() { return solver_; }
  Stats& stats() { return stats_; }
  const VClock& clock() const { return clock_; }
  const ArrayRef& input_array() const { return input_array_; }

  /// Number of unique bug sites found so far.
  std::size_t num_bug_sites() const { return bug_sites_.size(); }

  std::uint64_t allocate_state_id() { return next_state_id_++; }

  /// Re-establishes the model invariant of a seedState before symbolic
  /// execution (paper: "lazy pass through"). Returns false (and sets
  /// termination) if the recorded constraints are unsatisfiable or the
  /// solver exceeds its budget. States that carry the same model share
  /// one evaluator, so a path prefix they share is evaluated once.
  bool validate_model(ExecutionState& state);

 private:
  /// Snapshots/restores campaign progress (coverage, bugs, test cases, id
  /// counters, dedup sets). input_array_ is re-bound by the codec so that
  /// restored expressions intern against the canonical array of the
  /// restoring process.
  friend class pbse::serialize::CampaignCodec;

  struct ConcolicCtx {
    Solver::HintRef seed;
    CachingEvaluator* seed_eval = nullptr;
    std::vector<ForkRecord>* fork_records = nullptr;
    /// Gates the feasibility half of guard(): off = pure concrete replay.
    bool offpath_bug_checks = true;
  };

  // One instruction; ctx == nullptr means symbolic mode.
  void execute(ExecutionState& state,
               std::vector<std::unique_ptr<ExecutionState>>* forked,
               ConcolicCtx* ctx);

  Value eval_operand(const ExecutionState& state, const ir::Operand& op) const;
  ExprRef eval_int(const ExecutionState& state, const ir::Operand& op) const;

  /// Evaluates `e` under the state's model through the state's memoized
  /// evaluator (rebinding it if the model was replaced).
  std::uint64_t eval_model(ExecutionState& state, const ExprRef& e);

  void enter_block(ExecutionState& state, std::uint32_t block_id);
  void record_coverage(ExecutionState& state);

  // Branch handling.
  void execute_branch(ExecutionState& state, const ir::Instruction& inst,
                      std::vector<std::unique_ptr<ExecutionState>>* forked,
                      ConcolicCtx* ctx);

  // Guard checks: returns true if execution may continue on the "ok" side.
  // `error_cond` is the width-1 expression that is true exactly when the
  // bug fires. In concolic mode the check is normally concrete-only
  // (Algorithm 2's isFindBug); `concolic_feasibility` additionally runs the
  // symbolic feasibility query — used for fixed-size internal buffers,
  // where KLEE's seeded mode reports off-seed violations too.
  bool guard(ExecutionState& state, const ExprRef& error_cond, BugKind kind,
             const std::string& message, ConcolicCtx* ctx,
             bool concolic_feasibility = false);

  // Memory access helpers.
  struct Access {
    std::uint32_t object = kNullObject;
    std::uint64_t concrete_offset = 0;  // valid after check succeeds
  };
  std::optional<Access> check_access(ExecutionState& state, const Pointer& ptr,
                                     unsigned bytes, bool is_write,
                                     ConcolicCtx* ctx);
  ExprRef load_bytes(const ExecutionState& state, std::uint32_t object,
                     std::uint64_t offset, unsigned width) const;
  void store_bytes(ExecutionState& state, std::uint32_t object,
                   std::uint64_t offset, const ExprRef& value);

  void report_bug(ExecutionState& state, BugKind kind,
                  const std::string& message, const Assignment& witness);
  void terminate(ExecutionState& state, TerminationReason reason);
  void record_test_case(const ExecutionState& state, const std::string& why);

  std::vector<std::uint8_t> extract_input(const Assignment& a) const;

  const ir::Module& module_;
  Solver& solver_;
  VClock& clock_;
  Stats& stats_;
  ExecutorOptions options_;

  ArrayRef input_array_;
  std::vector<bool> covered_;
  std::uint64_t num_covered_ = 0;
  std::uint64_t coverage_epoch_ = 0;
  std::vector<CoverEvent> coverage_log_;

  std::vector<BugReport> bugs_;
  std::unordered_set<std::string> bug_sites_;
  std::vector<TestCase> test_cases_;
  std::vector<std::uint64_t> out_log_;

  std::uint64_t next_state_id_ = 1;
  std::uint64_t live_states_ = 1;  // informational fork cap counter
  std::uint32_t input_object_ = kNullObject;  // id of the symbolic file
  /// Fork points already materialized as seedStates in concolic mode
  /// (record-time half of the paper's keep-earliest dedup).
  std::unordered_set<std::uint64_t> concolic_seen_forks_;
  /// The evaluator validate_model() last bound to a state without one.
  /// A campaign's seedStates all carry the seed's model, so they share it
  /// and their common path prefix is evaluated once. Created on first use;
  /// a pure memo, so it is not snapshotted.
  std::shared_ptr<CachingEvaluator> validation_eval_;
};

}  // namespace pbse::vm
