// ExecutionState: one path through the program — KLEE's ExecutionState.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "expr/evaluator.h"
#include "ir/ir.h"
#include "solver/constraint_set.h"
#include "vm/memory.h"
#include "vm/value.h"

namespace pbse::vm {

/// One activation record.
struct StackFrame {
  const ir::Function* fn = nullptr;
  std::uint32_t block = 0;     // current basic block (function-local id)
  std::uint32_t inst = 0;      // next instruction index within the block
  std::vector<Value> regs;     // virtual registers
  std::vector<Pointer> slots;  // mutable pointer-slot locals
  std::uint32_t ret_reg = ir::kNoReg;  // caller register receiving the result
  std::vector<std::uint32_t> allocas;  // objects to retire on return
};

/// Why a state stopped executing.
enum class TerminationReason : std::uint8_t {
  kRunning,
  kExit,          // main returned / stop()
  kBug,           // terminated at a bug site
  kInfeasible,    // both branch directions unsatisfiable / solver unknown
  kRecursionLimit,
  kStepLimit,
};

class ExecutionState {
 public:
  ExecutionState() = default;

  /// Forks a copy with a fresh id. Memory and model are shared
  /// copy-on-write; the clone records `this` as its parent.
  std::unique_ptr<ExecutionState> fork(std::uint64_t new_id) const;

  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;
  std::vector<StackFrame> stack;
  Memory memory;
  ConstraintSet constraints;

  /// Last satisfying assignment seen for this path: the solver-hint that
  /// makes re-traversing the path cheap, and the bytes test cases are
  /// generated from. Shared copy-on-write across forks.
  std::shared_ptr<const Assignment> model = std::make_shared<Assignment>();

  /// Memoized evaluator bound to `model` (lazily [re]created by the
  /// executor when the model is replaced). Shared by every state that holds
  /// the same model: across forks, and across the seedStates that
  /// Executor::validate_model() checks against the seed's model, so their
  /// shared path prefix is evaluated once. Purely a cache, never semantics;
  /// pbss does not carry it.
  std::shared_ptr<CachingEvaluator> model_eval;

  TerminationReason termination = TerminationReason::kRunning;
  std::uint64_t instructions = 0;   // executed by this state
  std::uint64_t depth = 0;          // fork depth
  std::uint64_t born_at_ticks = 0;  // VClock time of creation (fork time)
  std::uint32_t fork_bb = 0;        // global bb of the creating fork point
  std::uint32_t fork_inst = 0;      // instruction index of the fork point
  bool covered_new = false;         // covered a new block since last reset
  /// Instructions executed since this state last covered new code
  /// (maintained by the engine loop; drives the covnew searcher).
  std::uint64_t insts_since_cov_new = 0;

  StackFrame& frame() { return stack.back(); }
  const StackFrame& frame() const { return stack.back(); }
  bool done() const { return termination != TerminationReason::kRunning; }

  /// The instruction about to execute. Stack must be non-empty.
  const ir::Instruction& current_inst() const {
    const StackFrame& f = frame();
    return f.fn->block(f.block).insts[f.inst];
  }

  /// Global id of the current basic block.
  std::uint32_t current_global_bb() const {
    const StackFrame& f = frame();
    return f.fn->block(f.block).global_id;
  }
};

}  // namespace pbse::vm
