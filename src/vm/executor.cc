#include "vm/executor.h"

#include <cassert>

#include "obs/trace.h"
#include "support/log.h"

namespace pbse::vm {

namespace {

ir::BinOp bin_of(const ir::Instruction& inst) { return inst.bin; }

/// Virtual ticks charged for each executed instruction.
constexpr std::uint64_t kTicksPerInstruction = 1;
/// Above this many live states the executor stops forking and follows the
/// model direction only (memory cap; KLEE's --max-forks analog).
constexpr std::uint64_t kMaxLiveStates = 50000;
/// Cap on stored test cases (bug reports are always kept).
constexpr std::size_t kMaxTestCases = 4096;

/// Interned counter / trace-event names for the VM hot loop (see stats.h).
struct VmIds {
  obs::MetricId unique_bugs = obs::intern_metric("executor.unique_bugs");
  obs::MetricId duplicate_bugs = obs::intern_metric("executor.duplicate_bugs");
  obs::MetricId term_exit = obs::intern_metric("executor.term_exit");
  obs::MetricId term_bug = obs::intern_metric("executor.term_bug");
  obs::MetricId term_infeasible =
      obs::intern_metric("executor.term_infeasible");
  obs::MetricId term_recursion = obs::intern_metric("executor.term_recursion");
  obs::MetricId term_insts = obs::intern_metric("executor.term_insts");
  obs::MetricId concolic_offpath_bugs =
      obs::intern_metric("executor.concolic_offpath_bugs");
  obs::MetricId offpath_bugs = obs::intern_metric("executor.offpath_bugs");
  obs::MetricId concretized_offsets =
      obs::intern_metric("executor.concretized_offsets");
  obs::MetricId symbolic_branches =
      obs::intern_metric("concolic.symbolic_branches");
  obs::MetricId seed_states = obs::intern_metric("concolic.seed_states");
  obs::MetricId seed_states_deduped =
      obs::intern_metric("concolic.seed_states_deduped");
  obs::MetricId forks = obs::intern_metric("executor.forks");
  obs::MetricId fork_unknown = obs::intern_metric("executor.fork_unknown");
  obs::MetricId fork_unsat = obs::intern_metric("executor.fork_unsat");
  obs::MetricId fork_suppressed =
      obs::intern_metric("executor.fork_suppressed");
  obs::MetricId recursion_limit =
      obs::intern_metric("executor.recursion_limit");
  obs::MetricId seedstate_unsat =
      obs::intern_metric("executor.seedstate_unsat");
  obs::MetricId seedstate_unknown =
      obs::intern_metric("executor.seedstate_unknown");
  obs::MetricId seedstate_repaired =
      obs::intern_metric("executor.seedstate_repaired");
  obs::MetricId out_calls = obs::intern_metric("executor.out_calls");
  obs::MetricId unreachable = obs::intern_metric("executor.unreachable");
  // Trace event / argument names.
  obs::MetricId ev_new_cover = obs::intern_metric("new_cover");
  obs::MetricId ev_bug = obs::intern_metric("bug");
  obs::MetricId ev_terminate = obs::intern_metric("terminate");
  obs::MetricId ev_fork = obs::intern_metric("fork");
  obs::MetricId ev_seed_state = obs::intern_metric("seed_state");
  obs::MetricId arg_bb = obs::intern_metric("bb");
  obs::MetricId arg_total = obs::intern_metric("total");
  obs::MetricId arg_kind = obs::intern_metric("kind");
  obs::MetricId arg_reason = obs::intern_metric("reason");
  obs::MetricId arg_insts = obs::intern_metric("insts");
  obs::MetricId arg_state = obs::intern_metric("state");
};

const VmIds& ids() {
  static const VmIds v;
  return v;
}

}  // namespace

Executor::Executor(const ir::Module& module, Solver& solver, VClock& clock,
                   Stats& stats, ExecutorOptions options)
    : module_(module),
      solver_(solver),
      clock_(clock),
      stats_(stats),
      options_(options) {
  assert(module.finalized() && "finalize the module before execution");
  covered_.assign(module.total_blocks(), false);
}

std::unique_ptr<ExecutionState> Executor::make_initial_state(
    const std::string& entry, const ArrayRef& input,
    const std::vector<std::uint8_t>& seed) {
  input_array_ = input;

  auto state = std::make_unique<ExecutionState>();
  state->id = allocate_state_id();
  state->born_at_ticks = clock_.now();

  // Globals get object ids 0..G-1, matching their module indices.
  for (std::uint32_t gi = 0; gi < module_.num_globals(); ++gi) {
    const ir::Global& g = module_.global(gi);
    const std::uint32_t id = state->memory.add(MemObject::make_concrete(
        g.size, g.init, "global " + g.name, g.writable));
    (void)id;
    assert(id == gi);
  }
  const std::uint32_t input_obj =
      state->memory.add(MemObject::make_symbolic(input, "input"));
  input_object_ = input_obj;

  // Model: the seed bytes (zero-padded / truncated to the array size).
  {
    auto model = std::make_shared<Assignment>();
    std::vector<std::uint8_t> bytes(input->size(), 0);
    for (std::size_t i = 0; i < bytes.size() && i < seed.size(); ++i)
      bytes[i] = seed[i];
    model->set(input, std::move(bytes));
    state->model = std::move(model);
  }

  const ir::Function* fn = module_.function_by_name(entry);
  assert(fn != nullptr && "unknown entry function");
  assert(fn->params().size() == 2 && fn->params()[0].is_ptr() &&
         fn->params()[1].is_int() &&
         "entry must have signature (ptr file, int size)");

  StackFrame frame;
  frame.fn = fn;
  frame.regs.resize(fn->num_regs());
  frame.slots.resize(fn->num_slots());
  frame.regs[0] = Value::from_ptr(Pointer::to(input_obj, mk_const(0, 64)));
  frame.regs[1] =
      Value::from_int(mk_const(input->size(), fn->params()[1].width));
  state->stack.push_back(std::move(frame));

  enter_block(*state, 0);
  return state;
}

// --- Operand evaluation -----------------------------------------------------

Value Executor::eval_operand(const ExecutionState& state,
                             const ir::Operand& op) const {
  switch (op.kind) {
    case ir::Operand::Kind::kNone:
      return Value::none();
    case ir::Operand::Kind::kConst:
      if (op.type.is_ptr()) return Value::from_ptr(Pointer::null());
      return Value::from_int(mk_const(op.cval, op.type.width));
    case ir::Operand::Kind::kReg:
      return state.frame().regs[op.reg];
  }
  return Value::none();
}

ExprRef Executor::eval_int(const ExecutionState& state,
                           const ir::Operand& op) const {
  Value v = eval_operand(state, op);
  assert(v.is_int() && "expected an integer operand");
  return v.i;
}

// --- Coverage ----------------------------------------------------------------

void Executor::enter_block(ExecutionState& state, std::uint32_t block_id) {
  StackFrame& f = state.frame();
  f.block = block_id;
  f.inst = 0;
  record_coverage(state);
}

void Executor::record_coverage(ExecutionState& state) {
  const std::uint32_t gid = state.current_global_bb();
  if (!covered_[gid]) {
    covered_[gid] = true;
    ++num_covered_;
    ++coverage_epoch_;
    coverage_log_.push_back(CoverEvent{clock_.now(), gid});
    state.covered_new = true;
    obs::trace_instant(obs::Category::kVm, ids().ev_new_cover, clock_.now(),
                       gid, ids().arg_bb, num_covered_, ids().arg_total);
  }
  if (on_block_entered) on_block_entered(state, gid);
}

// --- Bug reporting ------------------------------------------------------------

std::vector<std::uint8_t> Executor::extract_input(const Assignment& a) const {
  std::vector<std::uint8_t> bytes(input_array_ ? input_array_->size() : 0, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = a.byte(input_array_.get(), static_cast<std::uint32_t>(i));
  return bytes;
}

void Executor::report_bug(ExecutionState& state, BugKind kind,
                          const std::string& message,
                          const Assignment& witness) {
  const ir::Instruction& inst = state.current_inst();
  BugReport report;
  report.kind = kind;
  report.function = state.frame().fn->name();
  report.line = inst.line;
  report.global_bb = state.current_global_bb();
  report.message = message;
  report.found_at_ticks = clock_.now();
  report.state_id = state.id;
  report.input = extract_input(witness);
  if (bug_sites_.insert(report.site_key()).second) {
    stats_.add(ids().unique_bugs);
    obs::trace_instant(obs::Category::kVm, ids().ev_bug, clock_.now(),
                       report.global_bb, ids().arg_bb,
                       static_cast<std::uint64_t>(kind), ids().arg_kind);
    bugs_.push_back(std::move(report));
  } else {
    stats_.add(ids().duplicate_bugs);
  }
}

void Executor::terminate(ExecutionState& state, TerminationReason reason) {
  state.termination = reason;
  switch (reason) {
    case TerminationReason::kExit: stats_.add(ids().term_exit); break;
    case TerminationReason::kBug: stats_.add(ids().term_bug); break;
    case TerminationReason::kInfeasible:
      stats_.add(ids().term_infeasible);
      break;
    case TerminationReason::kRecursionLimit:
      stats_.add(ids().term_recursion);
      break;
    default: break;
  }
  stats_.add(ids().term_insts, state.instructions);
  obs::trace_instant(obs::Category::kVm, ids().ev_terminate, clock_.now(),
                     static_cast<std::uint64_t>(reason), ids().arg_reason,
                     state.instructions, ids().arg_insts);
  if (live_states_ > 0) --live_states_;
}

void Executor::record_test_case(const ExecutionState& state,
                                const std::string& why) {
  if (test_cases_.size() >= kMaxTestCases) return;
  TestCase tc;
  tc.input = extract_input(*state.model);
  tc.state_id = state.id;
  tc.generated_at_ticks = clock_.now();
  tc.reason = why;
  test_cases_.push_back(std::move(tc));
}

// --- Guards --------------------------------------------------------------------

bool Executor::guard(ExecutionState& state, const ExprRef& error_cond,
                     BugKind kind, const std::string& message,
                     ConcolicCtx* ctx, bool concolic_feasibility) {
  if (error_cond->is_false()) return true;

  if (ctx != nullptr) {
    // Concolic: the seed's concrete behaviour decides the path (Algorithm
    // 2's isFindBug()).
    clock_.advance(1);
    if (error_cond->is_true() || ctx->seed_eval->evaluate_bool(error_cond)) {
      report_bug(state, kind, message, *ctx->seed);
      terminate(state, TerminationReason::kBug);
      return false;
    }
    // For fixed-size internal buffers, the symbolic half of the lockstep
    // additionally asks whether ANOTHER input could violate the access —
    // exactly what KLEE's seeded mode reports (the paper's libpng month
    // bug lives in straight-line code only this check can reach).
    if (concolic_feasibility && ctx->offpath_bug_checks) {
      Assignment witness(*ctx->seed);
      if (solver_.check_sat(state.constraints, error_cond, &witness,
                            ctx->seed) == SolverResult::kSat) {
        report_bug(state, kind, message, witness);
        stats_.add(ids().concolic_offpath_bugs);
      }
    }
    state.constraints.add(mk_lnot(error_cond));
    return true;
  }

  if (error_cond->is_true()) {
    report_bug(state, kind, message, *state.model);
    terminate(state, TerminationReason::kBug);
    return false;
  }

  const ExprRef ok = mk_lnot(error_cond);
  clock_.advance(1);
  if (eval_model(state, error_cond) != 0) {
    // The current model triggers the bug: report it, then try to continue
    // on the ok side with a repaired model.
    report_bug(state, kind, message, *state.model);
    Assignment repaired(*state.model);
    if (solver_.check_sat(state.constraints, ok, &repaired,
                          state.model) == SolverResult::kSat) {
      state.constraints.add(ok);
      state.model = std::make_shared<Assignment>(std::move(repaired));
      return true;
    }
    terminate(state, TerminationReason::kBug);
    return false;
  }

  // Model is fine; ask whether some other input could trigger the bug.
  Assignment witness(*state.model);
  if (solver_.check_sat(state.constraints, error_cond, &witness,
                        state.model) == SolverResult::kSat) {
    report_bug(state, kind, message, witness);
    stats_.add(ids().offpath_bugs);
  }
  state.constraints.add(ok);
  return true;
}

// --- Memory --------------------------------------------------------------------

std::optional<Executor::Access> Executor::check_access(ExecutionState& state,
                                                       const Pointer& ptr,
                                                       unsigned bytes,
                                                       bool is_write,
                                                       ConcolicCtx* ctx) {
  const Assignment& concretizer =
      ctx != nullptr ? *ctx->seed : *state.model;
  if (ptr.is_null()) {  // the null pointer carries no offset expr: check first
    report_bug(state, BugKind::kNullDeref, "dereference of null pointer",
               concretizer);
    terminate(state, TerminationReason::kBug);
    return std::nullopt;
  }
  // Concolic feasibility checks are worthwhile for fixed-size internal
  // buffers indexed by SHALLOW input-derived expressions (the paper's
  // table-lookup bug pattern); offsets derived from deep computation
  // (e.g. LZW-decoded data) are left to phase exploration, which parks
  // states next to the branches that produce them.
  const bool internal_object =
      ptr.object != input_object_ &&
      (ptr.offset->is_constant() || expr_cost(ptr.offset) <= 512);
  const MemObject* obj = state.memory.find(ptr.object);
  if (obj == nullptr) {
    // The object was erased on frame return: a dangling pointer.
    report_bug(state, BugKind::kUseAfterReturn,
               "access through a dangling pointer", concretizer);
    terminate(state, TerminationReason::kBug);
    return std::nullopt;
  }
  if (options_.detect_use_after_return && !obj->alive) {
    report_bug(state, BugKind::kUseAfterReturn,
               "access to object after its frame returned (" + obj->name + ")",
               concretizer);
    terminate(state, TerminationReason::kBug);
    return std::nullopt;
  }
  if (is_write && !obj->writable) {
    report_bug(state, BugKind::kOutOfBoundsWrite,
               "write to read-only object (" + obj->name + ")", concretizer);
    terminate(state, TerminationReason::kBug);
    return std::nullopt;
  }

  const BugKind oob_kind =
      is_write ? BugKind::kOutOfBoundsWrite : BugKind::kOutOfBoundsRead;
  const std::string what = is_write ? "write" : "read";

  if (ptr.offset->is_constant()) {
    const std::uint64_t off = ptr.offset->constant_value();
    if (off + bytes > obj->size || off + bytes < off) {
      report_bug(state, oob_kind,
                 "out-of-bounds " + what + " of " + obj->name + " at offset " +
                     std::to_string(off) + " (size " +
                     std::to_string(obj->size) + ")",
                 concretizer);
      terminate(state, TerminationReason::kBug);
      return std::nullopt;
    }
    return Access{ptr.object, off};
  }

  // Symbolic offset: OOB iff offset + bytes > size (including wraparound).
  const ExprRef end = mk_add(ptr.offset, mk_const(bytes, 64));
  const ExprRef oob = mk_lor(mk_ult(mk_const(obj->size, 64), end),
                             mk_ult(end, ptr.offset));
  if (!guard(state, oob, oob_kind,
             "out-of-bounds " + what + " of " + obj->name +
                 " at symbolic offset",
             ctx, /*concolic_feasibility=*/internal_object))
    return std::nullopt;

  // Concretize the (now in-bounds) offset along this path.
  clock_.advance(1);
  const std::uint64_t off = ctx != nullptr
                                ? ctx->seed_eval->evaluate(ptr.offset)
                                : eval_model(state, ptr.offset);
  state.constraints.add(mk_eq(ptr.offset, mk_const(off, 64)));
  stats_.add(ids().concretized_offsets);
  assert(off + bytes <= obj->size);
  return Access{ptr.object, off};
}

ExprRef Executor::load_bytes(const ExecutionState& state, std::uint32_t object,
                             std::uint64_t offset, unsigned width) const {
  const MemObject* obj = state.memory.find(object);
  const unsigned n = width / 8;
  ExprRef value = obj->bytes[offset];
  for (unsigned i = 1; i < n; ++i)
    value = mk_concat(obj->bytes[offset + i], value);  // little-endian
  return value;
}

void Executor::store_bytes(ExecutionState& state, std::uint32_t object,
                           std::uint64_t offset, const ExprRef& value) {
  MemObject& obj = state.memory.ensure_unique(object);
  const unsigned n = value->width() / 8;
  for (unsigned i = 0; i < n; ++i)
    obj.bytes[offset + i] = mk_extract(value, 8 * i, 8);
}

// --- Branches -------------------------------------------------------------------

void Executor::execute_branch(
    ExecutionState& state, const ir::Instruction& inst,
    std::vector<std::unique_ptr<ExecutionState>>* forked, ConcolicCtx* ctx) {
  const ExprRef cond = eval_int(state, inst.ops[0]);

  if (cond->is_constant()) {
    enter_block(state, cond->constant_value() != 0 ? inst.bb_then
                                                   : inst.bb_else);
    return;
  }

  if (ctx != nullptr) {
    // Concolic: follow the seed; record the off-path side as a seedState
    // parked AT this branch (it re-executes the branch on activation, once
    // its model has been validated against the flipped constraint).
    clock_.advance(1);
    const bool dir = ctx->seed_eval->evaluate_bool(cond);
    const ExprRef taken = dir ? cond : mk_lnot(cond);
    stats_.add(ids().symbolic_branches);

    // Algorithm 2 records one seedState per symbolic branch: the FLIPPED
    // (unexplored) direction only. The seed-following side needs no
    // snapshot — the concolic state itself keeps walking it, and phase
    // scheduling re-enters seed-path code through the flipped states'
    // symbolic re-execution. Record-time dedup keeps only the EARLIEST
    // seedState per fork point — the paper's Sec. III-B3 selection.
    const std::uint64_t fork_point =
        (std::uint64_t{state.current_global_bb()} << 32) |
        state.frame().inst;
    if (concolic_seen_forks_.insert(fork_point).second) {
      ForkRecord record;
      record.fork_ticks = clock_.now();
      record.fork_bb = state.current_global_bb();
      record.fork_inst = state.frame().inst;
      auto child = state.fork(allocate_state_id());
      child->born_at_ticks = clock_.now();
      child->fork_bb = record.fork_bb;
      child->fork_inst = record.fork_inst;
      if (child->constraints.add(mk_lnot(taken))) {
        obs::trace_instant(obs::Category::kConcolic, ids().ev_seed_state,
                           clock_.now(), record.fork_bb, ids().arg_bb,
                           child->id, ids().arg_state);
        record.state = std::shared_ptr<ExecutionState>(std::move(child));
        ctx->fork_records->push_back(std::move(record));
        stats_.add(ids().seed_states);
      }
    } else {
      stats_.add(ids().seed_states_deduped);
    }

    state.constraints.add(taken);
    enter_block(state, dir ? inst.bb_then : inst.bb_else);
    return;
  }

  // Symbolic: follow the model's direction for free; query only the other.
  clock_.advance(1);
  const bool dir = eval_model(state, cond) != 0;
  const ExprRef taken = dir ? cond : mk_lnot(cond);
  const ExprRef other = mk_lnot(taken);

  if (forked != nullptr && live_states_ < kMaxLiveStates) {
    Assignment other_model(*state.model);
    const SolverResult r = solver_.check_sat(state.constraints, other,
                                             &other_model, state.model);
    if (r == SolverResult::kSat) {
      auto child = state.fork(allocate_state_id());
      child->born_at_ticks = clock_.now();
      child->fork_bb = state.current_global_bb();
      child->fork_inst = state.frame().inst;
      child->constraints.add(other);
      child->model = std::make_shared<Assignment>(std::move(other_model));
      obs::trace_instant(obs::Category::kVm, ids().ev_fork, clock_.now(),
                         state.current_global_bb(), ids().arg_bb, child->id,
                         ids().arg_state);
      ++live_states_;
      enter_block(*child, dir ? inst.bb_else : inst.bb_then);
      stats_.add(ids().forks);
      forked->push_back(std::move(child));
    } else if (r == SolverResult::kUnknown) {
      stats_.add(ids().fork_unknown);
      PBSE_LOG_DEBUG << "fork unknown in " << state.frame().fn->name()
                     << " line " << inst.line << ": " << other->to_string();
    } else {
      stats_.add(ids().fork_unsat);
    }
  } else {
    stats_.add(ids().fork_suppressed);
  }

  state.constraints.add(taken);
  enter_block(state, dir ? inst.bb_then : inst.bb_else);
}

// --- Main dispatch -----------------------------------------------------------------

void Executor::step(ExecutionState& state,
                    std::vector<std::unique_ptr<ExecutionState>>& forked) {
  execute(state, &forked, nullptr);
}

void Executor::step_concolic(ExecutionState& state, const Assignment& seed,
                             CachingEvaluator& seed_eval,
                             std::vector<ForkRecord>& fork_records,
                             bool offpath_bug_checks) {
  // The evaluator owns a shared reference to the seed assignment; reuse it
  // so feasibility queries get a cache-friendly hint.
  (void)seed;
  ConcolicCtx ctx{seed_eval.assignment(), &seed_eval, &fork_records,
                  offpath_bug_checks};
  execute(state, nullptr, &ctx);
}

std::uint64_t Executor::eval_model(ExecutionState& state, const ExprRef& e) {
  if (state.model_eval == nullptr ||
      state.model_eval->assignment().get() != state.model.get()) {
    state.model_eval = std::make_shared<CachingEvaluator>(state.model);
  }
  return state.model_eval->evaluate(e);
}

bool Executor::validate_model(ExecutionState& state) {
  if (state.model_eval == nullptr ||
      state.model_eval->assignment() != state.model) {
    if (validation_eval_ == nullptr ||
        validation_eval_->assignment() != state.model)
      validation_eval_ = std::make_shared<CachingEvaluator>(state.model);
    state.model_eval = validation_eval_;
  }
  // Fast path: the recorded model may already satisfy the constraints.
  std::vector<ExprRef> violated;
  for (const auto& c : state.constraints.constraints()) {
    clock_.advance(1);
    if (eval_model(state, c) == 0) violated.push_back(c);
  }
  if (violated.empty()) return true;

  Assignment repaired(*state.model);
  // Repair only the violated constraints' independent slice — usually a
  // seedState's model (the seed) violates exactly the flipped branch
  // constraint. This is sound: the untouched partitions' bytes keep
  // satisfying the constraints they are connected to, and it is vastly
  // cheaper than re-solving the whole path. Multiple violations are folded
  // into one conjunction query so the slice still covers them all.
  ExprRef repair_query = violated.front();
  for (std::size_t i = 1; i < violated.size(); ++i)
    repair_query = mk_land(repair_query, violated[i]);
  const SolverResult r =
      solver_.check_sat(state.constraints, repair_query, &repaired,
                        state.model);
  if (r != SolverResult::kSat) {
    stats_.add(r == SolverResult::kUnsat ? ids().seedstate_unsat
                                         : ids().seedstate_unknown);
    terminate(state, TerminationReason::kInfeasible);
    return false;
  }
  state.model = std::make_shared<Assignment>(std::move(repaired));
  stats_.add(ids().seedstate_repaired);
  return true;
}

void Executor::execute(ExecutionState& state,
                       std::vector<std::unique_ptr<ExecutionState>>* forked,
                       ConcolicCtx* ctx) {
  assert(!state.done() && !state.stack.empty());
  const ir::Instruction& inst = state.current_inst();
  clock_.advance(kTicksPerInstruction);
  ++state.instructions;
  StackFrame& f = state.frame();

  auto set_result = [&](Value v) {
    state.frame().regs[inst.result] = std::move(v);
  };

  switch (inst.op) {
    case ir::Opcode::kAlloca: {
      const std::uint32_t id = state.memory.add(MemObject::make(
          inst.alloca_size, "alloca in " + f.fn->name()));
      f.allocas.push_back(id);
      set_result(Value::from_ptr(Pointer::to(id, mk_const(0, 64))));
      ++f.inst;
      return;
    }

    case ir::Opcode::kLoad: {
      Value p = eval_operand(state, inst.ops[0]);
      assert(p.is_ptr());
      auto access = check_access(state, p.p, inst.width / 8, false, ctx);
      if (!access) return;
      set_result(Value::from_int(load_bytes(state, access->object,
                                            access->concrete_offset,
                                            inst.width)));
      ++state.frame().inst;
      return;
    }

    case ir::Opcode::kStore: {
      Value p = eval_operand(state, inst.ops[0]);
      assert(p.is_ptr());
      const ExprRef value = eval_int(state, inst.ops[1]);
      auto access = check_access(state, p.p, value->width() / 8, true, ctx);
      if (!access) return;
      store_bytes(state, access->object, access->concrete_offset, value);
      ++state.frame().inst;
      return;
    }

    case ir::Opcode::kGep: {
      Value p = eval_operand(state, inst.ops[0]);
      assert(p.is_ptr());
      const ExprRef delta = eval_int(state, inst.ops[1]);
      assert(delta->width() == 64);
      if (p.p.is_null()) {
        // Pointer arithmetic on null stays null; the eventual dereference
        // reports the bug.
        set_result(Value::from_ptr(Pointer::null()));
      } else {
        set_result(Value::from_ptr(
            Pointer::to(p.p.object, mk_add(p.p.offset, delta))));
      }
      ++f.inst;
      return;
    }

    case ir::Opcode::kBin: {
      const ExprRef a = eval_int(state, inst.ops[0]);
      const ExprRef b = eval_int(state, inst.ops[1]);
      const ir::BinOp op = bin_of(inst);
      if (op == ir::BinOp::kUDiv || op == ir::BinOp::kSDiv ||
          op == ir::BinOp::kURem || op == ir::BinOp::kSRem) {
        if (!guard(state, mk_eq(b, mk_const(0, b->width())),
                   BugKind::kDivByZero, "division by zero", ctx))
          return;
      }
      ExprRef r;
      switch (op) {
        case ir::BinOp::kAdd: r = mk_add(a, b); break;
        case ir::BinOp::kSub: r = mk_sub(a, b); break;
        case ir::BinOp::kMul: r = mk_mul(a, b); break;
        case ir::BinOp::kUDiv: r = mk_udiv(a, b); break;
        case ir::BinOp::kSDiv: r = mk_sdiv(a, b); break;
        case ir::BinOp::kURem: r = mk_urem(a, b); break;
        case ir::BinOp::kSRem: r = mk_srem(a, b); break;
        case ir::BinOp::kAnd: r = mk_and(a, b); break;
        case ir::BinOp::kOr: r = mk_or(a, b); break;
        case ir::BinOp::kXor: r = mk_xor(a, b); break;
        case ir::BinOp::kShl: r = mk_shl(a, b); break;
        case ir::BinOp::kLShr: r = mk_lshr(a, b); break;
        case ir::BinOp::kAShr: r = mk_ashr(a, b); break;
      }
      set_result(Value::from_int(std::move(r)));
      ++state.frame().inst;
      return;
    }

    case ir::Opcode::kCmp: {
      Value va = eval_operand(state, inst.ops[0]);
      Value vb = eval_operand(state, inst.ops[1]);
      ExprRef r;
      if (va.is_ptr() || vb.is_ptr()) {
        assert(va.is_ptr() && vb.is_ptr());
        assert(inst.pred == ir::CmpPred::kEq || inst.pred == ir::CmpPred::kNe);
        ExprRef eq;
        if (va.p.is_null() && vb.p.is_null())
          eq = mk_bool(true);
        else if (va.p.is_null() || vb.p.is_null())
          eq = mk_bool(false);
        else if (va.p.object == vb.p.object)
          eq = mk_eq(va.p.offset, vb.p.offset);
        else
          eq = mk_bool(false);
        r = inst.pred == ir::CmpPred::kEq ? eq : mk_lnot(eq);
      } else {
        const ExprRef a = va.i;
        const ExprRef b = vb.i;
        switch (inst.pred) {
          case ir::CmpPred::kEq: r = mk_eq(a, b); break;
          case ir::CmpPred::kNe: r = mk_ne(a, b); break;
          case ir::CmpPred::kUlt: r = mk_ult(a, b); break;
          case ir::CmpPred::kUle: r = mk_ule(a, b); break;
          case ir::CmpPred::kUgt: r = mk_ugt(a, b); break;
          case ir::CmpPred::kUge: r = mk_uge(a, b); break;
          case ir::CmpPred::kSlt: r = mk_slt(a, b); break;
          case ir::CmpPred::kSle: r = mk_sle(a, b); break;
          case ir::CmpPred::kSgt: r = mk_sgt(a, b); break;
          case ir::CmpPred::kSge: r = mk_sge(a, b); break;
        }
      }
      set_result(Value::from_int(std::move(r)));
      ++f.inst;
      return;
    }

    case ir::Opcode::kCast: {
      const ExprRef v = eval_int(state, inst.ops[0]);
      ExprRef r;
      switch (inst.cast) {
        case ir::CastOp::kZExt: r = mk_zext(v, inst.width); break;
        case ir::CastOp::kSExt: r = mk_sext(v, inst.width); break;
        case ir::CastOp::kTrunc: r = mk_extract(v, 0, inst.width); break;
      }
      set_result(Value::from_int(std::move(r)));
      ++f.inst;
      return;
    }

    case ir::Opcode::kSelect: {
      const ExprRef c = eval_int(state, inst.ops[0]);
      const ExprRef a = eval_int(state, inst.ops[1]);
      const ExprRef b = eval_int(state, inst.ops[2]);
      set_result(Value::from_int(mk_select(c, a, b)));
      ++f.inst;
      return;
    }

    case ir::Opcode::kBr:
      execute_branch(state, inst, forked, ctx);
      return;

    case ir::Opcode::kJmp:
      enter_block(state, inst.bb_then);
      return;

    case ir::Opcode::kCall: {
      if (state.stack.size() >= options_.max_call_depth) {
        stats_.add(ids().recursion_limit);
        terminate(state, TerminationReason::kRecursionLimit);
        return;
      }
      const ir::Function* callee = module_.function(inst.callee);
      StackFrame frame;
      frame.fn = callee;
      frame.regs.resize(callee->num_regs());
      frame.slots.resize(callee->num_slots());
      frame.ret_reg = inst.result;
      for (std::size_t i = 0; i < inst.ops.size(); ++i)
        frame.regs[i] = eval_operand(state, inst.ops[i]);
      ++f.inst;  // the caller resumes after the call
      state.stack.push_back(std::move(frame));
      enter_block(state, 0);
      return;
    }

    case ir::Opcode::kRet: {
      Value result = inst.ops.empty() ? Value::none()
                                      : eval_operand(state, inst.ops[0]);
      // Retire this frame's allocas.
      if (options_.detect_use_after_return) {
        for (std::uint32_t id : f.allocas)
          state.memory.ensure_unique(id).alive = false;
      } else {
        for (std::uint32_t id : f.allocas) state.memory.erase(id);
      }
      const std::uint32_t ret_reg = f.ret_reg;
      state.stack.pop_back();
      if (state.stack.empty()) {
        terminate(state, TerminationReason::kExit);
        record_test_case(state, "exit");
        return;
      }
      if (ret_reg != ir::kNoReg) state.frame().regs[ret_reg] = std::move(result);
      return;
    }

    case ir::Opcode::kIntrinsic: {
      switch (inst.intrinsic) {
        case ir::Intrinsic::kOut: {
          const ExprRef v = eval_int(state, inst.ops[0]);
          if (out_log_.size() < 4096)
            out_log_.push_back(ctx != nullptr ? ctx->seed_eval->evaluate(v)
                                              : eval_model(state, v));
          stats_.add(ids().out_calls);
          break;
        }
        case ir::Intrinsic::kAssert: {
          const ExprRef cond = eval_int(state, inst.ops[0]);
          if (!guard(state, mk_lnot(cond), BugKind::kAssertFail,
                     "check() failed", ctx))
            return;
          break;
        }
        case ir::Intrinsic::kAbort:
          terminate(state, TerminationReason::kExit);
          record_test_case(state, "stop");
          return;
        case ir::Intrinsic::kCheckedAdd: {
          const ExprRef a = eval_int(state, inst.ops[0]);
          const ExprRef b = eval_int(state, inst.ops[1]);
          const ExprRef sum = mk_add(a, b);
          // Unsigned wraparound: sum < a.
          if (!guard(state, mk_ult(sum, a), BugKind::kIntegerOverflow,
                     "integer overflow in checked_add", ctx))
            return;
          set_result(Value::from_int(sum));
          break;
        }
        case ir::Intrinsic::kCheckedMul: {
          const ExprRef a = eval_int(state, inst.ops[0]);
          const ExprRef b = eval_int(state, inst.ops[1]);
          const unsigned w = a->width();
          const ExprRef product = mk_mul(a, b);
          ExprRef overflow;
          if (w <= 32) {
            const ExprRef wide = mk_mul(mk_zext(a, 2 * w), mk_zext(b, 2 * w));
            overflow = mk_ult(mk_const(truncate_to_width(~std::uint64_t{0}, w),
                                       2 * w),
                              wide);
          } else {
            // w == 64: a*b overflows iff b != 0 and (a*b)/b != a.
            overflow = mk_and(mk_ne(b, mk_const(0, w)),
                              mk_ne(mk_udiv(product, b), a));
          }
          if (!guard(state, overflow, BugKind::kIntegerOverflow,
                     "integer overflow in checked_mul", ctx))
            return;
          set_result(Value::from_int(product));
          break;
        }
      }
      ++state.frame().inst;
      return;
    }

    case ir::Opcode::kSlotGet:
      set_result(Value::from_ptr(f.slots[inst.slot]));
      ++f.inst;
      return;

    case ir::Opcode::kSlotSet: {
      Value v = eval_operand(state, inst.ops[0]);
      assert(v.is_ptr());
      f.slots[inst.slot] = std::move(v.p);
      ++f.inst;
      return;
    }

    case ir::Opcode::kGlobalAddr:
      set_result(Value::from_ptr(Pointer::to(inst.slot, mk_const(0, 64))));
      ++f.inst;
      return;

    case ir::Opcode::kUnreachable:
      terminate(state, TerminationReason::kInfeasible);
      stats_.add(ids().unreachable);
      return;
  }
}

}  // namespace pbse::vm
