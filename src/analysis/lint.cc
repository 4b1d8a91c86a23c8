// Bug-sink lint (DESIGN.md §12): classifies every potential bug site the
// VM guards at runtime — division/remainder by zero, out-of-bounds memory
// access through computed offsets, and wrapping checked arithmetic — as
// provably-safe, possibly-unsafe or provably-buggy under the SCCP facts.
//
// Out-of-bounds reasoning uses pointer provenance: registers are
// single-assignment and the IR has no phis, so walking a pointer's def
// chain (gep -> ... -> alloca/global_addr) is loop-free and yields the
// underlying object's byte size plus an interval for the accumulated
// offset. Pointers that flow through calls, slots or selects have unknown
// provenance and produce no finding — every MiniC indexed access stays a
// gep chain over an alloca or global, which is where the seeded bugs live.
//
// Findings in statically-unreachable blocks are skipped (their facts are
// bottom and the site cannot execute). ModuleAnalysis::sink_blocks() lists
// the blocks of the non-safe findings.
#include <string>

#include "analysis/analysis.h"

namespace pbse::analysis {

namespace {

using ir::Instruction;
using ir::Opcode;
using ir::Operand;

struct Provenance {
  bool known = false;
  bool indexed = false;  // at least one gep in the chain
  std::uint64_t object_size = 0;
  std::string object_name;
  ValueFact offset;  // unsigned byte offset from the object base
};

class LintPass final : public Pass {
 public:
  const char* name() const override { return "sink-lint"; }

  std::uint64_t run(const ir::Module& module, ModuleAnalysis& out) override {
    module_ = &module;
    out_ = &out;
    std::uint64_t work = 0;
    for (std::uint32_t fi = 0; fi < module.num_functions(); ++fi) {
      const ir::Function& fn = *module.function(fi);
      build_def_map(fn);
      for (std::uint32_t b = 0; b < fn.num_blocks(); ++b) {
        const ir::BasicBlock& bb = fn.block(b);
        if (bb.global_id < out.unreachable_blocks.size() &&
            out.unreachable_blocks[bb.global_id])
          continue;
        for (std::uint32_t ii = 0; ii < bb.insts.size(); ++ii) {
          ++work;
          check_inst(fi, fn, bb, ii);
        }
      }
    }
    return work;
  }

 private:
  void build_def_map(const ir::Function& fn) {
    defs_.assign(fn.num_regs(), nullptr);
    for (const ir::BasicBlock& bb : fn.blocks())
      for (const Instruction& inst : bb.insts)
        if (inst.result != ir::kNoReg) defs_[inst.result] = &inst;
  }

  ValueFact operand_fact(std::uint32_t fi, const Operand& op) const {
    ValueFact f;
    if (op.is_const())
      f = ValueFact::constant(op.cval, op.type.is_int() ? op.type.width : 64);
    else if (op.is_reg())
      f = out_->reg_facts[fi][op.reg];
    // Bottom operands (dead code the reachability sweep kept, or values of
    // unanalyzed shape) are treated as unknown, never as proof.
    const unsigned w = op.type.is_int() ? op.type.width : 64;
    return f.is_bottom() ? ValueFact::top(w) : f;
  }

  /// Walks the def chain of a pointer register. Register single-assignment
  /// makes this acyclic; depth only guards against pathological IR.
  Provenance resolve_pointer(std::uint32_t fi, const Operand& op,
                             int depth = 0) const {
    Provenance p;
    if (!op.is_reg() || depth > 64) return p;
    const Instruction* def = defs_[op.reg];
    if (def == nullptr) return p;
    switch (def->op) {
      case Opcode::kAlloca:
        p.known = true;
        p.object_size = def->alloca_size;
        p.object_name = "alloca";
        p.offset = ValueFact::constant(0, 64);
        return p;
      case Opcode::kGlobalAddr:
        p.known = true;
        p.object_size = module_->global(def->slot).size;
        p.object_name = module_->global(def->slot).name;
        p.offset = ValueFact::constant(0, 64);
        return p;
      case Opcode::kGep: {
        p = resolve_pointer(fi, def->ops[0], depth + 1);
        if (!p.known) return p;
        p.indexed = true;
        const ValueFact delta = operand_fact(fi, def->ops[1]);
        std::uint64_t hi;
        if (__builtin_add_overflow(p.offset.hi, delta.hi, &hi)) {
          p.offset = ValueFact::top(64);
        } else {
          p.offset = ValueFact::interval(p.offset.lo + delta.lo, hi, 64);
        }
        return p;
      }
      default:
        return p;  // slot loads, call results, selects: unknown provenance
    }
  }

  void emit(SinkKind kind, Verdict verdict, std::uint32_t fi,
            const ir::BasicBlock& bb, std::uint32_t ii, std::string message) {
    SinkFinding f;
    f.kind = kind;
    f.verdict = verdict;
    f.severity = verdict == Verdict::kProvablyBuggy  ? Severity::kError
                 : verdict == Verdict::kPossiblyUnsafe ? Severity::kWarning
                                                       : Severity::kInfo;
    f.function = fi;
    f.block = bb.global_id;
    f.inst = ii;
    f.line = bb.insts[ii].line;
    f.message = std::move(message);
    out_->findings.push_back(std::move(f));
  }

  void check_inst(std::uint32_t fi, const ir::Function& fn,
                  const ir::BasicBlock& bb, std::uint32_t ii) {
    const Instruction& inst = bb.insts[ii];
    switch (inst.op) {
      case Opcode::kBin: {
        if (inst.bin != ir::BinOp::kUDiv && inst.bin != ir::BinOp::kSDiv &&
            inst.bin != ir::BinOp::kURem && inst.bin != ir::BinOp::kSRem)
          return;
        const ValueFact divisor = operand_fact(fi, inst.ops[1]);
        Verdict v = Verdict::kProvablySafe;
        if (divisor.is_constant() && divisor.lo == 0)
          v = Verdict::kProvablyBuggy;
        else if (divisor.contains(0))
          v = Verdict::kPossiblyUnsafe;
        emit(SinkKind::kDivByZero, v, fi, bb, ii,
             fn.name() + ": divisor " + divisor.to_string());
        return;
      }
      case Opcode::kLoad:
      case Opcode::kStore: {
        const Provenance p = resolve_pointer(fi, inst.ops[0]);
        if (!p.known || !p.indexed) return;
        const unsigned width = inst.op == Opcode::kLoad
                                   ? inst.width
                                   : (inst.ops[1].type.is_int()
                                          ? inst.ops[1].type.width
                                          : 64);
        const std::uint64_t bytes = width / 8;
        Verdict v = Verdict::kPossiblyUnsafe;
        std::uint64_t end_hi;
        const bool hi_wraps =
            __builtin_add_overflow(p.offset.hi, bytes, &end_hi);
        if (!hi_wraps && end_hi <= p.object_size)
          v = Verdict::kProvablySafe;
        else if (p.offset.lo + bytes > p.object_size)
          v = Verdict::kProvablyBuggy;
        emit(SinkKind::kOobIndex, v, fi, bb, ii,
             fn.name() + ": " +
                 (inst.op == Opcode::kLoad ? "load of " : "store of ") +
                 std::to_string(bytes) + " bytes at offset " +
                 p.offset.to_string() + " into " +
                 std::to_string(p.object_size) + "-byte object '" +
                 p.object_name + "'");
        return;
      }
      case Opcode::kIntrinsic: {
        if (inst.intrinsic != ir::Intrinsic::kCheckedAdd &&
            inst.intrinsic != ir::Intrinsic::kCheckedMul)
          return;
        const bool is_add = inst.intrinsic == ir::Intrinsic::kCheckedAdd;
        const ValueFact a = operand_fact(fi, inst.ops[0]);
        const ValueFact b = operand_fact(fi, inst.ops[1]);
        const std::uint64_t max = ValueFact::width_max(inst.width);
        std::uint64_t worst, best;
        const bool worst_wraps =
            is_add ? __builtin_add_overflow(a.hi, b.hi, &worst) || worst > max
                   : __builtin_mul_overflow(a.hi, b.hi, &worst) || worst > max;
        const bool best_wraps =
            is_add ? __builtin_add_overflow(a.lo, b.lo, &best) || best > max
                   : __builtin_mul_overflow(a.lo, b.lo, &best) || best > max;
        Verdict v = Verdict::kProvablySafe;
        if (best_wraps)
          v = Verdict::kProvablyBuggy;
        else if (worst_wraps)
          v = Verdict::kPossiblyUnsafe;
        emit(SinkKind::kOverflow, v, fi, bb, ii,
             fn.name() + ": " + (is_add ? "checked_add" : "checked_mul") +
                 ":i" + std::to_string(inst.width) + " of " + a.to_string() +
                 " and " + b.to_string());
        return;
      }
      default:
        return;
    }
  }

  const ir::Module* module_ = nullptr;
  ModuleAnalysis* out_ = nullptr;
  std::vector<const Instruction*> defs_;
};

}  // namespace

std::unique_ptr<Pass> make_lint_pass() { return std::make_unique<LintPass>(); }

}  // namespace pbse::analysis
