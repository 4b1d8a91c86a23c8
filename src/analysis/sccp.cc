// Interprocedural sparse conditional constant propagation over the joined
// constant/interval lattice (DESIGN.md §12).
//
// Intra-procedurally this is textbook SCCP: blocks become executable only
// when an executable predecessor edge reaches them, and branch conditions
// that evaluate to a lattice constant keep the dead side non-executable.
// The value domain is ValueFact (unsigned intervals with constants as the
// degenerate case), so comparisons whose operand intervals are disjoint or
// nested decide branches that pure constant propagation cannot.
//
// Two extensions beyond registers:
//   * Memory-free locals: an alloca whose pointer is used ONLY as the
//     direct address of loads and stores (never offset, stored, passed or
//     returned) is modelled as a scalar cell — the join of its zero
//     initialization and every stored fact. This is exactly the shape the
//     MiniC frontend emits for scalar variables.
//   * Interprocedural propagation: parameter facts are the join over all
//     executable call sites' argument facts, return facts the join over
//     executable ret operands; both iterate to a global fixpoint. Calls
//     are direct in this IR, so no indirect-call approximation is needed.
//
// Joins at accumulation points (cells, params, returns) widen to top after
// kWidenAfterJoins growth steps, bounding the fixpoint.
// After convergence a final sweep derives the infeasible-edge set and the
// statically-unreachable block set.
#include <algorithm>
#include <deque>

#include "analysis/analysis.h"
#include "ir/cfg.h"

namespace pbse::analysis {

namespace {

using ir::BinOp;
using ir::CastOp;
using ir::CmpPred;
using ir::Instruction;
using ir::Opcode;
using ir::Operand;

// --- Transfer functions -----------------------------------------------------

/// Highest set bit of v, as an all-ones cover (0b10110 -> 0b11111).
std::uint64_t ones_cover(std::uint64_t v) {
  v |= v >> 1;
  v |= v >> 2;
  v |= v >> 4;
  v |= v >> 8;
  v |= v >> 16;
  v |= v >> 32;
  return v;
}

ValueFact transfer_bin(BinOp op, const ValueFact& a, const ValueFact& b,
                       unsigned w) {
  if (a.is_bottom() || b.is_bottom()) return ValueFact::bottom();
  const std::uint64_t max = ValueFact::width_max(w);
  switch (op) {
    case BinOp::kAdd: {
      std::uint64_t hi;
      if (__builtin_add_overflow(a.hi, b.hi, &hi) || hi > max)
        return ValueFact::top(w);
      return ValueFact::interval(a.lo + b.lo, hi, w);
    }
    case BinOp::kSub:
      if (a.lo < b.hi) return ValueFact::top(w);  // may wrap below zero
      return ValueFact::interval(a.lo - b.hi, a.hi - b.lo, w);
    case BinOp::kMul: {
      std::uint64_t hi;
      if (__builtin_mul_overflow(a.hi, b.hi, &hi) || hi > max)
        return ValueFact::top(w);
      return ValueFact::interval(a.lo * b.lo, hi, w);
    }
    case BinOp::kUDiv: {
      // Division by zero is a guarded bug: states that survive the guard
      // have a non-zero divisor, so the continuing fact may assume it.
      const std::uint64_t blo = std::max<std::uint64_t>(b.lo, 1);
      if (b.hi == 0) return ValueFact::constant(0, w);  // x/0 folds to 0
      return ValueFact::interval(a.lo / b.hi, a.hi / blo, w);
    }
    case BinOp::kURem: {
      if (b.hi == 0) return ValueFact::constant(0, w);
      const std::uint64_t hi = std::min(a.hi, b.hi - 1);
      if (a.hi < std::max<std::uint64_t>(b.lo, 1))
        return a;  // remainder is exact when the dividend is already smaller
      return ValueFact::interval(0, hi, w);
    }
    case BinOp::kAnd:
      return ValueFact::interval(0, std::min(a.hi, b.hi), w);
    case BinOp::kOr:
      return ValueFact::interval(std::max(a.lo, b.lo),
                                 std::min(max, ones_cover(a.hi | b.hi)), w);
    case BinOp::kXor:
      return ValueFact::interval(0, std::min(max, ones_cover(a.hi | b.hi)), w);
    case BinOp::kShl: {
      if (b.hi >= w) return ValueFact::top(w);  // shift >= width yields 0
      if (a.hi > (max >> b.hi)) return ValueFact::top(w);
      return ValueFact::interval(a.lo << b.lo, a.hi << b.hi, w);
    }
    case BinOp::kLShr:
      if (b.hi >= w) return ValueFact::top(w);
      return ValueFact::interval(a.lo >> b.hi, a.hi >> b.lo, w);
    case BinOp::kSDiv:
    case BinOp::kSRem:
    case BinOp::kAShr:
      // Signed operations need sign-pinned operands to say anything; the
      // unsigned corpus barely uses them, so stay conservative.
      return ValueFact::top(w);
  }
  return ValueFact::top(w);
}

/// Signed view of an interval that does not cross the sign boundary.
/// Returns false when the interval straddles it (signed order undecided).
bool signed_view(const ValueFact& v, std::int64_t& lo, std::int64_t& hi) {
  const std::uint64_t smax = ValueFact::width_max(v.width) >> 1;
  auto to_signed = [&](std::uint64_t x) {
    if (x <= smax) return static_cast<std::int64_t>(x);
    // Sign-extend from v.width to 64 bits.
    const std::uint64_t sign_bits = ~ValueFact::width_max(v.width);
    return static_cast<std::int64_t>(x | sign_bits);
  };
  if (v.hi <= smax || v.lo > smax) {
    lo = to_signed(v.lo);
    hi = to_signed(v.hi);
    return true;
  }
  return false;
}

ValueFact transfer_cmp(CmpPred pred, const ValueFact& a, const ValueFact& b) {
  if (a.is_bottom() || b.is_bottom()) return ValueFact::bottom();
  auto decided = [](int v) { return ValueFact::constant(v, 1); };
  const ValueFact undecided = ValueFact::top(1);

  switch (pred) {
    case CmpPred::kEq:
      if (a.is_constant() && b.is_constant()) return decided(a.lo == b.lo);
      if (a.hi < b.lo || b.hi < a.lo) return decided(0);
      return undecided;
    case CmpPred::kNe:
      if (a.is_constant() && b.is_constant()) return decided(a.lo != b.lo);
      if (a.hi < b.lo || b.hi < a.lo) return decided(1);
      return undecided;
    case CmpPred::kUlt:
      if (a.hi < b.lo) return decided(1);
      if (a.lo >= b.hi) return decided(0);
      return undecided;
    case CmpPred::kUle:
      if (a.hi <= b.lo) return decided(1);
      if (a.lo > b.hi) return decided(0);
      return undecided;
    case CmpPred::kUgt:
      return transfer_cmp(CmpPred::kUlt, b, a);
    case CmpPred::kUge:
      return transfer_cmp(CmpPred::kUle, b, a);
    case CmpPred::kSlt:
    case CmpPred::kSle:
    case CmpPred::kSgt:
    case CmpPred::kSge: {
      std::int64_t alo, ahi, blo, bhi;
      if (!signed_view(a, alo, ahi) || !signed_view(b, blo, bhi))
        return undecided;
      switch (pred) {
        case CmpPred::kSlt:
          if (ahi < blo) return decided(1);
          if (alo >= bhi) return decided(0);
          return undecided;
        case CmpPred::kSle:
          if (ahi <= blo) return decided(1);
          if (alo > bhi) return decided(0);
          return undecided;
        case CmpPred::kSgt:
          if (alo > bhi) return decided(1);
          if (ahi <= blo) return decided(0);
          return undecided;
        default:  // kSge
          if (alo >= bhi) return decided(1);
          if (ahi < blo) return decided(0);
          return undecided;
      }
    }
  }
  return undecided;
}

ValueFact transfer_cast(CastOp op, const ValueFact& v, unsigned from_w,
                        unsigned to_w) {
  if (v.is_bottom()) return ValueFact::bottom();
  switch (op) {
    case CastOp::kZExt:
      return ValueFact::interval(v.lo, v.hi, to_w);
    case CastOp::kSExt: {
      std::int64_t lo, hi;
      if (!signed_view(v, lo, hi)) return ValueFact::top(to_w);
      const std::uint64_t mask = ValueFact::width_max(to_w);
      const std::uint64_t ulo = static_cast<std::uint64_t>(lo) & mask;
      const std::uint64_t uhi = static_cast<std::uint64_t>(hi) & mask;
      // Same-sign endpoints keep unsigned order after masking.
      if (ulo <= uhi && (lo < 0) == (hi < 0))
        return ValueFact::interval(ulo, uhi, to_w);
      return ValueFact::top(to_w);
    }
    case CastOp::kTrunc:
      if (v.hi <= ValueFact::width_max(to_w))
        return ValueFact::interval(v.lo, v.hi, to_w);
      return ValueFact::top(to_w);
  }
  (void)from_w;
  return ValueFact::top(to_w);
}

// --- Join points with widening ----------------------------------------------

/// Joins at the same point beyond this count widen straight to top
/// (guarantees termination on loops without a narrowing pass).
constexpr std::uint32_t kWidenAfterJoins = 4;

/// A fact accumulated by joins (cell / parameter / return). Widens to top
/// once it has grown more than kWidenAfterJoins times.
struct JoinedFact {
  ValueFact fact;  // starts bottom
  std::uint32_t grows = 0;

  /// Joins `v` in; returns true if the fact changed.
  bool join(const ValueFact& v, unsigned width) {
    const ValueFact next = ValueFact::join(fact, v);
    if (next == fact) return false;
    if (++grows > kWidenAfterJoins) {
      const ValueFact top = ValueFact::top(width);
      if (fact == top) return false;
      fact = top;
      return true;
    }
    fact = next;
    return true;
  }
};

// --- The pass ---------------------------------------------------------------

class SccpPass final : public Pass {
 public:
  const char* name() const override { return "sccp-intervals"; }

  std::uint64_t run(const ir::Module& module, ModuleAnalysis& out) override {
    module_ = &module;
    out_ = &out;
    work_ = 0;

    const std::size_t nf = module.num_functions();
    out.reg_facts.assign(nf, {});
    funcs_.assign(nf, FuncState{});
    for (std::size_t fi = 0; fi < nf; ++fi) {
      const ir::Function& fn = *module.function(fi);
      out.reg_facts[fi].assign(fn.num_regs(), ValueFact::bottom());
      funcs_[fi].executable.assign(fn.num_blocks(), false);
      funcs_[fi].params.assign(fn.params().size(), JoinedFact{});
      find_cells(fi);
    }

    // Seed: entry parameters are unknown (top); pointer params carry no
    // value fact.
    const std::uint32_t entry = out.callgraph.entry;
    if (entry != ir::kNoFunc) {
      FuncState& es = funcs_[entry];
      const ir::Function& efn = *module.function(entry);
      for (std::size_t p = 0; p < es.params.size(); ++p) {
        const ir::Type t = efn.params()[p];
        if (t.is_int())
          es.params[p].fact = ValueFact::top(t.width);
      }
      enqueue_function(entry);
      while (!func_queue_.empty()) {
        const std::uint32_t fi = func_queue_.front();
        func_queue_.pop_front();
        funcs_[fi].queued = false;
        evaluate_function(fi);
      }
    }

    derive_results();
    return work_;
  }

 private:
  /// One memory-free local. The fact is sound only while every store uses
  /// one width: mixed-width stores can splice bytes of two stored values
  /// into a third outside the hull, so they poison the cell to top.
  struct Cell {
    JoinedFact joined;
    unsigned store_width = 0;  // 0 until the first store pins it
    bool poisoned = false;
  };

  struct FuncState {
    std::vector<bool> executable;       // per block
    std::vector<JoinedFact> params;     // per parameter
    JoinedFact ret;                     // join over executable ret operands
    bool evaluated = false;             // reached via an executable call
    bool queued = false;
    /// Memory-free locals: alloca result reg -> cell. kNoReg-keyed absent.
    std::vector<std::uint32_t> cell_of_reg;  // reg -> cell index or kNoReg
    std::vector<Cell> cells;
  };

  /// Identifies allocas usable as scalar cells: the pointer register is
  /// only ever the ADDRESS operand of loads and stores.
  void find_cells(std::size_t fi) {
    const ir::Function& fn = *module_->function(fi);
    FuncState& fs = funcs_[fi];
    fs.cell_of_reg.assign(fn.num_regs(), ir::kNoReg);

    std::vector<bool> is_alloca(fn.num_regs(), false);
    std::vector<bool> escaped(fn.num_regs(), false);
    for (const ir::BasicBlock& bb : fn.blocks()) {
      for (const Instruction& inst : bb.insts) {
        if (inst.op == Opcode::kAlloca && inst.result != ir::kNoReg)
          is_alloca[inst.result] = true;
        for (std::size_t oi = 0; oi < inst.ops.size(); ++oi) {
          const Operand& op = inst.ops[oi];
          if (!op.is_reg()) continue;
          const bool address_use =
              oi == 0 && (inst.op == Opcode::kLoad || inst.op == Opcode::kStore);
          if (!address_use) escaped[op.reg] = true;
        }
      }
    }
    for (std::uint32_t r = 0; r < fn.num_regs(); ++r) {
      if (!is_alloca[r] || escaped[r]) continue;
      fs.cell_of_reg[r] = static_cast<std::uint32_t>(fs.cells.size());
      fs.cells.push_back(Cell{});
      // Alloca memory starts zero-filled, but the frontend's store-then-
      // load locals would all degrade to [0, v] hulls if the implicit
      // zero always joined in. The dominator pass already ran: when some
      // store to the cell dominates every load from it, no load can
      // observe the initialization and the cell starts at bottom.
      fs.cells.back().joined.fact = zero_observable_by_loads(fn, fi, r)
                                        ? ValueFact::constant(0, 64)
                                        : ValueFact::bottom();
    }
  }

  /// True when some load through cell register `r` may see the alloca's
  /// zero fill, i.e. no single store to the cell dominates every load.
  bool zero_observable_by_loads(const ir::Function& fn, std::size_t fi,
                                std::uint32_t r) const {
    struct Site {
      std::uint32_t block;
      std::size_t index;
    };
    std::vector<Site> stores, loads;
    for (std::uint32_t b = 0; b < fn.num_blocks(); ++b) {
      const auto& insts = fn.block(b).insts;
      for (std::size_t i = 0; i < insts.size(); ++i) {
        const Instruction& inst = insts[i];
        if (!inst.ops.empty() && inst.ops[0].is_reg() && inst.ops[0].reg == r) {
          if (inst.op == Opcode::kLoad) loads.push_back({b, i});
          if (inst.op == Opcode::kStore) stores.push_back({b, i});
        }
      }
    }
    if (loads.empty()) return false;
    const DomTree& dom = out_->dominators[fi];
    for (const Site& s : stores) {
      bool covers_all = true;
      for (const Site& l : loads) {
        const bool dominated = s.block == l.block
                                   ? s.index < l.index
                                   : dom.dominates(s.block, l.block);
        covers_all = covers_all && dominated;
      }
      if (covers_all) return false;
    }
    return true;
  }

  void enqueue_function(std::uint32_t fi) {
    if (funcs_[fi].queued) return;
    funcs_[fi].queued = true;
    func_queue_.push_back(fi);
  }

  ValueFact operand_fact(std::size_t fi, const Operand& op) const {
    if (op.is_const())
      return ValueFact::constant(op.cval, op.type.is_int() ? op.type.width : 64);
    if (op.is_reg()) return out_->reg_facts[fi][op.reg];
    return ValueFact::bottom();
  }

  /// Runs one function to its intra-procedural fixpoint under the current
  /// parameter facts. Sweeps executable blocks until nothing changes;
  /// lattice height is bounded by widening, so this terminates.
  void evaluate_function(std::uint32_t fi) {
    const ir::Function& fn = *module_->function(fi);
    FuncState& fs = funcs_[fi];
    fs.evaluated = true;
    if (fn.num_blocks() == 0) return;

    // Parameters occupy registers 0..n-1.
    for (std::size_t p = 0; p < fs.params.size(); ++p)
      out_->reg_facts[fi][p] = fs.params[p].fact;

    fs.executable[0] = true;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t b = 0; b < fn.num_blocks(); ++b) {
        if (!fs.executable[b]) continue;
        if (evaluate_block(fi, b)) changed = true;
      }
    }
  }

  /// Evaluates one block's instructions. Returns true if any fact or the
  /// executable set changed.
  bool evaluate_block(std::uint32_t fi, std::uint32_t bi) {
    const ir::Function& fn = *module_->function(fi);
    FuncState& fs = funcs_[fi];
    std::vector<ValueFact>& regs = out_->reg_facts[fi];
    bool changed = false;

    auto set_reg = [&](std::uint32_t reg, const ValueFact& f) {
      if (reg == ir::kNoReg) return;
      if (regs[reg] == f) return;
      regs[reg] = f;
      changed = true;
    };

    for (const Instruction& inst : fn.block(bi).insts) {
      ++work_;
      switch (inst.op) {
        case Opcode::kBin:
          set_reg(inst.result,
                  transfer_bin(inst.bin, operand_fact(fi, inst.ops[0]),
                               operand_fact(fi, inst.ops[1]), inst.width));
          break;
        case Opcode::kCmp:
          set_reg(inst.result,
                  transfer_cmp(inst.pred, operand_fact(fi, inst.ops[0]),
                               operand_fact(fi, inst.ops[1])));
          break;
        case Opcode::kCast: {
          const Operand& src = inst.ops[0];
          const unsigned from_w = src.type.is_int() ? src.type.width : 64;
          set_reg(inst.result, transfer_cast(inst.cast,
                                             operand_fact(fi, src), from_w,
                                             inst.width));
          break;
        }
        case Opcode::kSelect: {
          const ValueFact cond = operand_fact(fi, inst.ops[0]);
          ValueFact result;
          if (cond.is_constant())
            result = operand_fact(fi, cond.lo != 0 ? inst.ops[1] : inst.ops[2]);
          else
            result = ValueFact::join(operand_fact(fi, inst.ops[1]),
                                     operand_fact(fi, inst.ops[2]));
          set_reg(inst.result, result);
          break;
        }
        case Opcode::kLoad: {
          ValueFact f = ValueFact::top(inst.width);
          const Operand& addr = inst.ops[0];
          if (addr.is_reg() && fs.cell_of_reg[addr.reg] != ir::kNoReg) {
            const Cell& cell = fs.cells[fs.cell_of_reg[addr.reg]];
            // Any load width is fine as long as the joined value fits in
            // it: narrower loads then read the value unmasked, wider loads
            // see the zero-filled upper bytes.
            if (!cell.poisoned &&
                cell.joined.fact.hi <= ValueFact::width_max(inst.width))
              f = ValueFact::interval(cell.joined.fact.lo,
                                      cell.joined.fact.hi, inst.width);
          }
          set_reg(inst.result, f);
          break;
        }
        case Opcode::kStore: {
          const Operand& addr = inst.ops[0];
          if (addr.is_reg() && fs.cell_of_reg[addr.reg] != ir::kNoReg) {
            Cell& cell = fs.cells[fs.cell_of_reg[addr.reg]];
            const unsigned w =
                inst.ops[1].type.is_int() ? inst.ops[1].type.width : 64;
            if (cell.store_width == 0) cell.store_width = w;
            if (cell.store_width != w && !cell.poisoned) {
              cell.poisoned = true;
              cell.joined.fact = ValueFact::top(64);
              changed = true;
            }
            const ValueFact v = operand_fact(fi, inst.ops[1]);
            if (!cell.poisoned &&
                cell.joined.join(v.is_bottom() ? ValueFact::top(64) : v, 64))
              changed = true;
          }
          break;
        }
        case Opcode::kCall: {
          changed |= propagate_call(fi, inst);
          const FuncState& callee = funcs_[inst.callee];
          set_reg(inst.result, callee.ret.fact);
          break;
        }
        case Opcode::kRet:
          if (!inst.ops.empty() && inst.ops[0].type.is_int()) {
            const ValueFact v = operand_fact(fi, inst.ops[0]);
            if (fs.ret.join(v.is_bottom() ? ValueFact::top(64) : v, 64)) {
              changed = true;
              for (std::uint32_t caller : out_->callgraph.callers[fi])
                enqueue_function(caller);
            }
          }
          return changed;
        case Opcode::kIntrinsic:
          switch (inst.intrinsic) {
            case ir::Intrinsic::kCheckedAdd:
              set_reg(inst.result,
                      transfer_bin(BinOp::kAdd, operand_fact(fi, inst.ops[0]),
                                   operand_fact(fi, inst.ops[1]), inst.width));
              break;
            case ir::Intrinsic::kCheckedMul:
              set_reg(inst.result,
                      transfer_bin(BinOp::kMul, operand_fact(fi, inst.ops[0]),
                                   operand_fact(fi, inst.ops[1]), inst.width));
              break;
            case ir::Intrinsic::kAbort:
              // stop(): the path ends here; the rest of the block and the
              // terminator never execute.
              return changed;
            case ir::Intrinsic::kOut:
            case ir::Intrinsic::kAssert:
              break;
          }
          break;
        case Opcode::kBr: {
          const ValueFact cond = operand_fact(fi, inst.ops[0]);
          const bool then_live = !cond.is_constant() || cond.lo != 0;
          const bool else_live = !cond.is_constant() || cond.lo == 0;
          if (then_live) changed |= mark_executable(fs, inst.bb_then);
          if (else_live) changed |= mark_executable(fs, inst.bb_else);
          return changed;
        }
        case Opcode::kJmp:
          changed |= mark_executable(fs, inst.bb_then);
          return changed;
        case Opcode::kUnreachable:
          return changed;
        case Opcode::kAlloca:
        case Opcode::kGep:
        case Opcode::kSlotGet:
        case Opcode::kSlotSet:
        case Opcode::kGlobalAddr:
          // Pointer-producing ops carry no value fact (the lint pass
          // resolves provenance separately); leave results bottom.
          break;
      }
    }
    return changed;
  }

  static bool mark_executable(FuncState& fs, std::uint32_t block) {
    if (fs.executable[block]) return false;
    fs.executable[block] = true;
    return true;
  }

  /// Joins an executable call site's argument facts into the callee's
  /// parameters; (re-)enqueues the callee on change or first call.
  bool propagate_call(std::uint32_t fi, const Instruction& inst) {
    FuncState& callee = funcs_[inst.callee];
    const ir::Function& cfn = *module_->function(inst.callee);
    bool param_changed = false;
    for (std::size_t p = 0; p < callee.params.size(); ++p) {
      const ir::Type t = cfn.params()[p];
      if (!t.is_int()) continue;
      ValueFact arg = operand_fact(fi, inst.ops[p]);
      if (arg.is_bottom()) arg = ValueFact::top(t.width);
      // Clamp to the parameter's width (calls are type-checked, but stay
      // defensive about wider literals).
      if (arg.hi > ValueFact::width_max(t.width)) arg = ValueFact::top(t.width);
      if (callee.params[p].join(arg, t.width))
        param_changed = true;
    }
    if (param_changed || !callee.evaluated) enqueue_function(inst.callee);
    return param_changed;
  }

  /// Post-fixpoint: the infeasible-edge set and unreachable-block set.
  void derive_results() {
    out_->unreachable_blocks.assign(module_->total_blocks(), false);
    out_->num_unreachable = 0;
    for (std::uint32_t fi = 0; fi < module_->num_functions(); ++fi) {
      const ir::Function& fn = *module_->function(fi);
      const FuncState& fs = funcs_[fi];
      for (std::uint32_t b = 0; b < fn.num_blocks(); ++b) {
        const std::uint32_t gid = fn.block(b).global_id;
        if (!fs.evaluated || !fs.executable[b]) {
          out_->unreachable_blocks[gid] = true;
          ++out_->num_unreachable;
          continue;
        }
        const auto& insts = fn.block(b).insts;
        if (insts.empty()) continue;
        // A block whose straight-line code aborts never runs its
        // terminator: all outgoing edges are dead.
        bool aborts = false;
        for (const Instruction& inst : insts)
          if (inst.op == Opcode::kIntrinsic &&
              inst.intrinsic == ir::Intrinsic::kAbort) {
            aborts = true;
            break;
          }
        const Instruction& term = insts.back();
        if (term.op == Opcode::kBr && term.bb_then != term.bb_else) {
          const ValueFact cond = operand_fact(fi, term.ops[0]);
          std::uint32_t dead = ir::kNoBlock;
          if (aborts) {
            out_->add_infeasible_edge(gid, fn.block(term.bb_then).global_id);
            out_->add_infeasible_edge(gid, fn.block(term.bb_else).global_id);
          } else if (cond.is_constant()) {
            dead = cond.lo != 0 ? term.bb_else : term.bb_then;
            out_->add_infeasible_edge(gid, fn.block(dead).global_id);
          }
        } else if (aborts && (term.op == Opcode::kBr || term.op == Opcode::kJmp)) {
          out_->add_infeasible_edge(gid, fn.block(term.bb_then).global_id);
        }
      }
    }
  }

  const ir::Module* module_ = nullptr;
  ModuleAnalysis* out_ = nullptr;
  std::vector<FuncState> funcs_;
  std::deque<std::uint32_t> func_queue_;
  std::uint64_t work_ = 0;
};

}  // namespace

std::unique_ptr<Pass> make_sccp_pass() { return std::make_unique<SccpPass>(); }

}  // namespace pbse::analysis
