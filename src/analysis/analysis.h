// Static pre-analysis over the Mini-IR (DESIGN.md §12).
//
// A pass-manager-driven pipeline computes, per module:
//   * the call graph and the set of functions reachable from the entry,
//   * dominator and post-dominator trees per function,
//   * interprocedural sparse conditional constant propagation joined with
//     an unsigned interval domain over registers and memory-free locals,
//   * the infeasible-edge set (branch edges whose condition the lattice
//     proves constant) and the statically-unreachable block set,
//   * a bug-sink lint over div/rem, indexed memory accesses and checked
//     arithmetic with a provably-safe / possibly-unsafe / provably-buggy
//     verdict per site.
//
// Everything here is a pure function of the module: no clock, no RNG, no
// solver. It is a diagnostic: pbse-analyze reports it, and no campaign
// reads it. Soundness contract: an edge in `infeasible_edges` is never
// taken by any concrete or symbolic execution, and a block in
// `unreachable_blocks` is never entered (tests/analysis_test.cc holds the
// engine to this).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "ir/ir.h"

namespace pbse::analysis {

// --- Value lattice ----------------------------------------------------------

/// One lattice element: bottom < constants < intervals < top, over the
/// UNSIGNED value space of a fixed bit width. A constant is the degenerate
/// interval [v, v]; `top` is [0, 2^width - 1]. Signed predicates are
/// evaluated only where the unsigned interval pins the sign bit.
struct ValueFact {
  enum class Kind : std::uint8_t { kBottom, kConstant, kInterval, kTop };
  Kind kind = Kind::kBottom;
  unsigned width = 64;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  static std::uint64_t width_max(unsigned w) {
    return w >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
  }

  static ValueFact bottom() { return {}; }
  static ValueFact top(unsigned w) {
    return {Kind::kTop, w, 0, width_max(w)};
  }
  static ValueFact constant(std::uint64_t v, unsigned w) {
    v &= width_max(w);
    return {Kind::kConstant, w, v, v};
  }
  /// Canonicalizes: [v,v] is a constant, [0,max] is top.
  static ValueFact interval(std::uint64_t lo, std::uint64_t hi, unsigned w);

  bool is_bottom() const { return kind == Kind::kBottom; }
  bool is_top() const { return kind == Kind::kTop; }
  bool is_constant() const { return kind == Kind::kConstant; }
  bool contains(std::uint64_t v) const {
    return kind != Kind::kBottom && lo <= v && v <= hi;
  }
  std::uint64_t range() const { return hi - lo; }

  bool operator==(const ValueFact& o) const {
    return kind == o.kind && width == o.width && lo == o.lo && hi == o.hi;
  }

  /// Least upper bound (interval hull).
  static ValueFact join(const ValueFact& a, const ValueFact& b);

  std::string to_string() const;
};

// --- Call graph -------------------------------------------------------------

struct CallGraph {
  /// callees[f] / callers[f]: function indices, deduplicated, ascending.
  std::vector<std::vector<std::uint32_t>> callees;
  std::vector<std::vector<std::uint32_t>> callers;
  /// Reachable from the entry function (the entry itself included).
  std::vector<bool> reachable;
  std::uint32_t entry = ir::kNoFunc;
};

// --- Dominators -------------------------------------------------------------

/// Immediate-dominator tree over one function's intra-procedural CFG
/// (function-local block ids). Blocks with no path from the entry have
/// idom == kNoBlock and dominate nothing.
struct DomTree {
  std::vector<std::uint32_t> idom;  // idom[entry] == entry
  std::uint32_t entry = 0;

  bool reached(std::uint32_t b) const {
    return b < idom.size() && idom[b] != ir::kNoBlock;
  }
  /// True when `a` dominates `b` (reflexive).
  bool dominates(std::uint32_t a, std::uint32_t b) const;
};

/// Post-dominator tree: DomTree over the reversed CFG, rooted at a
/// virtual exit joining every `ret`-terminated block. `exit_id` is the
/// virtual root's id (== num_blocks); idom entries may point at it.
struct PostDomTree {
  std::vector<std::uint32_t> idom;
  std::uint32_t exit_id = 0;

  bool reached(std::uint32_t b) const {
    return b < idom.size() && idom[b] != ir::kNoBlock;
  }
  bool postdominates(std::uint32_t a, std::uint32_t b) const;
};

// --- Lint -------------------------------------------------------------------

enum class SinkKind : std::uint8_t {
  kDivByZero,   // udiv/sdiv/urem/srem with a divisor that may be zero
  kOobIndex,    // load/store through a gep whose offset may exceed the object
  kOverflow,    // checked_add / checked_mul that may wrap
};

enum class Verdict : std::uint8_t {
  kProvablySafe,    // the lattice proves the bug condition false
  kPossiblyUnsafe,  // the lattice cannot decide either way
  kProvablyBuggy,   // every value the lattice admits triggers the bug
};

enum class Severity : std::uint8_t { kInfo, kWarning, kError };

struct SinkFinding {
  SinkKind kind = SinkKind::kDivByZero;
  Verdict verdict = Verdict::kPossiblyUnsafe;
  Severity severity = Severity::kInfo;
  std::uint32_t function = ir::kNoFunc;  // module function index
  std::uint32_t block = ir::kNoBlock;    // GLOBAL block id of the site
  std::uint32_t inst = 0;                // instruction index within block
  std::uint32_t line = 0;                // source line
  std::string message;
};

const char* sink_kind_name(SinkKind kind);
const char* verdict_name(Verdict verdict);
const char* severity_name(Severity severity);

// --- Module-level result ----------------------------------------------------

class ModuleAnalysis {
 public:
  CallGraph callgraph;
  /// Per function index. Trees for call-graph-unreachable functions are
  /// still computed (pbse-analyze reports them); facts are not.
  std::vector<DomTree> dominators;
  std::vector<PostDomTree> post_dominators;

  /// Final register facts, per function index then register id. Registers
  /// in unreachable functions or never-executed blocks stay bottom.
  std::vector<std::vector<ValueFact>> reg_facts;

  /// Statically-unreachable blocks, by global id: blocks of functions the
  /// call graph cannot reach, plus blocks SCCP proved non-executable.
  std::vector<bool> unreachable_blocks;
  std::uint64_t num_unreachable = 0;

  std::vector<SinkFinding> findings;

  /// Per-pass execution record (name, abstract work units) in run order —
  /// the pass manager's receipt, surfaced by pbse-analyze.
  std::vector<std::pair<std::string, std::uint64_t>> pass_log;

  bool edge_infeasible(std::uint32_t from_gid, std::uint32_t to_gid) const {
    return infeasible_.count(edge_key(from_gid, to_gid)) != 0;
  }
  std::size_t num_infeasible_edges() const { return infeasible_.size(); }
  /// All infeasible edges as (from_gid, to_gid), sorted (reporting).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> infeasible_edges() const;

  void add_infeasible_edge(std::uint32_t from_gid, std::uint32_t to_gid) {
    infeasible_.insert(edge_key(from_gid, to_gid));
  }

  /// GLOBAL block ids of lint sites with a non-safe verdict, sorted and
  /// deduplicated.
  std::vector<std::uint32_t> sink_blocks() const;

 private:
  static std::uint64_t edge_key(std::uint32_t from, std::uint32_t to) {
    return (std::uint64_t{from} << 32) | to;
  }
  std::unordered_set<std::uint64_t> infeasible_;
};

// --- Pass manager -----------------------------------------------------------

/// One analysis pass. Passes run in registration order and communicate
/// exclusively through the ModuleAnalysis they fill in; `run` returns the
/// abstract work units spent (fixpoint iterations, blocks visited — any
/// deterministic measure), recorded in the pass log.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  virtual std::uint64_t run(const ir::Module& module,
                            ModuleAnalysis& out) = 0;
};

class PassManager {
 public:
  void add(std::unique_ptr<Pass> pass) { passes_.push_back(std::move(pass)); }
  void run(const ir::Module& module, ModuleAnalysis& out) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// The standard pipeline: callgraph -> dominators -> interprocedural
/// SCCP/intervals (which derives infeasible edges and unreachable blocks)
/// -> sink lint.
std::unique_ptr<Pass> make_callgraph_pass();
std::unique_ptr<Pass> make_dominator_pass();
std::unique_ptr<Pass> make_sccp_pass();
std::unique_ptr<Pass> make_lint_pass();

/// Runs the standard pipeline from the module's `main`. The module must be
/// finalized.
std::unique_ptr<ModuleAnalysis> analyze_module(const ir::Module& module);

}  // namespace pbse::analysis
