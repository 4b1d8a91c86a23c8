// Bounded backtracking search over symbolic input bytes — the decision
// procedure that stands in for STP/Z3. Works on an independence-sliced
// constraint list whose byte domains have been pre-refined by
// propagate_domains().
#pragma once

#include <cstdint>
#include <vector>

#include "expr/evaluator.h"
#include "expr/expr.h"
#include "expr/tape.h"
#include "solver/cache.h"
#include "solver/interval.h"

namespace pbse {

/// One query's search problem, set up once and shared by the solver's
/// two passes: the variables (one per distinct read site, in order of
/// first appearance), their assignment order (smallest domain first), each
/// constraint's compiled tape and read-to-variable map, and the closing
/// and involved lists. It holds a CompiledPin, so its tapes stay valid.
///
/// `constraints` must each contain >= 1 read; `domains` are the
/// pre-propagated per-byte domains.
class SearchSpace {
 public:
  SearchSpace(const std::vector<ExprRef>& constraints,
              const DomainMap& domains);

  /// DFS over byte assignments with most-constrained-variable-first
  /// ordering and hint-value-first value ordering. Within one depth entry a
  /// re-check runs only the tape steps that depend on the variable being
  /// assigned, yet is charged its whole tape (DESIGN.md §9, "Evaluation
  /// kernel").
  ///
  /// `hint`         optional assignment tried first for every byte (the
  ///                state's last known model / the concolic seed).
  /// `candidate_cap` when nonzero, truncates every variable's candidate
  ///                list to its first N values (hint + boundaries). A
  ///                capped pass explores the "interesting corners" tree
  ///                exhaustively and cheaply before the full-domain pass.
  /// `max_nodes`    node budget; exhausting it yields kUnknown.
  /// `max_evals`    constraint-evaluation budget (same effect).
  /// `cost_out`     incremented by the number of constraint evaluations.
  /// `model_out`    filled with a satisfying assignment on kSat.
  SolverResult search(const Assignment* hint, std::size_t candidate_cap,
                      std::uint64_t max_nodes, std::uint64_t max_evals,
                      std::uint64_t& cost_out, Assignment& model_out) const;

 private:
  /// A constraint that mentions a variable, and the first of the
  /// constraint's reads bound to it: a position in var_of_read_, which
  /// numbers the (variable, constraint) pair.
  struct Use {
    std::uint32_t constraint = 0;
    std::uint32_t read = 0;
  };
  struct Var {
    ArrayRef array;
    std::uint32_t index = 0;
    ByteDomain domain;           // full when the byte has none
    URange range;                // the domain's [min, max]
    std::vector<Use> closing;    // constraints fully assigned here
    std::vector<Use> involved;   // constraints mentioning this var
  };

  /// Appends variable `v`'s value order for one pass to `out`: the hint
  /// value first, then the boundary values 0, 0xff, 1, 0x80, 0x7f, then
  /// the rest of the domain ascending; at most `cap` values when cap is
  /// nonzero. The boundary values make wraparound/overflow and
  /// make-this-count-small queries cheap.
  static void append_candidates(const Var& v, const Assignment* hint,
                                std::size_t cap,
                                std::vector<std::uint8_t>& out);

  CompiledPin pin_;
  std::vector<const Tape*> tapes_;
  /// Constraint ci's Read i is variable var_of_read_[read_at_[ci] + i].
  std::vector<std::uint32_t> var_of_read_;
  std::vector<std::size_t> read_at_;
  /// Constraint ci's slots in the DFS's slot arrays start at slot_at_[ci].
  std::vector<std::size_t> slot_at_;
  std::vector<Var> vars_;
  std::vector<std::uint32_t> order_;  // assignment order of the variables
  std::size_t longest_ = 0;           // longest tape
  bool empty_domain_ = false;         // some variable has no value left
};

}  // namespace pbse
