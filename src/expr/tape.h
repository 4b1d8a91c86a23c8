// Flat evaluation tape: one expression DAG compiled into its nodes in
// topological order (kids before parents), each kid operand a slot index
// and each Read bound to a caller-chosen variable index. Evaluating runs
// the steps over a caller-owned slot array — a uint64_t per node for exact
// values, a URange per node for intervals — with no hashing and no
// allocation, which is what the solver's backtracking search needs when it
// re-checks the same few constraints hundreds of thousands of times under
// different byte values (DESIGN.md §9, "Evaluation kernel").
//
// Every node is compiled exactly once, so size() equals expr_dag_size() of
// the root, the work expr_cost() charges for one evaluation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "expr/expr.h"
#include "expr/semantics.h"

namespace pbse {

class Tape {
 public:
  /// Maps a Read node to the index of its variable in the `vars` arrays
  /// that value() and interval() receive.
  using VarOf = std::function<std::uint32_t(const Expr& read)>;

  /// Compiles the DAG under `root`.
  Tape(const ExprRef& root, const VarOf& var_of);

  /// Number of steps: the root's DAG node count.
  std::size_t size() const { return steps_.size(); }

  /// Value of the root when variable i has value vars[i]. `slots` is
  /// scratch of at least size() initialised entries; it is overwritten.
  std::uint64_t value(const std::uint64_t* vars, std::uint64_t* slots) const;

  /// Range of the root when variable i ranges over vars[i]. `slots` as
  /// for value().
  URange interval(const URange* vars, URange* slots) const;

 private:
  struct Step {
    NodeOp op;
    /// Slots of the kids (0 where the kind has fewer). A Read holds its
    /// variable index in kid[0].
    std::uint32_t kid[3] = {0, 0, 0};
  };
  std::vector<Step> steps_;
};

}  // namespace pbse
