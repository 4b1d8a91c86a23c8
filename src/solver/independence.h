// Constraint-independence slicing (KLEE's --use-independent-solver analog).
//
// A query only depends on the constraints that (transitively) share symbolic
// input bytes with it; the rest can be dropped before solving. On the
// file-parsing workloads this typically shrinks hundreds of path constraints
// down to a handful.
//
// The partition structure is maintained PERSISTENTLY by ConstraintSet (a
// union-find updated on add(); see constraint_set.h), so slicing is a
// partition collection rather than a per-query transitive closure. This
// function is the convenience wrapper used by tests and ablations.
#pragma once

#include <vector>

#include "expr/expr.h"
#include "solver/constraint_set.h"

namespace pbse {

/// Returns the subset of `cs` transitively connected to `query` through
/// shared (array, index) read sites. Order of surviving constraints is
/// preserved.
std::vector<ExprRef> independent_slice(const ConstraintSet& cs,
                                       const ExprRef& query);

}  // namespace pbse
