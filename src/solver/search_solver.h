// Bounded backtracking search over symbolic input bytes — the decision
// procedure that stands in for STP/Z3. Works on an independence-sliced
// constraint list whose byte domains have been pre-refined by
// propagate_domains().
#pragma once

#include <cstdint>
#include <vector>

#include "expr/evaluator.h"
#include "expr/expr.h"
#include "solver/cache.h"
#include "solver/interval.h"
#include "support/rng.h"

namespace pbse {

/// DFS over byte assignments with most-constrained-variable-first ordering
/// and hint-value-first value ordering.
///
/// `constraints`  conjunction to satisfy (each must contain >= 1 read).
/// `domains`      pre-propagated per-byte domains.
/// `hint`         optional assignment tried first for every byte (the
///                state's last known model / the concolic seed).
/// `max_nodes`    node budget; exhausting it yields kUnknown.
/// `max_evals`    constraint-evaluation budget (same effect).
/// `cost_out`     incremented by the number of constraint evaluations.
/// `model_out`    filled with a satisfying assignment on kSat.
/// `hint_first`   when true, each variable tries its hint value before the
///                boundary values; when false the order is boundaries first.
///                The solver facade runs both orders (split budget): hint-
///                first converges near the current model, boundary-first
///                escapes hint-poisoned subtrees.
/// `candidate_cap` when nonzero, truncates every variable's candidate list
///                to its first N values (hint + boundaries). A capped pass
///                explores the "interesting corners" tree exhaustively and
///                cheaply before any full-domain pass runs.
SolverResult backtracking_search(const std::vector<ExprRef>& constraints,
                                 const DomainMap& domains,
                                 const Assignment* hint, bool hint_first,
                                 std::size_t candidate_cap,
                                 std::uint64_t max_nodes,
                                 std::uint64_t max_evals,
                                 std::uint64_t& cost_out,
                                 Assignment& model_out);

}  // namespace pbse
