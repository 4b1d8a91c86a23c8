// Solver facade: the engine's single entry point for satisfiability
// queries. Pipeline per query (incremental across the queries of one
// path — see DESIGN.md §9):
//
//   independence slicing (persistent partitions, ConstraintSet)
//     -> defined-by elimination (deferred checksum/CRC equalities)
//     -> hint fast path (does the hint satisfy the whole list?)
//     -> exact cache lookup (L1, then shared L2)
//     -> byte-domain propagation (memoized per constraint-list prefix)
//     -> bounded backtracking search (a capped pass, then a full pass)
//     -> exact cache fill
//
// Every evaluation performed — including every memoized-domain delta
// propagation — is charged to the virtual clock, so solver effort competes
// with interpretation effort exactly as in the paper's wall-clock
// experiments. A budget-exhausted query returns kUnknown and the engine
// treats the branch as unreachable-for-now — this is what makes
// input-dependent loop exits "trap" symbolic execution.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "expr/evaluator.h"
#include "expr/expr.h"
#include "solver/cache.h"
#include "solver/constraint_set.h"
#include "solver/interval.h"
#include "support/stats.h"
#include "support/vclock.h"

namespace pbse {

namespace serialize {
class CampaignCodec;
}

struct SolverOptions {
  bool use_cache = true;
  bool use_independence = true;
  /// Per-prefix memoization of propagated byte domains.
  bool use_domain_memo = true;
  /// Consecutive propagate_delta refinements a memo entry may accumulate
  /// before the solver recomputes full propagation from scratch. Delta
  /// propagation runs only one interval pass over the prefix (no second
  /// fixpoint round, no per-byte re-enumeration), so each delta layer may
  /// retain domains a full pass would have narrowed; bounding the chain
  /// bounds the cumulative precision loss along a path.
  std::uint32_t max_domain_memo_delta_depth = 8;
  /// Optional shared L2 cache (thread-safe, sharded). When set, the solver
  /// consults it after an L1 miss and publishes every solved query into it,
  /// so concurrent campaigns reuse each other's work. Sharing a cache
  /// across campaigns trades bit-exact serial/parallel determinism for
  /// throughput — see DESIGN.md "Parallel campaigns".
  std::shared_ptr<ShardedQueryCache> shared_cache;
};

class Solver {
 public:
  Solver(VClock& clock, Stats& stats, SolverOptions options = {})
      : clock_(clock), stats_(stats), options_(options) {}

  /// A hint assignment: tried first and seeding the search's value order.
  /// Shared ownership lets the solver keep a memoized evaluator per hint
  /// (states re-issue queries against the same model thousands of times).
  using HintRef = std::shared_ptr<const Assignment>;

  /// Is `cs /\ query` satisfiable? On kSat and `model != nullptr`, `model`
  /// receives a satisfying assignment.
  SolverResult check_sat(const ConstraintSet& cs, const ExprRef& query,
                         Assignment* model = nullptr,
                         const HintRef& hint = nullptr);

  const SolverOptions& options() const { return options_; }
  QueryCache& cache() { return cache_; }
  std::size_t domain_memo_size() const { return domain_memo_.size(); }

 private:
  /// Snapshots the solver's L1 stores (cache_, domain_memo_) — they steer
  /// tick charging and control flow, so a tick-exact resume must restore
  /// them. hint_evaluators_ is NOT snapshotted: evaluator memo warmth never
  /// affects charging (all charges use expr_cost / domain sizes), so
  /// rebuilding it lazily after restore is observationally identical.
  friend class serialize::CampaignCodec;

  /// Shared pipeline over an already-assembled constraint list. `query` is
  /// the appended query constraint (the domain memo's prefix boundary);
  /// null for a constant-true query. Runs the defined-by elimination first
  /// (checksum/CRC equalities whose stored bytes appear nowhere else are
  /// deferred and back-computed), then the hint fast path, caches,
  /// propagation and search over the remainder.
  SolverResult solve_list(const std::vector<ExprRef>& constraints,
                          const ExprRef& query, Assignment* model,
                          const HintRef& hint);

  /// Pipeline body without elimination (used by solve_list and as its
  /// fallback when a deferred equality turns out to chain).
  SolverResult solve_core(const std::vector<ExprRef>& constraints,
                          const ExprRef& query, Assignment* model,
                          const HintRef& hint);

  /// Memoized evaluator for `hint`, cached by identity (the evaluator keeps
  /// the assignment alive, so pointer reuse cannot alias).
  CachingEvaluator& hint_evaluator(const HintRef& hint);

  /// Advances the virtual clock for `evals` expression-DAG nodes evaluated.
  void charge(std::uint64_t evals);

  /// Stores `domains` in the memo under `key`. `delta_depth` counts the
  /// propagate_delta layers behind the domains (0 = full propagation). An
  /// existing entry is only replaced by one with a strictly smaller depth:
  /// for the same content key, fewer delta layers means domains at least
  /// as narrow.
  void memo_store(std::uint64_t key, const DomainMap& domains,
                  std::uint32_t delta_depth);

  VClock& clock_;
  Stats& stats_;
  SolverOptions options_;
  QueryCache cache_;
  struct DomainMemoEntry {
    DomainMap domains;
    /// propagate_delta refinements since the last full propagation; entries
    /// at max_domain_memo_delta_depth are recomputed rather than extended.
    std::uint32_t delta_depth = 0;
  };
  /// Propagated byte domains memoized by the content hash of the
  /// constraint list they were computed from (the "prefix": the sliced
  /// list without the query). Entries are only written after a propagation
  /// that did NOT prove UNSAT, so a hit always seeds feasible domains.
  std::unordered_map<std::uint64_t, DomainMemoEntry> domain_memo_;
  std::unordered_map<const Assignment*, std::shared_ptr<CachingEvaluator>>
      hint_evaluators_;
};

}  // namespace pbse
