#include "solver/solver.h"

#include <algorithm>

#include "obs/trace.h"
#include "solver/search_solver.h"
#include "support/log.h"

namespace pbse {

namespace {

/// Backtracking node budget per query.
constexpr std::uint64_t kMaxSearchNodes = 40000;
/// Evaluation-WORK budget per query, in expression-DAG-node units
/// (expr_cost); caps node*constraint blowup independent of node count.
constexpr std::uint64_t kMaxSearchEvals = 1'000'000;
/// Virtual-clock ticks charged per kChargeDivisor expression-DAG nodes
/// evaluated. The ratio makes one typical query cost a few hundred ticks
/// (instructions cost 1 tick each), roughly KLEE's instruction-to-solver
/// time split.
constexpr std::uint64_t kTicksPerEval = 1;
constexpr std::uint64_t kChargeDivisor = 32;
/// Domain-memo entries retained before a deterministic wholesale clear.
constexpr std::size_t kMaxDomainMemoEntries = 4096;

/// Counter / event names interned once — the hot path pays an indexed add,
/// never a string hash (see stats.h).
struct SolverIds {
  obs::MetricId queries = obs::intern_metric("solver.queries");
  obs::MetricId hint_hits = obs::intern_metric("solver.hint_hits");
  obs::MetricId cache_hits = obs::intern_metric("solver.cache_hits");
  obs::MetricId shared_cache_hits =
      obs::intern_metric("solver.shared_cache_hits");
  /// Queries whose domain propagation was seeded from the memo.
  obs::MetricId domain_memo_hits =
      obs::intern_metric("solver.domain_memo_hits");
  obs::MetricId propagation_unsat =
      obs::intern_metric("solver.propagation_unsat");
  obs::MetricId search_full_pass =
      obs::intern_metric("solver.search_full_pass");
  obs::MetricId search_sat = obs::intern_metric("solver.search_sat");
  obs::MetricId search_unsat = obs::intern_metric("solver.search_unsat");
  obs::MetricId search_unknown = obs::intern_metric("solver.search_unknown");
  obs::MetricId deferred_eqs = obs::intern_metric("solver.deferred_eqs");
  obs::MetricId deferred_fallback =
      obs::intern_metric("solver.deferred_fallback");
  /// Log2 histogram: virtual ticks charged per top-level query.
  obs::MetricId query_ticks = obs::intern_metric("solver.query_ticks");
  // Trace event / argument names.
  obs::MetricId ev_query = obs::intern_metric("query");
  obs::MetricId ev_cache_hit = obs::intern_metric("cache_hit");
  obs::MetricId ev_shared_cache_hit = obs::intern_metric("shared_cache_hit");
  obs::MetricId ev_domain_memo_hit = obs::intern_metric("domain_memo_hit");
  obs::MetricId arg_constraints = obs::intern_metric("constraints");
  obs::MetricId arg_result = obs::intern_metric("result");
};

const SolverIds& ids() {
  static const SolverIds s;
  return s;
}

/// Order-insensitive cache key over a constraint list. Uses the same
/// per-constraint mix as ConstraintSet's hash, so prefix keys compose
/// algebraically:
///   cache_key(list + q) == cache_key(list) ^ mix_constraint_hash(q).
std::uint64_t cache_key(const std::vector<ExprRef>& constraints) {
  std::uint64_t h = 0x452821e638d01377ULL;
  for (const auto& c : constraints) h ^= mix_constraint_hash(c->hash());
  return h;
}

bool satisfies_all(const std::vector<ExprRef>& constraints,
                   CachingEvaluator& eval, std::uint64_t& evals) {
  for (const auto& c : constraints) {
    evals += expr_cost(c);
    if (!eval.evaluate_bool(c)) return false;
  }
  return true;
}

void copy_into(const Assignment& from, Assignment* to,
               const std::vector<ExprRef>& constraints) {
  if (to == nullptr) return;
  for (const auto& c : constraints)
    for (const auto& r : compiled(c).reads())
      to->mutable_bytes(r.array)[r.index] = from.byte(r.array.get(), r.index);
}

/// The per-array byte vectors of `found` restricted to the arrays that
/// `constraints` read — the persistable model for cache entries.
ModelBytes collect_model_bytes(const std::vector<ExprRef>& constraints,
                               Assignment& found) {
  std::vector<ArrayRef> arrays;
  for (const auto& c : constraints) {
    for (const auto& r : compiled(c).reads()) {
      bool seen = false;
      for (const auto& a : arrays) seen = seen || a.get() == r.array.get();
      if (!seen) arrays.push_back(r.array);
    }
  }
  ModelBytes mb;
  mb.reserve(arrays.size());
  for (const auto& a : arrays)
    mb.emplace_back(a, std::vector<std::uint8_t>(found.mutable_bytes(a)));
  return mb;
}

/// A deferred "defined-by" equality: `constraint` is Eq(defined, <lanes>)
/// (or its negation) where every lane byte occurs in no other constraint
/// of the list, so the lane bytes can simply be back-computed from a model
/// of the remaining constraints. This is how checksum/CRC equalities stay
/// cheap: solve the data, then write the matching checksum.
struct DeferredEquality {
  ExprRef constraint;
  ExprRef defined;              // the non-assembly side
  std::vector<ByteLane> lanes;  // the free checksum bytes
  bool negated = false;         // Ne instead of Eq
};

std::uint64_t lane_site_key(const ByteLane& lane) {
  return (reinterpret_cast<std::uintptr_t>(lane.array.get()) << 20) ^
         lane.index;
}

std::uint64_t read_site_key(const ReadSite& site) {
  return (reinterpret_cast<std::uintptr_t>(site.array.get()) << 20) ^
         site.index;
}

/// Extracts deferrable equalities from `constraints` (removing them).
std::vector<DeferredEquality> extract_deferred(
    std::vector<ExprRef>& constraints) {
  // Occurrence count of every site across the list.
  std::unordered_map<std::uint64_t, unsigned> occurrences;
  for (const auto& c : constraints)
    for (const auto& r : compiled(c).reads()) ++occurrences[read_site_key(r)];

  std::vector<DeferredEquality> deferred;
  std::vector<ExprRef> kept;
  kept.reserve(constraints.size());
  for (const auto& c : constraints) {
    // Accept Eq(a, b) and its Xor-with-true negation.
    ExprRef eq = c;
    bool negated = false;
    if (c->kind() == ExprKind::kXor && c->num_kids() == 2 &&
        c->kid(1)->is_true() && c->kid(0)->kind() == ExprKind::kEq) {
      eq = c->kid(0);
      negated = true;
    }
    bool taken = false;
    if (eq->kind() == ExprKind::kEq) {
      for (int side = 0; side < 2 && !taken; ++side) {
        const ExprRef& candidate = eq->kid(side);
        const ExprRef& other = eq->kid(1 - side);
        std::vector<ByteLane> lanes;
        if (!match_byte_assembly(candidate, lanes)) continue;
        // Every lane byte must be exclusive to this constraint and must
        // not feed the other side.
        bool exclusive = true;
        for (const auto& lane : lanes)
          exclusive = exclusive && occurrences[lane_site_key(lane)] == 1;
        if (!exclusive) continue;
        for (const auto& r : compiled(other).reads())
          for (const auto& lane : lanes)
            if (r.array.get() == lane.array.get() && r.index == lane.index)
              exclusive = false;
        if (!exclusive) continue;
        deferred.push_back(DeferredEquality{c, other, lanes, negated});
        taken = true;
      }
    }
    if (!taken) kept.push_back(c);
  }
  constraints.swap(kept);
  return deferred;
}

}  // namespace

CachingEvaluator& Solver::hint_evaluator(const HintRef& hint) {
  if (hint_evaluators_.size() > 256) hint_evaluators_.clear();
  auto& slot = hint_evaluators_[hint.get()];
  if (slot == nullptr || slot->assignment().get() != hint.get())
    slot = std::make_shared<CachingEvaluator>(hint);
  return *slot;
}

void Solver::charge(std::uint64_t evals) {
  clock_.advance(evals * kTicksPerEval / kChargeDivisor + 1);
}

void Solver::memo_store(std::uint64_t key, const DomainMap& domains,
                        std::uint32_t delta_depth) {
  if (domain_memo_.size() >= kMaxDomainMemoEntries)
    domain_memo_.clear();  // deterministic wholesale reset
  const auto [it, inserted] =
      domain_memo_.try_emplace(key, DomainMemoEntry{domains, delta_depth});
  if (!inserted && delta_depth < it->second.delta_depth)
    it->second = DomainMemoEntry{domains, delta_depth};
}

SolverResult Solver::solve_list(const std::vector<ExprRef>& constraints,
                                const ExprRef& query, Assignment* model,
                                const HintRef& hint) {
  std::vector<ExprRef> remaining = constraints;
  const std::vector<DeferredEquality> deferred = extract_deferred(remaining);
  if (!deferred.empty()) stats_.add(ids().deferred_eqs, deferred.size());

  const SolverResult result = solve_core(remaining, query, model, hint);
  if (result != SolverResult::kSat || deferred.empty()) return result;
  if (model == nullptr) return result;  // satisfiable either way: the lane
                                        // bytes are free

  // Back-compute the deferred checksum bytes against the final model.
  for (const auto& d : deferred) {
    std::uint64_t value = evaluate(d.defined, *model);
    if (d.negated) value += 1;  // any different value works
    for (const auto& lane : d.lanes) {
      model->mutable_bytes(lane.array)[lane.index] =
          static_cast<std::uint8_t>(value >> lane.bit_offset);
    }
  }
  // Verify (chained definitions would break the one-pass completion).
  for (const auto& d : deferred) {
    clock_.advance(expr_cost(d.constraint));
    if (!evaluate_bool(d.constraint, *model)) {
      stats_.add(ids().deferred_fallback);
      return solve_core(constraints, query, model, hint);
    }
  }
  return SolverResult::kSat;
}

SolverResult Solver::solve_core(const std::vector<ExprRef>& constraints,
                                const ExprRef& query, Assignment* model,
                                const HintRef& hint) {
  if (constraints.empty()) return SolverResult::kSat;

  std::uint64_t evals = 0;

  // Fast path: the hint assignment already satisfies everything. An
  // executor query asks for a side its hint violates, so this succeeds
  // when solve_list deferred the violated checksum equality and the hint
  // satisfies what is left. Evaluations are memoized per hint across
  // queries.
  if (hint != nullptr && satisfies_all(constraints, hint_evaluator(hint), evals)) {
    charge(evals);
    stats_.add(ids().hint_hits);
    copy_into(*hint, model, constraints);
    return SolverResult::kSat;
  }

  const std::uint64_t key = cache_key(constraints);
  if (options_.use_cache) {
    if (const QueryCache::Entry* hit = cache_.lookup(key, constraints)) {
      stats_.add(ids().cache_hits);
      obs::trace_instant(obs::Category::kSolver, ids().ev_cache_hit,
                         clock_.now());
      if (hit->result == SolverResult::kSat && model != nullptr) {
        Assignment cached;
        for (const auto& [array, bytes] : hit->model) cached.set(array, bytes);
        copy_into(cached, model, constraints);
      }
      return hit->result;
    }
    // L2: the shared cross-campaign cache. A hit is promoted into the L1
    // (already remapped onto this campaign's arrays by lookup()).
    if (options_.shared_cache != nullptr) {
      if (auto hit = options_.shared_cache->lookup(key, constraints)) {
        stats_.add(ids().shared_cache_hits);
        obs::trace_instant(obs::Category::kSolver, ids().ev_shared_cache_hit,
                           clock_.now());
        const SolverResult shared_result = hit->result;
        if (shared_result == SolverResult::kSat && model != nullptr) {
          Assignment cached;
          for (const auto& [array, bytes] : hit->model)
            cached.set(array, bytes);
          copy_into(cached, model, constraints);
        }
        cache_.insert(key, std::move(*hit));
        return shared_result;
      }
    }
  }

  // Domain propagation, seeded from the memo when this list extends a
  // previously propagated prefix. The memo key composes algebraically:
  // memo[cache_key(prefix)] holds the prefix's propagated domains, and
  // cache_key(prefix) == key ^ mix(query) — no list materialization needed
  // to probe it. Sound because domains only ever shrink: a prefix's
  // domains over-approximate the full list's feasible set, and
  // propagate_delta re-checks the prefix against the narrowed domains.
  DomainMap domains;
  bool feasible = false;
  std::uint32_t memo_depth = 0;  // delta layers behind `domains`
  if (options_.use_domain_memo && query != nullptr &&
      std::count(constraints.begin(), constraints.end(), query) == 1) {
    std::vector<ExprRef> prefix;
    prefix.reserve(constraints.size() - 1);
    for (const auto& c : constraints)
      if (c.get() != query.get()) prefix.push_back(c);
    const std::uint64_t prefix_key = key ^ mix_constraint_hash(query->hash());
    const std::vector<ExprRef> added{query};
    const auto it = domain_memo_.find(prefix_key);
    if (it != domain_memo_.end() &&
        it->second.delta_depth < options_.max_domain_memo_delta_depth) {
      domains = it->second.domains;  // copy: the memo entry stays pristine
      evals += domains.size();       // charged like any other solver work
      memo_depth = it->second.delta_depth + 1;
      stats_.add(ids().domain_memo_hits);
      obs::trace_instant(obs::Category::kSolver, ids().ev_domain_memo_hit,
                         clock_.now());
      feasible = propagate_delta(prefix, added, domains, evals);
    } else {
      // Miss — or the entry has exhausted its delta budget, in which case
      // full propagation is recomputed (and re-memoized at depth 0) so
      // one-pass delta imprecision cannot compound along a path.
      // Memoizing the prefix alone before layering the query on lets the
      // sibling query (the branch's other direction shares the exact
      // prefix) and the path's next query both hit.
      feasible = propagate_domains(prefix, domains, evals);
      if (feasible) {
        memo_store(prefix_key, domains, 0);
        memo_depth = 1;
        feasible = propagate_delta(prefix, added, domains, evals);
      }
    }
  } else {
    feasible = propagate_domains(constraints, domains, evals);
  }
  if (!feasible) {
    charge(evals);
    stats_.add(ids().propagation_unsat);
    if (options_.use_cache) {
      cache_.insert(key, QueryCache::Entry{SolverResult::kUnsat, {}});
      if (options_.shared_cache != nullptr)
        options_.shared_cache->insert(key,
                                      QueryCache::Entry{SolverResult::kUnsat, {}});
    }
    return SolverResult::kUnsat;
  }
  if (options_.use_domain_memo) {
    // Memoize the full list's domains: when the engine extends this path,
    // the next query's prefix IS this list and probes exactly this key.
    memo_store(key, domains, memo_depth);
  }

  // Bounded backtracking search, two passes over one SearchSpace (its
  // variables, their order, the constraints' tapes and read maps), with
  // hint values tried first:
  //   A. candidates capped to hint+boundary values — exhaustively explores
  //      the small "interesting corners" tree (cheap, finds most models);
  //   B. full domains, with the rest of the query's budget.
  // A kUnsat from the CAPPED pass is not conclusive; only the full pass may
  // report kUnsat.
  Assignment found;
  const Assignment* hint_raw = hint.get();
  const SearchSpace space(constraints, domains);
  SolverResult result =
      space.search(hint_raw, /*candidate_cap=*/6, kMaxSearchNodes / 4,
                   kMaxSearchEvals / 4, evals, found);
  if (result == SolverResult::kUnsat) result = SolverResult::kUnknown;
  if (result == SolverResult::kUnknown) {
    stats_.add(ids().search_full_pass);
    result = space.search(hint_raw, /*candidate_cap=*/0,
                          kMaxSearchNodes - kMaxSearchNodes / 4,
                          kMaxSearchEvals - kMaxSearchEvals / 4, evals, found);
  }
  charge(evals);

  switch (result) {
    case SolverResult::kSat: {
      stats_.add(ids().search_sat);
      copy_into(found, model, constraints);
      if (options_.use_cache) {
        QueryCache::Entry entry;
        entry.result = SolverResult::kSat;
        entry.model = collect_model_bytes(constraints, found);
        if (options_.shared_cache != nullptr)
          options_.shared_cache->insert(key, entry);
        cache_.insert(key, std::move(entry));
      }
      return SolverResult::kSat;
    }
    case SolverResult::kUnsat:
      stats_.add(ids().search_unsat);
      if (options_.use_cache) {
        cache_.insert(key, QueryCache::Entry{SolverResult::kUnsat, {}});
        if (options_.shared_cache != nullptr)
          options_.shared_cache->insert(key,
                                        QueryCache::Entry{SolverResult::kUnsat, {}});
      }
      return SolverResult::kUnsat;
    case SolverResult::kUnknown:
      stats_.add(ids().search_unknown);
      if (log_level() >= LogLevel::kDebug) {
        PBSE_LOG_DEBUG << "solver unknown over " << constraints.size()
                       << " constraints:";
        for (std::size_t i = 0; i < constraints.size() && i < 8; ++i)
          PBSE_LOG_DEBUG << "  [" << i << "] " << constraints[i]->to_string();
      }
      // Unknown results are NOT cached: a later query with a different hint
      // might succeed within budget.
      return SolverResult::kUnknown;
  }
  return SolverResult::kUnknown;
}

SolverResult Solver::check_sat(const ConstraintSet& cs, const ExprRef& query,
                               Assignment* model, const HintRef& hint) {
  stats_.add(ids().queries);

  if (query->is_false()) return SolverResult::kUnsat;
  const CompiledPin pin;  // keeps this query's compiled forms valid

  ConstraintSet::Slice slice =
      options_.use_independence ? cs.slice(query) : cs.whole();
  ExprRef appended;  // the query, when it joins the list
  if (!query->is_true()) {
    // The query may already be a member of `cs` (validate_model's repair
    // path re-checks a path constraint), in which case the slice already
    // contains it. Appending it again would double its hash in the
    // order-insensitive XOR cache key — the duplicate cancels and the key
    // collapses to the key of the list WITHOUT the query, filing
    // query-narrowed results (domain memo, exact caches) under the weaker
    // list's identity.
    const bool already_present =
        std::any_of(slice.constraints.begin(), slice.constraints.end(),
                    [&](const ExprRef& c) { return c.get() == query.get(); });
    if (!already_present) slice.constraints.push_back(query);
    appended = query;
  }

  const std::uint64_t t0 = clock_.now();
  obs::trace_begin(obs::Category::kSolver, ids().ev_query, t0,
                   slice.constraints.size(), ids().arg_constraints);
  const SolverResult result =
      solve_list(slice.constraints, appended, model, hint);
  const std::uint64_t t1 = clock_.now();
  stats_.observe(ids().query_ticks, t1 - t0);
  obs::trace_end(obs::Category::kSolver, ids().ev_query, t1,
                 static_cast<std::uint64_t>(result), ids().arg_result);
  return result;
}

}  // namespace pbse
