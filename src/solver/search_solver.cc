#include "solver/search_solver.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <span>
#include <utility>

#include "expr/node_map.h"

namespace pbse {

namespace {

std::uint64_t site_key(const Array* array, std::uint32_t index) {
  return (reinterpret_cast<std::uintptr_t>(array) << 20) ^ index;
}

}  // namespace

SearchSpace::SearchSpace(const std::vector<ExprRef>& constraints,
                         const DomainMap& domains) {
  // Collect distinct variables (read sites) across all constraints, and
  // bind each constraint's reads to them.
  NodeMap<std::uint32_t, std::uint64_t> var_of_site;
  tapes_.reserve(constraints.size());
  read_at_.reserve(constraints.size() + 1);
  read_at_.push_back(0);
  slot_at_.reserve(constraints.size() + 1);
  slot_at_.push_back(0);
  for (const ExprRef& c : constraints) {
    CompiledExpr& cc = compiled(c);
    assert(!cc.reads().empty() && "constant constraints must be folded away");
    for (const ReadSite& r : cc.reads()) {
      const auto [var, added] = var_of_site.try_emplace(
          site_key(r.array.get(), r.index),
          static_cast<std::uint32_t>(vars_.size()));
      if (added) {
        Var v;
        v.array = r.array;
        v.index = r.index;
        if (const ByteDomain* d = domains.find(r.array.get(), r.index))
          v.domain = *d;
        v.range = read_range(domains, r.array.get(), r.index);
        empty_domain_ = empty_domain_ || v.domain.empty();
        vars_.push_back(std::move(v));
      }
      var_of_read_.push_back(*var);
    }
    read_at_.push_back(var_of_read_.size());
    tapes_.push_back(&cc.tape());
    longest_ = std::max(longest_, tapes_.back()->size());
    slot_at_.push_back(slot_at_.back() + tapes_.back()->size());
  }

  // Order variables: smallest domain first (most constrained). Stable so
  // ties keep discovery order (deterministic).
  order_.resize(vars_.size());
  std::vector<std::size_t> domain_size(vars_.size());
  for (std::uint32_t vi = 0; vi < vars_.size(); ++vi) {
    order_[vi] = vi;
    domain_size[vi] = vars_[vi].domain.size();
  }
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return domain_size[a] < domain_size[b];
                   });

  // position of each var in the assignment order
  std::vector<std::size_t> pos_of_var(vars_.size());
  for (std::size_t p = 0; p < order_.size(); ++p) pos_of_var[order_[p]] = p;

  // A constraint is checkable once its last (deepest) variable is assigned;
  // every variable additionally forward-checks the constraints it appears
  // in via interval evaluation.
  for (std::uint32_t ci = 0; ci < constraints.size(); ++ci) {
    Use deepest{ci, static_cast<std::uint32_t>(read_at_[ci])};
    for (std::size_t r = read_at_[ci]; r < read_at_[ci + 1]; ++r) {
      const std::uint32_t vi = var_of_read_[r];
      const Use use{ci, static_cast<std::uint32_t>(r)};
      if (pos_of_var[vi] > pos_of_var[var_of_read_[deepest.read]])
        deepest = use;
      auto& inv = vars_[vi].involved;
      if (inv.empty() || inv.back().constraint != ci) inv.push_back(use);
    }
    vars_[var_of_read_[deepest.read]].closing.push_back(deepest);
  }
}

void SearchSpace::append_candidates(const Var& v, const Assignment* hint,
                                    bool hint_first, std::size_t cap,
                                    std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  const std::size_t limit = cap > 0 ? cap : 256;
  ByteDomain left = v.domain;  // allowed values not yet listed
  auto push = [&](std::uint8_t val) {
    if (out.size() - start >= limit || !left.allows(val)) return;
    out.push_back(val);
    left.remove(val);
  };
  if (hint_first && hint != nullptr)
    push(hint->byte(v.array.get(), v.index));
  for (std::uint8_t boundary : {std::uint8_t{0}, std::uint8_t{0xff},
                                std::uint8_t{1}, std::uint8_t{0x80},
                                std::uint8_t{0x7f}})
    push(boundary);
  if (!hint_first && hint != nullptr)
    push(hint->byte(v.array.get(), v.index));
  const std::array<std::uint64_t, 4>& words = left.words();
  for (unsigned w = 0; w < 4; ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      if (out.size() - start >= limit) return;
      out.push_back(static_cast<std::uint8_t>(64 * w + std::countr_zero(bits)));
    }
  }
}

SolverResult SearchSpace::search(const Assignment* hint, bool hint_first,
                                 std::size_t candidate_cap,
                                 std::uint64_t max_nodes,
                                 std::uint64_t max_evals,
                                 std::uint64_t& cost_out,
                                 Assignment& model_out) const {
  const std::uint64_t eval_limit = cost_out + max_evals;
  if (vars_.empty()) {
    // All constraints were constant-true (folded); trivially SAT.
    return SolverResult::kSat;
  }
  if (empty_domain_) return SolverResult::kUnsat;

  // Candidate value order per variable, for this pass.
  std::vector<std::uint8_t> candidates;
  candidates.reserve(vars_.size() * (candidate_cap > 0 ? candidate_cap : 256));
  std::vector<std::size_t> cand_at(vars_.size() + 1, 0);
  for (std::size_t vi = 0; vi < vars_.size(); ++vi) {
    append_candidates(vars_[vi], hint, hint_first, candidate_cap, candidates);
    cand_at[vi + 1] = candidates.size();
  }
  auto num_candidates = [&](std::size_t vi) {
    return cand_at[vi + 1] - cand_at[vi];
  };
  auto candidate = [&](std::size_t vi, std::size_t i) {
    return candidates[cand_at[vi] + i];
  };

  // bytes[vi]: variable vi's value under the current probe or DFS path.
  // ranges[vi]: its interval — a pinned point once the DFS assigns it.
  std::vector<std::uint64_t> bytes(vars_.size(), 0);
  std::vector<URange> ranges(vars_.size());
  for (std::size_t vi = 0; vi < vars_.size(); ++vi)
    ranges[vi] = vars_[vi].range;
  auto write_model = [&] {
    for (std::size_t vi = 0; vi < vars_.size(); ++vi)
      model_out.mutable_bytes(vars_[vi].array)[vars_[vi].index] =
          static_cast<std::uint8_t>(bytes[vi]);
  };

  // Whole-assignment probes before the exponential search: for each probe
  // pattern, give every variable its pinned / boundary value and test all
  // constraints at once. Catches "make it huge" (overflow) and "make it
  // tiny" queries in O(#constraints).
  {
    std::vector<std::uint64_t> slots(longest_, 0);
    // Each check is charged its tape length, which is expr_cost().
    auto holds = [&](std::size_t ci) {
      cost_out += tapes_[ci]->size();
      return tapes_[ci]->value(bytes.data(),
                               var_of_read_.data() + read_at_[ci],
                               slots.data()) != 0;
    };
    auto try_probe = [&](auto pick) -> bool {
      for (std::size_t vi = 0; vi < vars_.size(); ++vi) bytes[vi] = pick(vi);
      for (std::size_t ci = 0; ci < tapes_.size(); ++ci)
        if (!holds(ci)) return false;
      write_model();
      return true;
    };
    auto low = [&](std::size_t vi) { return candidate(vi, 0); };
    auto high = [&](std::size_t vi) {
      // Largest allowed value (domain values are ascending in candidates'
      // tail; use the max of the candidate list).
      std::uint8_t m = 0;
      for (std::size_t i = 0; i < num_candidates(vi); ++i)
        m = std::max(m, candidate(vi, i));
      return m;
    };
    auto zeroish = [&](std::size_t vi) {
      for (std::size_t i = 0; i < num_candidates(vi); ++i)
        if (candidate(vi, i) == 0) return std::uint8_t{0};
      return candidate(vi, 0);
    };
    if (try_probe(low) || try_probe(high) || try_probe(zeroish))
      return SolverResult::kSat;
  }

  // Forward checking: each assignment pins the variable's range so that
  // interval evaluation of any involved constraint can refute a bad
  // SHALLOW value immediately instead of at the deepest variable. A
  // variable's range is only ever changed at its own depth, so leaving
  // that depth restores its domain's range.
  //
  // Incremental checks: a depth entry starts each time the DFS arrives at
  // a depth with choice 0. Within one entry only that depth's variable
  // changes: shallower ones stay fixed, deeper ones hold their domain's
  // range (restored when their depth was exhausted), and an exact check of
  // a closing constraint reads no deeper byte. So each constraint keeps
  // its slots from its last exact and its last interval run, stamped with
  // the entry of that run. A check stamped with the current entry re-runs
  // only the steps that depend on the entered variable; any other runs the
  // whole tape and takes the stamp. Each check is still charged its whole
  // tape, so ticks do not depend on how much of it ran.
  std::vector<std::uint64_t> value_slots(slot_at_.back());
  std::vector<URange> range_slots(slot_at_.back());
  std::vector<std::uint64_t> value_stamp(tapes_.size(), 0);
  std::vector<std::uint64_t> range_stamp(tapes_.size(), 0);
  // A (variable, constraint) pair's dependent steps, numbered by its
  // Use::read: [begin, end) in `dependent`, built at its first partial run.
  std::vector<std::pair<std::size_t, std::size_t>> dependent_at(
      var_of_read_.size());
  std::vector<std::uint32_t> dependent;
  auto dependents = [&](std::size_t vi, const Use& u) {
    auto& [begin, end] = dependent_at[u.read];
    if (begin == end) {
      begin = dependent.size();
      tapes_[u.constraint]->dependents(
          var_of_read_.data() + read_at_[u.constraint],
          static_cast<std::uint32_t>(vi), dependent);
      end = dependent.size();
    }
    return std::span<const std::uint32_t>(dependent.data() + begin,
                                          end - begin);
  };
  auto holds = [&](std::size_t vi, const Use& u, std::uint64_t now) {
    const Tape& tape = *tapes_[u.constraint];
    cost_out += tape.size();
    const std::uint32_t* var_of_read =
        var_of_read_.data() + read_at_[u.constraint];
    std::uint64_t* slots = value_slots.data() + slot_at_[u.constraint];
    if (std::exchange(value_stamp[u.constraint], now) == now)
      return tape.value(bytes.data(), var_of_read, slots,
                        dependents(vi, u)) != 0;
    return tape.value(bytes.data(), var_of_read, slots) != 0;
  };
  auto refuted = [&](std::size_t vi, const Use& u, std::uint64_t now) {
    const Tape& tape = *tapes_[u.constraint];
    cost_out += tape.size();
    const std::uint32_t* var_of_read =
        var_of_read_.data() + read_at_[u.constraint];
    URange* slots = range_slots.data() + slot_at_[u.constraint];
    if (std::exchange(range_stamp[u.constraint], now) == now)
      return tape.interval(ranges.data(), var_of_read, slots,
                           dependents(vi, u)).hi == 0;
    return tape.interval(ranges.data(), var_of_read, slots).hi == 0;
  };

  std::uint64_t nodes = 0;
  // Iterative DFS with an explicit choice stack; entry[d] numbers the
  // current entry at depth d (stamps start at 0, before every entry).
  std::vector<std::size_t> choice(order_.size(), 0);
  std::vector<std::uint64_t> entry(order_.size(), 0);
  std::uint64_t entries = 0;
  std::size_t depth = 0;
  entry[0] = ++entries;
  while (true) {
    if (depth == order_.size()) {
      // Full assignment found and verified incrementally.
      write_model();
      return SolverResult::kSat;
    }
    const std::size_t vi = order_[depth];
    const Var& v = vars_[vi];
    const std::uint64_t now = entry[depth];
    bool advanced = false;
    while (choice[depth] < num_candidates(vi)) {
      if (++nodes > max_nodes || cost_out > eval_limit)
        return SolverResult::kUnknown;
      const std::uint8_t val = candidate(vi, choice[depth]);
      ++choice[depth];
      bytes[vi] = val;
      ranges[vi] = URange{val, val};
      bool ok = true;
      // Exact check of constraints whose variables are all assigned.
      for (const Use& u : v.closing) {
        if (!holds(vi, u, now)) {
          ok = false;
          break;
        }
      }
      // Interval forward-check of the other constraints this var touches.
      if (ok) {
        for (const Use& u : v.involved) {
          if (refuted(vi, u, now)) {
            ok = false;
            break;
          }
        }
      }
      if (ok) {
        ++depth;
        if (depth < choice.size()) {
          choice[depth] = 0;
          entry[depth] = ++entries;
        }
        advanced = true;
        break;
      }
    }
    if (advanced) continue;
    // Exhausted this variable: restore its range and backtrack.
    ranges[vi] = v.range;
    if (depth == 0) return SolverResult::kUnsat;
    --depth;
  }
}

}  // namespace pbse
