#include "solver/search_solver.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "expr/tape.h"

namespace pbse {

namespace {

struct Var {
  ArrayRef array;
  std::uint32_t index;
  std::vector<std::uint8_t> candidates;  // value order to try
  std::vector<std::size_t> closing;      // constraints fully assigned here
  std::vector<std::size_t> involved;     // constraints mentioning this var
};

std::uint64_t site_key(const Array* array, std::uint32_t index) {
  return (reinterpret_cast<std::uintptr_t>(array) << 20) ^ index;
}

}  // namespace

SolverResult backtracking_search(const std::vector<ExprRef>& constraints,
                                 const DomainMap& domains,
                                 const Assignment* hint, bool hint_first,
                                 std::size_t candidate_cap,
                                 std::uint64_t max_nodes,
                                 std::uint64_t max_evals,
                                 std::uint64_t& cost_out,
                                 Assignment& model_out) {
  const std::uint64_t eval_limit = cost_out + max_evals;
  // Collect distinct variables (read sites) across all constraints.
  std::vector<Var> vars;
  std::unordered_map<std::uint64_t, std::uint32_t> var_of_site;
  std::vector<std::vector<std::size_t>> constraint_vars(constraints.size());
  for (std::size_t ci = 0; ci < constraints.size(); ++ci) {
    std::vector<ReadSite> reads;
    collect_reads(constraints[ci], reads);
    assert(!reads.empty() && "constant constraints must be folded away");
    for (const auto& r : reads) {
      const std::uint64_t key = site_key(r.array.get(), r.index);
      auto it = var_of_site.find(key);
      if (it == var_of_site.end()) {
        it = var_of_site
                 .emplace(key, static_cast<std::uint32_t>(vars.size()))
                 .first;
        vars.push_back(Var{r.array, r.index, {}, {}, {}});
      }
      constraint_vars[ci].push_back(it->second);
    }
  }

  if (vars.empty()) {
    // All constraints were constant-true (folded); trivially SAT.
    return SolverResult::kSat;
  }

  // Order variables: smallest domain first (most constrained). Stable so
  // ties keep discovery order (deterministic).
  std::vector<std::size_t> order(vars.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto domain_size = [&](std::size_t vi) {
    const ByteDomain* d = domains.find(vars[vi].array.get(), vars[vi].index);
    return d != nullptr ? d->size() : std::size_t{256};
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return domain_size(a) < domain_size(b);
                   });

  // position of each var in the assignment order
  std::vector<std::size_t> pos_of_var(vars.size());
  for (std::size_t p = 0; p < order.size(); ++p) pos_of_var[order[p]] = p;

  // A constraint is checkable once its last (deepest) variable is assigned;
  // every variable additionally forward-checks the constraints it appears
  // in via interval evaluation.
  for (std::size_t ci = 0; ci < constraints.size(); ++ci) {
    std::size_t deepest = 0;
    for (std::size_t vi : constraint_vars[ci]) {
      deepest = std::max(deepest, pos_of_var[vi]);
      auto& inv = vars[vi].involved;
      if (inv.empty() || inv.back() != ci) inv.push_back(ci);
    }
    vars[order[deepest]].closing.push_back(ci);
  }

  // Candidate value order per variable: hint value first, then the
  // boundary values 0, 0xff, 1, 0x80, 0x7f, then the rest of the domain
  // ascending. Boundary-first ordering makes wraparound/overflow and
  // make-this-count-small queries cheap.
  for (auto& v : vars) {
    const ByteDomain* d = domains.find(v.array.get(), v.index);
    std::vector<std::uint8_t> dom =
        d != nullptr ? d->values() : [] {
          std::vector<std::uint8_t> all(256);
          for (unsigned i = 0; i < 256; ++i) all[i] = static_cast<std::uint8_t>(i);
          return all;
        }();
    if (dom.empty()) return SolverResult::kUnsat;
    std::vector<std::uint8_t> cand;
    cand.reserve(dom.size());
    auto push_unique = [&cand, &dom](std::uint8_t val) {
      if (!std::binary_search(dom.begin(), dom.end(), val)) return;
      if (std::find(cand.begin(), cand.end(), val) == cand.end())
        cand.push_back(val);
    };
    if (hint_first && hint != nullptr)
      push_unique(hint->byte(v.array.get(), v.index));
    for (std::uint8_t boundary : {std::uint8_t{0}, std::uint8_t{0xff},
                                  std::uint8_t{1}, std::uint8_t{0x80},
                                  std::uint8_t{0x7f}})
      push_unique(boundary);
    if (!hint_first && hint != nullptr)
      push_unique(hint->byte(v.array.get(), v.index));
    for (std::uint8_t val : dom) push_unique(val);
    if (candidate_cap > 0 && cand.size() > candidate_cap)
      cand.resize(candidate_cap);
    v.candidates = std::move(cand);
  }

  // Compile every constraint once for this call. Each Read indexes the
  // per-variable arrays below, so a check is one pass over a flat tape.
  std::vector<Tape> tapes;
  tapes.reserve(constraints.size());
  std::size_t longest = 0;
  for (const auto& c : constraints) {
    tapes.emplace_back(c, [&](const Expr& read) {
      return var_of_site.at(site_key(read.array().get(), read.read_index()));
    });
    longest = std::max(longest, tapes.back().size());
  }
  // bytes[vi]: variable vi's value under the current probe or DFS path.
  // ranges[vi]: its interval — a pinned point once the DFS assigns it.
  std::vector<std::uint64_t> bytes(vars.size(), 0), slots(longest, 0);
  std::vector<URange> ranges(vars.size()), range_slots(longest);
  for (std::size_t vi = 0; vi < vars.size(); ++vi)
    ranges[vi] = read_range(domains, vars[vi].array.get(), vars[vi].index);
  const std::vector<URange> domain_ranges = ranges;
  // Each check is charged its tape length, which is expr_cost().
  auto holds = [&](std::size_t ci) {
    cost_out += tapes[ci].size();
    return tapes[ci].value(bytes.data(), slots.data()) != 0;
  };
  auto refuted = [&](std::size_t ci) {
    cost_out += tapes[ci].size();
    return tapes[ci].interval(ranges.data(), range_slots.data()).hi == 0;
  };
  auto write_model = [&] {
    for (std::size_t vi = 0; vi < vars.size(); ++vi)
      model_out.mutable_bytes(vars[vi].array)[vars[vi].index] =
          static_cast<std::uint8_t>(bytes[vi]);
  };

  // Whole-assignment probes before the exponential search: for each probe
  // pattern, give every variable its pinned / boundary value and test all
  // constraints at once. Catches "make it huge" (overflow) and "make it
  // tiny" queries in O(#constraints).
  {
    auto try_probe = [&](auto pick) -> bool {
      for (std::size_t vi = 0; vi < vars.size(); ++vi)
        bytes[vi] = pick(vars[vi]);
      for (std::size_t ci = 0; ci < constraints.size(); ++ci)
        if (!holds(ci)) return false;
      write_model();
      return true;
    };
    auto low = [](const Var& v) { return v.candidates.front(); };
    auto high = [](const Var& v) {
      // Largest allowed value (domain values are ascending in candidates'
      // tail; use the max of the candidate list).
      std::uint8_t m = 0;
      for (std::uint8_t c : v.candidates) m = std::max(m, c);
      return m;
    };
    auto zeroish = [](const Var& v) {
      for (std::uint8_t c : v.candidates)
        if (c == 0) return std::uint8_t{0};
      return v.candidates.front();
    };
    if (try_probe(low) || try_probe(high) || try_probe(zeroish))
      return SolverResult::kSat;
  }

  // Forward checking: each assignment pins the variable's range so that
  // interval evaluation of any involved constraint can refute a bad
  // SHALLOW value immediately instead of at the deepest variable. A
  // variable's range is only ever changed at its own depth, so leaving
  // that depth restores its domain's range.
  std::uint64_t nodes = 0;
  // Iterative DFS with an explicit choice stack.
  std::vector<std::size_t> choice(order.size(), 0);
  std::size_t depth = 0;
  while (true) {
    if (depth == order.size()) {
      // Full assignment found and verified incrementally.
      write_model();
      return SolverResult::kSat;
    }
    const std::size_t vi = order[depth];
    const Var& v = vars[vi];
    bool advanced = false;
    while (choice[depth] < v.candidates.size()) {
      if (++nodes > max_nodes || cost_out > eval_limit)
        return SolverResult::kUnknown;
      const std::uint8_t val = v.candidates[choice[depth]];
      ++choice[depth];
      bytes[vi] = val;
      ranges[vi] = URange{val, val};
      bool ok = true;
      // Exact check of constraints whose variables are all assigned.
      for (std::size_t ci : v.closing) {
        if (!holds(ci)) {
          ok = false;
          break;
        }
      }
      // Interval forward-check of the other constraints this var touches.
      if (ok) {
        for (std::size_t ci : v.involved) {
          if (refuted(ci)) {
            ok = false;
            break;
          }
        }
      }
      if (ok) {
        ++depth;
        if (depth < choice.size()) choice[depth] = 0;
        advanced = true;
        break;
      }
    }
    if (advanced) continue;
    // Exhausted this variable: restore its range and backtrack.
    ranges[vi] = domain_ranges[vi];
    if (depth == 0) return SolverResult::kUnsat;
    --depth;
  }
}

}  // namespace pbse
