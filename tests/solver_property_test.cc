// Solver soundness properties, checked against exhaustive enumeration on
// small domains: kSat answers must come with genuinely satisfying models,
// and kUnsat answers must have no solution at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "expr/evaluator.h"
#include "expr/tape.h"
#include "solver/interval.h"
#include "solver/search_solver.h"
#include "solver/solver.h"
#include "support/rng.h"

namespace pbse {
namespace {

ArrayRef make_array() {
  static int counter = 0;
  return std::make_shared<Array>("p" + std::to_string(counter++), 4);
}

/// A random width-1 constraint over two chosen bytes of `array` (and
/// constants), built from a small grammar.
ExprRef random_constraint_on(const ArrayRef& array, std::uint32_t i0,
                             std::uint32_t i1, Rng& rng) {
  const ExprRef b0 = mk_zext(mk_read(array, i0), 16);
  const ExprRef b1 = mk_zext(mk_read(array, i1), 16);
  auto random_term = [&]() -> ExprRef {
    switch (rng.below(6)) {
      case 0: return b0;
      case 1: return b1;
      case 2: return mk_add(b0, b1);
      case 3: return mk_mul(b0, mk_const(rng.below(7) + 1, 16));
      case 4: return mk_xor(b0, b1);
      default: return mk_or(b0, mk_shl(b1, mk_const(8, 16)));
    }
  };
  const ExprRef lhs = random_term();
  const ExprRef rhs = rng.below(2) == 0
                          ? mk_const(rng.below(600), 16)
                          : random_term();
  switch (rng.below(4)) {
    case 0: return mk_eq(lhs, rhs);
    case 1: return mk_ult(lhs, rhs);
    case 2: return mk_ule(lhs, rhs);
    default: return mk_ne(lhs, rhs);
  }
}

ExprRef random_constraint(const ArrayRef& array, Rng& rng) {
  return random_constraint_on(array, 0, 1, rng);
}

/// A width-`width` constant, most often at a boundary: 0, 1, all ones, the
/// sign bit or just below it — the values that make divisors zero, shift
/// amounts reach the width and signed operands negative.
std::uint64_t random_boundary(unsigned width, Rng& rng) {
  const std::uint64_t sign = std::uint64_t{1} << (width - 1);
  switch (rng.below(6)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return truncate_to_width(~std::uint64_t{0}, width);
    case 3: return sign;
    case 4: return sign - 1;
    default: return truncate_to_width(rng(), width);
  }
}

/// The full-grammar mode of the generator: a random DAG of exactly `width`
/// bits (1..64) over the bytes of `array`, reaching every ExprKind. The
/// builders fold constant operands away, so leaves are mostly byte reads
/// (truncated or extended to the width) and constants mostly boundaries.
/// Reads of the few bytes repeat, so subterms are shared.
ExprRef random_term(const ArrayRef& array, unsigned width, unsigned depth,
                    Rng& rng) {
  auto leaf = [&]() -> ExprRef {
    if (rng.below(4) == 0) return mk_const(random_boundary(width, rng), width);
    const ExprRef byte =
        mk_read(array, static_cast<std::uint32_t>(rng.below(array->size())));
    if (width == 8) return byte;
    if (width < 8)
      return mk_extract(byte, static_cast<unsigned>(rng.below(9 - width)),
                        width);
    return rng.below(2) == 0 ? mk_zext(byte, width) : mk_sext(byte, width);
  };
  if (depth == 0) return leaf();
  auto sub = [&](unsigned w) { return random_term(array, w, depth - 1, rng); };
  switch (rng.below(width == 1 ? 10 : 8)) {
    case 0:
      return leaf();
    case 1:
      return mk_select(sub(1), sub(width), sub(width));
    case 2: {
      if (width == 1) return leaf();
      const auto low = static_cast<unsigned>(1 + rng.below(width - 1));
      return mk_concat(sub(width - low), sub(low));
    }
    case 3: {
      const auto src = static_cast<unsigned>(width + rng.below(65 - width));
      return mk_extract(sub(src),
                        static_cast<unsigned>(rng.below(src - width + 1)),
                        width);
    }
    case 4: {
      if (width == 1) return leaf();
      const ExprRef narrow =
          sub(static_cast<unsigned>(1 + rng.below(width - 1)));
      return rng.below(2) == 0 ? mk_zext(narrow, width)
                               : mk_sext(narrow, width);
    }
    case 5:
      return mk_not(sub(width));
    case 6:
    case 7: {
      using Builder = ExprRef (*)(ExprRef, ExprRef);
      static constexpr Builder kBinops[] = {
          mk_add, mk_sub, mk_mul, mk_udiv, mk_sdiv, mk_urem, mk_srem, mk_and,
          mk_or,  mk_xor, mk_shl, mk_lshr, mk_ashr};
      const std::size_t pick = rng.below(std::size(kBinops));
      // Half the right operands are boundary constants: zero divisors,
      // shift amounts at or past the width.
      ExprRef rhs = rng.below(2) == 0
                        ? mk_const(random_boundary(width, rng), width)
                        : sub(width);
      return kBinops[pick](sub(width), std::move(rhs));
    }
    default: {
      using Builder = ExprRef (*)(ExprRef, ExprRef);
      static constexpr Builder kCompares[] = {mk_eq, mk_ult, mk_ule, mk_slt,
                                              mk_sle};
      const auto operand = static_cast<unsigned>(1 + rng.below(64));
      return kCompares[rng.below(std::size(kCompares))](sub(operand),
                                                        sub(operand));
    }
  }
}

/// Ground truth by brute force over a 2-byte domain.
bool exhaustively_satisfiable_on(const ArrayRef& array, std::uint32_t i0,
                                 std::uint32_t i1,
                                 const std::vector<ExprRef>& constraints) {
  Assignment a;
  auto& bytes = a.mutable_bytes(array);
  for (unsigned v0 = 0; v0 < 256; ++v0) {
    for (unsigned v1 = 0; v1 < 256; ++v1) {
      bytes[i0] = static_cast<std::uint8_t>(v0);
      bytes[i1] = static_cast<std::uint8_t>(v1);
      bool all = true;
      for (const auto& c : constraints) {
        if (!evaluate_bool(c, a)) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
  }
  return false;
}

bool exhaustively_satisfiable(const ArrayRef& array,
                              const std::vector<ExprRef>& constraints) {
  return exhaustively_satisfiable_on(array, 0, 1, constraints);
}

// --- Evaluation tape ----------------------------------------------------------

std::uint8_t random_byte(Rng& rng) {
  static constexpr std::uint8_t kEdges[] = {0, 1, 0x7f, 0x80, 0xff};
  return rng.below(2) == 0 ? kEdges[rng.below(std::size(kEdges))]
                           : static_cast<std::uint8_t>(rng.below(256));
}

void collect_kinds(const Expr* e, std::set<ExprKind>& kinds) {
  kinds.insert(e->kind());
  for (std::size_t i = 0; i < e->num_kids(); ++i)
    collect_kinds(e->kid(i).get(), kinds);
}

class TapeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

// The tape must be a faithful compilation of the DAG: its exact value
// equals evaluate()'s under any assignment, its interval equals
// interval_of()'s under any domains, and its length is the expr_cost()
// the solver charges per check. Random DAGs of every kind at widths 1..64
// exercise the slot wiring, shared subterms and Read binding; the
// reference paths walk the DAG with their own memo, so a miscompiled
// tape cannot agree with them by construction. Both a freshly compiled
// tape and the thread's cached one are checked, with each Read bound
// through a read map as the search binds it: byte i of the array is
// variable var_of_byte[i], a permutation that changes every trial. A re-run
// of one variable's dependent steps must leave the slots a full run would.
TEST_P(TapeEquivalence, MatchesEvaluatorAndIntervalOf) {
  Rng rng(GetParam());
  auto array = std::make_shared<Array>("tape" + std::to_string(GetParam()), 6);
  const std::uint32_t n = array->size();
  std::set<ExprKind> kinds;
  for (int trial = 0; trial < 400; ++trial) {
    // Every fourth DAG is a constraint of the small grammar the soundness
    // tests below draw from; the rest use the full grammar.
    const auto width = static_cast<unsigned>(1 + rng.below(64));
    const ExprRef e =
        trial % 4 == 0
            ? random_constraint(array, rng)
            : random_term(array, width,
                          static_cast<unsigned>(1 + rng.below(5)), rng);
    collect_kinds(e.get(), kinds);

    // The cached form: the reads in collect_reads() order, the DAG size as
    // the cost, and a tape whose Read k is reads()[k].
    const CompiledPin pin;
    CompiledExpr& cached = compiled(e);
    std::vector<ReadSite> reads;
    ASSERT_EQ(collect_reads(e, reads), expr_dag_size(e)) << e->to_string();
    ASSERT_EQ(cached.reads().size(), reads.size()) << e->to_string();
    for (std::size_t k = 0; k < reads.size(); ++k) {
      EXPECT_EQ(cached.reads()[k].array.get(), reads[k].array.get());
      EXPECT_EQ(cached.reads()[k].index, reads[k].index) << e->to_string();
    }
    ASSERT_EQ(cached.cost(), expr_dag_size(e)) << e->to_string();
    ASSERT_EQ(expr_cost(e), expr_dag_size(e)) << e->to_string();
    const Tape fresh(e.get());
    ASSERT_EQ(fresh.size(), expr_cost(e)) << e->to_string();
    ASSERT_EQ(cached.tape().size(), expr_cost(e)) << e->to_string();
    ASSERT_EQ(&compiled(e), &cached) << "one entry per node";

    std::vector<std::uint32_t> var_of_byte(n);
    for (std::uint32_t i = 0; i < n; ++i)
      var_of_byte[i] = (i + static_cast<std::uint32_t>(trial)) % n;
    if (trial % 2 == 1) std::reverse(var_of_byte.begin(), var_of_byte.end());
    std::vector<std::uint32_t> read_map(reads.size());
    for (std::size_t k = 0; k < reads.size(); ++k)
      read_map[k] = var_of_byte[reads[k].index];
    std::vector<std::uint64_t> slots(fresh.size());
    std::vector<URange> range_slots(fresh.size());

    auto check_interval = [&](const DomainMap& domains, const char* what) {
      std::vector<URange> ranges(n);
      for (std::uint32_t i = 0; i < n; ++i)
        ranges[var_of_byte[i]] = read_range(domains, array.get(), i);
      const URange want = interval_of(e, domains);
      URange got{};
      for (const Tape* tape : {&fresh, &cached.tape()}) {
        got = tape->interval(ranges.data(), read_map.data(),
                             range_slots.data());
        EXPECT_EQ(got.lo, want.lo) << what << ": " << e->to_string();
        EXPECT_EQ(got.hi, want.hi) << what << ": " << e->to_string();
      }
      return got;
    };

    for (int a = 0; a < 6; ++a) {
      Assignment assignment;
      auto& bytes = assignment.mutable_bytes(array);
      std::vector<std::uint64_t> vars(n);
      for (std::uint32_t i = 0; i < n; ++i)
        vars[var_of_byte[i]] = bytes[i] = random_byte(rng);
      const std::uint64_t value =
          fresh.value(vars.data(), read_map.data(), slots.data());
      EXPECT_EQ(value, evaluate(e, assignment)) << e->to_string();
      EXPECT_EQ(cached.tape().value(vars.data(), read_map.data(),
                                    slots.data()),
                value)
          << e->to_string();

      // Pinned domains: the interval must also contain the exact value.
      DomainMap pinned;
      for (std::uint32_t i = 0; i < n; ++i)
        pinned.domain(array, i).pin(bytes[i]);
      const URange r = check_interval(pinned, "pinned");
      EXPECT_LE(r.lo, value) << e->to_string();
      EXPECT_GE(r.hi, value) << e->to_string();
    }

    check_interval(DomainMap{}, "full");
    DomainMap ranged;
    for (std::uint32_t i = 0; i < n; ++i) {
      ByteDomain& d = ranged.domain(array, i);
      const auto lo = static_cast<std::uint8_t>(rng.below(256));
      const auto hi = static_cast<std::uint8_t>(lo + rng.below(256 - lo));
      d.remove_above(hi);
      for (unsigned v = 0; v < lo; ++v) d.remove(static_cast<std::uint8_t>(v));
    }
    check_interval(ranged, "ranged");
    ByteDomain& emptied =
        ranged.domain(array, static_cast<std::uint32_t>(rng.below(n)));
    for (unsigned v = 0; v < 256; ++v) emptied.remove(static_cast<std::uint8_t>(v));
    check_interval(ranged, "empty");

    // Incremental re-runs, for every variable the DAG reads: after a full
    // run, change that variable's byte (or range) and re-run only its
    // dependents() over the same slots. Every slot, the root's included,
    // must equal a fresh full run's.
    auto random_range = [&] {
      const std::uint8_t lo = random_byte(rng);
      return URange{lo, lo + rng.below(256u - lo)};
    };
    for (std::size_t k = 0; k < reads.size(); ++k) {
      const std::uint32_t var = read_map[k];
      std::vector<std::uint32_t> steps;
      cached.tape().dependents(read_map.data(), var, steps);
      ASSERT_FALSE(steps.empty()) << e->to_string();
      EXPECT_TRUE(std::is_sorted(steps.begin(), steps.end()));
      EXPECT_EQ(steps.back(), fresh.size() - 1) << "the root reads every var";

      std::vector<std::uint64_t> vars(n), full(fresh.size());
      for (std::uint64_t& b : vars) b = random_byte(rng);
      fresh.value(vars.data(), read_map.data(), slots.data());
      vars[var] = random_byte(rng);
      const std::uint64_t partial =
          fresh.value(vars.data(), read_map.data(), slots.data(), steps);
      EXPECT_EQ(partial, fresh.value(vars.data(), read_map.data(), full.data()))
          << "var " << var << ": " << e->to_string();
      EXPECT_EQ(slots, full) << "var " << var << ": " << e->to_string();

      std::vector<URange> ranges(n), full_ranges(fresh.size());
      for (URange& r : ranges) r = random_range();
      fresh.interval(ranges.data(), read_map.data(), range_slots.data());
      ranges[var] = rng.below(2) == 0 ? random_range()
                                      : URange{vars[var], vars[var]};
      fresh.interval(ranges.data(), read_map.data(), range_slots.data(),
                     steps);
      fresh.interval(ranges.data(), read_map.data(), full_ranges.data());
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(range_slots[i].lo, full_ranges[i].lo)
            << "var " << var << ", step " << i << ": " << e->to_string();
        EXPECT_EQ(range_slots[i].hi, full_ranges[i].hi)
            << "var " << var << ", step " << i << ": " << e->to_string();
      }
    }
  }
  // Non-vacuity: the generator reached all 26 kinds.
  EXPECT_EQ(kinds.size(), 26u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TapeEquivalence,
                         ::testing::Values(5ull, 15ull, 25ull, 35ull));

// --- Search kernel ------------------------------------------------------------

/// SearchSpace::search() with every check a full run of its tape: the same
/// variables, order, closing and involved lists, candidates, probes and
/// budget tests, rebuilt here from the compiled forms.
SolverResult reference_search(const std::vector<ExprRef>& constraints,
                              const DomainMap& domains,
                              const Assignment* hint, std::size_t cap,
                              std::uint64_t max_nodes,
                              std::uint64_t max_evals,
                              std::uint64_t& cost_out,
                              Assignment& model_out) {
  struct Var {
    ArrayRef array;
    std::uint32_t index = 0;
    ByteDomain domain;
    URange range;
    std::vector<std::size_t> closing, involved;
    std::vector<std::uint8_t> candidates;
  };
  const std::uint64_t eval_limit = cost_out + max_evals;
  const CompiledPin pin;
  std::vector<Var> vars;
  std::vector<const Tape*> tapes;
  std::vector<std::vector<std::uint32_t>> var_of_read;
  for (const ExprRef& c : constraints) {
    CompiledExpr& cc = compiled(c);
    var_of_read.emplace_back();
    for (const ReadSite& r : cc.reads()) {
      std::size_t vi = 0;
      while (vi < vars.size() && (vars[vi].array != r.array ||
                                  vars[vi].index != r.index))
        ++vi;
      if (vi == vars.size()) {
        Var v;
        v.array = r.array;
        v.index = r.index;
        if (const ByteDomain* d = domains.find(r.array.get(), r.index))
          v.domain = *d;
        v.range = read_range(domains, r.array.get(), r.index);
        vars.push_back(std::move(v));
      }
      var_of_read.back().push_back(static_cast<std::uint32_t>(vi));
    }
    tapes.push_back(&cc.tape());
  }
  if (vars.empty()) return SolverResult::kSat;
  for (const Var& v : vars)
    if (v.domain.empty()) return SolverResult::kUnsat;

  std::vector<std::size_t> order(vars.size()), pos(vars.size());
  for (std::size_t vi = 0; vi < vars.size(); ++vi) order[vi] = vi;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return vars[a].domain.size() < vars[b].domain.size();
                   });
  for (std::size_t p = 0; p < order.size(); ++p) pos[order[p]] = p;
  for (std::size_t ci = 0; ci < constraints.size(); ++ci) {
    std::size_t deepest = 0;
    for (const std::uint32_t vi : var_of_read[ci]) {
      deepest = std::max(deepest, pos[vi]);
      vars[vi].involved.push_back(ci);
    }
    vars[order[deepest]].closing.push_back(ci);
  }
  for (Var& v : vars) {
    const std::size_t limit = cap > 0 ? cap : 256;
    ByteDomain left = v.domain;
    auto push = [&](std::uint8_t val) {
      if (v.candidates.size() >= limit || !left.allows(val)) return;
      v.candidates.push_back(val);
      left.remove(val);
    };
    const std::uint8_t hinted =
        hint != nullptr ? hint->byte(v.array.get(), v.index) : 0;
    if (hint != nullptr) push(hinted);
    for (const std::uint8_t b : {0x00, 0xff, 0x01, 0x80, 0x7f}) push(b);
    for (unsigned val = 0; val < 256; ++val)
      push(static_cast<std::uint8_t>(val));
  }

  std::vector<std::uint64_t> bytes(vars.size());
  std::vector<URange> ranges(vars.size());
  for (std::size_t vi = 0; vi < vars.size(); ++vi) ranges[vi] = vars[vi].range;
  std::vector<std::uint64_t> slots(1024);
  std::vector<URange> range_slots(1024);
  auto holds = [&](std::size_t ci) {
    cost_out += tapes[ci]->size();
    slots.resize(std::max(slots.size(), tapes[ci]->size()));
    return tapes[ci]->value(bytes.data(), var_of_read[ci].data(),
                            slots.data()) != 0;
  };
  auto refuted = [&](std::size_t ci) {
    cost_out += tapes[ci]->size();
    range_slots.resize(std::max(range_slots.size(), tapes[ci]->size()));
    return tapes[ci]->interval(ranges.data(), var_of_read[ci].data(),
                               range_slots.data()).hi == 0;
  };
  auto write_model = [&] {
    for (std::size_t vi = 0; vi < vars.size(); ++vi)
      model_out.mutable_bytes(vars[vi].array)[vars[vi].index] =
          static_cast<std::uint8_t>(bytes[vi]);
  };

  auto probe = [&](auto pick) {
    for (std::size_t vi = 0; vi < vars.size(); ++vi) bytes[vi] = pick(vars[vi]);
    for (std::size_t ci = 0; ci < tapes.size(); ++ci)
      if (!holds(ci)) return false;
    write_model();
    return true;
  };
  auto low = [](const Var& v) { return v.candidates[0]; };
  auto high = [](const Var& v) {
    return *std::max_element(v.candidates.begin(), v.candidates.end());
  };
  auto zeroish = [](const Var& v) {
    return std::find(v.candidates.begin(), v.candidates.end(), 0) !=
                   v.candidates.end()
               ? std::uint8_t{0}
               : v.candidates[0];
  };
  if (probe(low) || probe(high) || probe(zeroish)) return SolverResult::kSat;

  std::uint64_t nodes = 0;
  std::vector<std::size_t> choice(order.size(), 0);
  std::size_t depth = 0;
  while (true) {
    if (depth == order.size()) {
      write_model();
      return SolverResult::kSat;
    }
    const std::size_t vi = order[depth];
    const Var& v = vars[vi];
    bool advanced = false;
    while (choice[depth] < v.candidates.size()) {
      if (++nodes > max_nodes || cost_out > eval_limit)
        return SolverResult::kUnknown;
      const std::uint8_t val = v.candidates[choice[depth]++];
      bytes[vi] = val;
      ranges[vi] = URange{val, val};
      bool ok = std::all_of(v.closing.begin(), v.closing.end(), holds);
      ok = ok && std::none_of(v.involved.begin(), v.involved.end(), refuted);
      if (ok) {
        if (++depth < choice.size()) choice[depth] = 0;
        advanced = true;
        break;
      }
    }
    if (advanced) continue;
    ranges[vi] = v.range;
    if (depth == 0) return SolverResult::kUnsat;
    --depth;
  }
}

// The DFS re-runs only the steps that depend on the variable it assigns
// (DESIGN.md §9, "Evaluation kernel"), which is exact only if the slots it
// reuses were filled in the same depth entry. Against a reference that
// re-runs whole tapes, every pass setting of the solver must give the same
// result, model and charge, on random constraints of both grammars over
// 3-8 bytes with narrowed domains, under budgets that cut some searches
// short in the middle of the DFS.
TEST(SearchKernel, MatchesFullEvaluationReference) {
  Rng rng(4099);
  std::map<SolverResult, int> results;
  int dfs_searches = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const auto n = static_cast<std::uint32_t>(3 + rng.below(6));
    auto array =
        std::make_shared<Array>("search" + std::to_string(trial), n);
    std::vector<ExprRef> constraints;
    const std::size_t count = 2 + rng.below(7);
    while (constraints.size() < count) {
      const auto i0 = static_cast<std::uint32_t>(rng.below(n));
      const auto i1 = static_cast<std::uint32_t>((i0 + 1 + rng.below(n - 1)) % n);
      const ExprRef c =
          rng.below(2) == 0
              ? random_constraint_on(array, i0, i1, rng)
              : random_term(array, 1, static_cast<unsigned>(1 + rng.below(4)),
                            rng);
      if (!c->is_constant()) constraints.push_back(c);
    }
    DomainMap domains;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (rng.below(2) == 0) continue;
      ByteDomain& d = domains.domain(array, i);
      const std::uint8_t lo = random_byte(rng);
      d.remove_above(static_cast<std::uint8_t>(lo + rng.below(256u - lo)));
      for (unsigned v = 0; v < lo; ++v) d.remove(static_cast<std::uint8_t>(v));
      for (int k = rng.below(40); k > 0; --k) d.remove(random_byte(rng));
    }
    Assignment hint;
    for (std::uint8_t& b : hint.mutable_bytes(array)) b = random_byte(rng);
    const Assignment* hint_or_null = rng.below(4) == 0 ? nullptr : &hint;

    const SearchSpace space(constraints, domains);
    for (const std::size_t cap : {6, 0}) {
      const std::uint64_t max_nodes = 1 + rng.below(3000);
      const std::uint64_t max_evals = 1 + rng.below(60000);
      const std::uint64_t start = rng.below(1000);
      std::uint64_t cost = start, want_cost = start;
      Assignment model, want_model;
      const SolverResult got = space.search(hint_or_null, cap, max_nodes,
                                            max_evals, cost, model);
      const SolverResult want =
          reference_search(constraints, domains, hint_or_null, cap, max_nodes,
                           max_evals, want_cost, want_model);
      ASSERT_EQ(got, want) << "trial " << trial << ", cap " << cap;
      ASSERT_EQ(cost, want_cost) << "trial " << trial << ", cap " << cap;
      ASSERT_EQ(model.mutable_bytes(array), want_model.mutable_bytes(array))
          << "trial " << trial << ", cap " << cap;
      ++results[got];
      std::uint64_t probes = 0;
      for (const ExprRef& c : constraints) probes += 3 * expr_cost(c);
      dfs_searches += cost - start > probes;
    }
  }
  // Non-vacuity: the DFS ran, and searches ended in all three ways, some
  // cut short by a budget.
  EXPECT_GT(dfs_searches, 500);
  EXPECT_GT(results[SolverResult::kSat], 200);
  EXPECT_GT(results[SolverResult::kUnsat], 200);
  EXPECT_GT(results[SolverResult::kUnknown], 200);
}

class SolverSoundness : public ::testing::TestWithParam<std::uint64_t> {};

// Replicates the executor's usage contract: the path constraint set always
// stays satisfiable, a current model satisfying it is maintained, and each
// new branch condition is queried with that model as the hint. check_sat's
// returned model only covers the independent slice, so — like the executor
// — we overlay it on the current model.
TEST_P(SolverSoundness, MatchesExhaustiveEnumeration) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    auto array = make_array();
    VClock clock;
    Stats stats;
    Solver solver(clock, stats);

    ConstraintSet cs;
    std::vector<ExprRef> accepted;
    auto current = std::make_shared<Assignment>();

    const std::size_t n = 2 + rng.below(4);
    for (std::size_t i = 0; i < n; ++i) {
      const ExprRef query = random_constraint(array, rng);

      std::vector<ExprRef> with_query = accepted;
      with_query.push_back(query);
      const bool truth = exhaustively_satisfiable(array, with_query);

      Assignment model(*current);  // overlay target, seeded from current
      const SolverResult result = solver.check_sat(cs, query, &model, current);

      if (result == SolverResult::kSat) {
        EXPECT_TRUE(truth) << "solver claimed SAT on an UNSAT extension of a "
                              "satisfiable path: "
                           << query->to_string();
        if (!truth) continue;
        // Take the branch: the overlaid model must satisfy everything.
        cs.add(query);
        accepted.push_back(query);
        current = std::make_shared<Assignment>(std::move(model));
        for (const auto& c : accepted)
          EXPECT_TRUE(evaluate_bool(c, *current))
              << "overlaid model violates " << c->to_string();
      } else if (result == SolverResult::kUnsat) {
        EXPECT_FALSE(truth) << "solver claimed UNSAT on a SAT extension: "
                            << query->to_string();
      }
      // kUnknown is always acceptable (budget exhaustion).
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverSoundness,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull, 55ull));

// --- Slicing equivalence ----------------------------------------------------

class SlicingEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

// Independence slicing (and the caches and domain memo keyed by the sliced
// list) must never change a verdict. Two solvers — slicing on and off —
// walk the same random path over two DISJOINT byte pairs (two independence
// partitions); every definite answer from either solver must match the
// pairwise exhaustive ground truth. The path invariant "cs stays
// satisfiable" is maintained the same way the executor does: a query is
// added only when it keeps its pair satisfiable.
TEST_P(SlicingEquivalence, SlicingNeverChangesTheVerdict) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    auto array = make_array();
    VClock clock_a, clock_b;
    Stats stats_a, stats_b;
    SolverOptions unsliced;
    unsliced.use_independence = false;
    Solver sliced_solver(clock_a, stats_a);
    Solver unsliced_solver(clock_b, stats_b, unsliced);

    ConstraintSet cs_sliced, cs_unsliced;
    // Accepted constraints per byte pair: (0,1) and (2,3).
    std::vector<ExprRef> accepted[2];

    const std::size_t n = 3 + rng.below(4);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t pair = rng.below(2);
      const std::uint32_t i0 = pair * 2, i1 = pair * 2 + 1;
      const ExprRef query = random_constraint_on(array, i0, i1, rng);

      std::vector<ExprRef> with_query = accepted[pair];
      with_query.push_back(query);
      const bool truth =
          exhaustively_satisfiable_on(array, i0, i1, with_query);

      Assignment model_s, model_u;
      const SolverResult rs = sliced_solver.check_sat(cs_sliced, query,
                                                      &model_s);
      const SolverResult ru = unsliced_solver.check_sat(cs_unsliced, query,
                                                        &model_u);
      if (rs != SolverResult::kUnknown) {
        EXPECT_EQ(rs == SolverResult::kSat, truth)
            << "sliced verdict wrong for " << query->to_string();
      }
      if (ru != SolverResult::kUnknown) {
        EXPECT_EQ(ru == SolverResult::kSat, truth)
            << "unsliced verdict wrong for " << query->to_string();
      }
      if (rs != SolverResult::kUnknown && ru != SolverResult::kUnknown) {
        EXPECT_EQ(rs, ru) << "slicing changed the verdict for "
                          << query->to_string();
      }

      if (truth) {
        cs_sliced.add(query);
        cs_unsliced.add(query);
        accepted[pair].push_back(query);
      }
    }
    EXPECT_EQ(cs_sliced.hash(), cs_unsliced.hash());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlicingEquivalence,
                         ::testing::Values(7ull, 17ull, 27ull, 37ull));

// --- Cross-partition expressions (Concat / Select) --------------------------

// A Concat whose operands read DIFFERENT byte regions must union those
// regions into one partition: a conflict reachable only through the concat
// constraint has to surface on a query that mentions just one side.
TEST(SolverCrossPartition, ConcatLinksItsOperandPartitions) {
  auto array = std::make_shared<Array>("xp", 8);
  const ExprRef b0 = mk_read(array, 0);
  const ExprRef b4 = mk_read(array, 4);
  ConstraintSet cs;
  // Bytes 0 and 4 start in separate partitions...
  cs.add(mk_ule(b0, mk_const(0x10, 8)));
  cs.add(mk_ule(b4, mk_const(0x10, 8)));
  ASSERT_EQ(cs.num_partitions(), 2u);
  // ...until a concat constraint spans both.
  cs.add(mk_eq(mk_concat(b0, b4), mk_const(0x0102, 16)));
  EXPECT_EQ(cs.num_partitions(), 1u);

  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  // SAT direction: b0 == 1 (and implicitly b4 == 2).
  Assignment model;
  ASSERT_EQ(solver.check_sat(cs, mk_eq(b0, mk_const(1, 8)), &model),
            SolverResult::kSat);
  EXPECT_EQ(model.byte(array.get(), 4), 2);
  // UNSAT direction: the conflict with b4 flows through the concat — the
  // slice for a b4-only query must include all three constraints.
  EXPECT_EQ(solver.check_sat(cs, mk_eq(b4, mk_const(3, 8))),
            SolverResult::kUnsat);
  const auto slice = cs.slice(mk_eq(b4, mk_const(3, 8)));
  EXPECT_EQ(slice.constraints.size(), 3u);
}

// Select reads BOTH branches' sites (its value can depend on any of them),
// so a select constraint must merge the condition's and both arms'
// partitions, and verdicts must account for either arm.
TEST(SolverCrossPartition, SelectMergesConditionAndArmPartitions) {
  auto array = std::make_shared<Array>("xps", 8);
  const ExprRef cond = mk_ult(mk_read(array, 0), mk_const(0x80, 8));
  const ExprRef then_e = mk_read(array, 2);
  const ExprRef else_e = mk_read(array, 4);
  ConstraintSet cs;
  cs.add(mk_eq(mk_read(array, 2), mk_const(5, 8)));
  cs.add(mk_eq(mk_read(array, 4), mk_const(9, 8)));
  ASSERT_EQ(cs.num_partitions(), 2u);
  cs.add(mk_eq(mk_select(cond, then_e, else_e), mk_const(5, 8)));
  EXPECT_EQ(cs.num_partitions(), 1u);

  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  // Feasible only via the THEN arm: byte0 < 0x80 must be derivable.
  Assignment model;
  ASSERT_EQ(solver.check_sat(cs, mk_ult(mk_read(array, 0), mk_const(0x80, 8)),
                             &model),
            SolverResult::kSat);
  EXPECT_EQ(model.byte(array.get(), 2), 5);
  // The ELSE arm would need select == 9, contradicting the select
  // constraint; byte0 >= 0x80 is therefore infeasible, and discovering
  // that requires the sliced query to drag in all three constraints.
  EXPECT_EQ(solver.check_sat(cs, mk_uge(mk_read(array, 0), mk_const(0x80, 8))),
            SolverResult::kUnsat);
}

// Re-querying after a partition's content changed must not resurrect stale
// results: entries cached for the OLD partition content must not answer for
// the narrowed one, and the verdict stays correct.
TEST(SolverCrossPartition, PartitionReuseSurvivesContentChanges) {
  auto array = std::make_shared<Array>("xpr", 4);
  const ExprRef b0 = mk_read(array, 0);
  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  ConstraintSet cs;
  cs.add(mk_ult(mk_const(0x40, 8), b0));
  Assignment m1;
  ASSERT_EQ(solver.check_sat(cs, mk_ult(b0, mk_const(0x80, 8)), &m1),
            SolverResult::kSat);
  cs.add(mk_ult(b0, mk_const(0x80, 8)));
  // Narrow the same partition further; a model cached above that chose a
  // byte >= 0x60 must not be reused.
  cs.add(mk_ult(b0, mk_const(0x60, 8)));
  Assignment m2;
  ASSERT_EQ(solver.check_sat(cs, mk_ult(mk_const(0x50, 8), b0), &m2),
            SolverResult::kSat);
  EXPECT_GT(m2.byte(array.get(), 0), 0x50);
  EXPECT_LT(m2.byte(array.get(), 0), 0x60);
  EXPECT_EQ(solver.check_sat(cs, mk_ult(mk_const(0x60, 8), b0)),
            SolverResult::kUnsat);
}

TEST(SolverDeferredEquality, ChecksumBytesAreBackComputed) {
  // Eq(sum-of-data, stored-assembly) where the stored bytes appear nowhere
  // else: elimination must defer it and complete the model afterwards.
  auto array = std::make_shared<Array>("ck", 16);
  ExprRef sum = mk_const(0, 32);
  for (int i = 0; i < 4; ++i)
    sum = mk_add(sum, mk_zext(mk_read(array, i), 32));
  ExprRef stored = mk_zext(mk_read(array, 8), 32);
  for (int b = 1; b < 4; ++b)
    stored = mk_or(stored, mk_shl(mk_zext(mk_read(array, 8 + b), 32),
                                  mk_const(8 * b, 32)));
  ConstraintSet cs;
  cs.add(mk_eq(sum, stored));
  cs.add(mk_eq(mk_read(array, 0), mk_const(200, 8)));

  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  Assignment model;
  ASSERT_EQ(solver.check_sat(cs, mk_eq(mk_read(array, 1), mk_const(250, 8)),
                             &model),
            SolverResult::kSat);
  EXPECT_GE(stats.get("solver.deferred_eqs"), 1u);
  EXPECT_EQ(evaluate(sum, model), evaluate(stored, model))
      << "checksum must hold after back-computation";
  EXPECT_EQ(model.byte(array.get(), 0), 200);
  EXPECT_EQ(model.byte(array.get(), 1), 250);
}

TEST(SolverDeferredEquality, NegatedChecksumPicksDifferentValue) {
  auto array = std::make_shared<Array>("ck2", 16);
  const ExprRef data = mk_zext(mk_read(array, 0), 32);
  ExprRef stored = mk_zext(mk_read(array, 8), 32);
  for (int b = 1; b < 4; ++b)
    stored = mk_or(stored, mk_shl(mk_zext(mk_read(array, 8 + b), 32),
                                  mk_const(8 * b, 32)));
  ConstraintSet cs;
  cs.add(mk_ne(data, stored));  // "crc mismatch" path constraint

  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  Assignment model;
  ASSERT_EQ(solver.check_sat(cs, mk_eq(mk_read(array, 0), mk_const(7, 8)),
                             &model),
            SolverResult::kSat);
  EXPECT_NE(evaluate(data, model), evaluate(stored, model));
}

TEST(SolverDeferredEquality, SharedBytesAreNotDeferred) {
  // The "stored" bytes also appear in another constraint: deferring them
  // would be unsound, so the solver must keep the equality in the search.
  auto array = std::make_shared<Array>("ck3", 16);
  const ExprRef data =
      mk_or(mk_zext(mk_read(array, 0), 16),
            mk_shl(mk_zext(mk_read(array, 1), 16), mk_const(8, 16)));
  const ExprRef stored =
      mk_or(mk_zext(mk_read(array, 8), 16),
            mk_shl(mk_zext(mk_read(array, 9), 16), mk_const(8, 16)));
  ConstraintSet cs;
  cs.add(mk_eq(data, stored));
  cs.add(mk_ult(mk_const(0x1234, 16), stored));  // second use of the bytes

  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  Assignment model;
  const auto result =
      solver.check_sat(cs, mk_ule(data, mk_const(0xFFFE, 16)), &model);
  ASSERT_EQ(result, SolverResult::kSat);
  EXPECT_EQ(stats.get("solver.deferred_eqs"), 0u);
  EXPECT_EQ(evaluate(data, model), evaluate(stored, model));
  EXPECT_GT(evaluate(stored, model), 0x1234u);
}

}  // namespace
}  // namespace pbse
