// Solver subsystem: constraint sets, independence slicing, domain
// propagation (pin_equality, interval arithmetic, prune_ule), the
// backtracking search, the facade's caches and budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "expr/tape.h"
#include "solver/constraint_set.h"
#include "solver/interval.h"
#include "solver/solver.h"
#include "support/rng.h"

namespace pbse {
namespace {

ArrayRef make_array(std::uint32_t size = 64) {
  static int counter = 0;
  return std::make_shared<Array>("s" + std::to_string(counter++), size);
}

ExprRef u16_at(const ArrayRef& array, std::uint32_t i, unsigned width = 32) {
  return mk_or(mk_zext(mk_read(array, i), width),
               mk_shl(mk_zext(mk_read(array, i + 1), width),
                      mk_const(8, width)));
}

ExprRef u32_at(const ArrayRef& array, std::uint32_t i) {
  ExprRef v = mk_zext(mk_read(array, i), 32);
  for (unsigned b = 1; b < 4; ++b)
    v = mk_or(v, mk_shl(mk_zext(mk_read(array, i + b), 32),
                        mk_const(8 * b, 32)));
  return v;
}

struct SolverFixture {
  VClock clock;
  Stats stats;
  Solver solver{clock, stats};
};

// --- ConstraintSet ----------------------------------------------------------

TEST(ConstraintSet, DeduplicatesAndDropsTrue) {
  auto array = make_array();
  ConstraintSet cs;
  const ExprRef c = mk_eq(mk_read(array, 0), mk_const(1, 8));
  EXPECT_TRUE(cs.add(c));
  EXPECT_TRUE(cs.add(c));
  EXPECT_TRUE(cs.add(mk_bool(true)));
  EXPECT_EQ(cs.size(), 1u);
  EXPECT_FALSE(cs.add(mk_bool(false)));
  EXPECT_TRUE(cs.contains(c));
}

TEST(ConstraintSet, HashIsOrderInsensitive) {
  auto array = make_array();
  const ExprRef a = mk_eq(mk_read(array, 0), mk_const(1, 8));
  const ExprRef b = mk_eq(mk_read(array, 1), mk_const(2, 8));
  ConstraintSet ab, ba;
  ab.add(a);
  ab.add(b);
  ba.add(b);
  ba.add(a);
  EXPECT_EQ(ab.hash(), ba.hash());
}

// --- Independence slicing ---------------------------------------------------

TEST(Independence, KeepsOnlyConnectedConstraints) {
  auto array = make_array();
  ConstraintSet cs;
  cs.add(mk_eq(mk_read(array, 0), mk_const(1, 8)));     // byte 0
  cs.add(mk_eq(mk_read(array, 10), mk_const(2, 8)));    // byte 10
  cs.add(mk_ult(mk_read(array, 0), mk_read(array, 1))); // bytes 0,1
  const auto slice =
      cs.slice(mk_eq(mk_read(array, 1), mk_const(9, 8))).constraints;
  // Byte 1 connects to {0,1} which connects to {0}; byte 10 is independent.
  EXPECT_EQ(slice.size(), 2u);
}

TEST(Independence, TransitiveClosureThroughSharedBytes) {
  auto array = make_array();
  ConstraintSet cs;
  cs.add(mk_ult(mk_read(array, 0), mk_read(array, 1)));
  cs.add(mk_ult(mk_read(array, 1), mk_read(array, 2)));
  cs.add(mk_ult(mk_read(array, 2), mk_read(array, 3)));
  const auto slice =
      cs.slice(mk_eq(mk_read(array, 3), mk_const(9, 8))).constraints;
  EXPECT_EQ(slice.size(), 3u) << "chain must be pulled in transitively";
}

// --- Persistent partitions --------------------------------------------------

TEST(ConstraintSet, MaintainsPartitionsIncrementally) {
  auto array = make_array();
  ConstraintSet cs;
  cs.add(mk_eq(mk_read(array, 0), mk_const(1, 8)));
  cs.add(mk_eq(mk_read(array, 10), mk_const(2, 8)));
  EXPECT_EQ(cs.num_partitions(), 2u);
  // Bridging constraint merges the two partitions.
  cs.add(mk_ult(mk_read(array, 0), mk_read(array, 10)));
  EXPECT_EQ(cs.num_partitions(), 1u);
  const auto slice = cs.slice(mk_eq(mk_read(array, 10), mk_const(9, 8)));
  EXPECT_EQ(slice.constraints.size(), 3u);
}

TEST(ConstraintSet, SliceOfUnconstrainedQueryIsEmpty) {
  auto array = make_array();
  ConstraintSet cs;
  cs.add(mk_eq(mk_read(array, 0), mk_const(1, 8)));
  const auto slice = cs.slice(mk_eq(mk_read(array, 20), mk_const(3, 8)));
  EXPECT_TRUE(slice.constraints.empty());
  const auto whole = cs.whole();
  EXPECT_EQ(whole.constraints.size(), 1u);
}

TEST(ConstraintSet, PartitionsSurviveValueCopy) {
  auto array = make_array();
  ConstraintSet cs;
  cs.add(mk_ult(mk_read(array, 0), mk_read(array, 1)));
  ConstraintSet forked = cs;  // state fork
  forked.add(mk_ult(mk_read(array, 1), mk_read(array, 2)));
  EXPECT_EQ(cs.num_partitions(), 1u);
  EXPECT_EQ(forked.num_partitions(), 1u);
  EXPECT_EQ(cs.slice(mk_eq(mk_read(array, 2), mk_const(1, 8)))
                .constraints.size(),
            0u)
      << "fork must not leak partitions back into the parent";
  EXPECT_EQ(forked.slice(mk_eq(mk_read(array, 2), mk_const(1, 8)))
                .constraints.size(),
            2u);
}

// The constraints of `list` transitively connected to `query` through
// shared read sites of `array`, by brute-force fixpoint, in list order.
std::vector<ExprRef> closure_slice(const std::vector<ExprRef>& list,
                                   const ExprRef& query,
                                   const ArrayRef& array) {
  std::vector<bool> site_in(array->size(), false);
  for (const ReadSite& r : compiled(query).reads()) site_in[r.index] = true;
  std::vector<bool> in(list.size(), false);
  for (bool grew = true; grew;) {
    grew = false;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (in[i]) continue;
      const auto& reads = compiled(list[i]).reads();
      if (std::none_of(reads.begin(), reads.end(), [&](const ReadSite& r) {
            return site_in[r.index];
          }))
        continue;
      in[i] = true;
      grew = true;
      for (const ReadSite& r : reads) site_in[r.index] = true;
    }
  }
  std::vector<ExprRef> out;
  for (std::size_t i = 0; i < list.size(); ++i)
    if (in[i]) out.push_back(list[i]);
  return out;
}

TEST(ConstraintSet, CopiesDivergeAndSlicesMatchClosureAfterGrowth) {
  // Thousands of read sites push the member set and the site table through
  // many doublings, and a copy taken midway then evolves on its own.
  const auto array = make_array(8192);
  Rng rng(7);
  const auto random_constraint = [&](std::uint32_t lo, std::uint32_t hi) {
    const auto i = static_cast<std::uint32_t>(lo + rng.below(hi - lo));
    auto j = static_cast<std::uint32_t>(lo + rng.below(hi - lo - 1));
    if (j >= i) ++j;
    return mk_ult(mk_read(array, i), mk_read(array, j));
  };
  const auto add = [](ConstraintSet& set, std::vector<ExprRef>& list,
                      const ExprRef& c) {
    if (!set.contains(c)) list.push_back(c);
    set.add(c);
  };

  ConstraintSet original;
  std::vector<ExprRef> original_list;
  for (int k = 0; k < 1500; ++k)
    add(original, original_list, random_constraint(0, 4096));
  ConstraintSet copy = original;
  std::vector<ExprRef> copy_list = original_list;
  for (int k = 0; k < 1500; ++k) {
    add(original, original_list, random_constraint(0, 8192));
    add(copy, copy_list, random_constraint(4096, 8192));
  }

  // Each side holds constraints the other lacks.
  std::size_t only_original = 0;
  std::size_t only_copy = 0;
  for (const ExprRef& c : original_list) only_original += !copy.contains(c);
  for (const ExprRef& c : copy_list) only_copy += !original.contains(c);
  EXPECT_GT(only_original, 1000u);
  EXPECT_GT(only_copy, 1000u);

  for (const auto& [set, list] :
       {std::pair<const ConstraintSet*, const std::vector<ExprRef>*>{
            &original, &original_list},
        {&copy, &copy_list}}) {
    ASSERT_EQ(set->constraints(), *list);
    ConstraintSet rebuilt;
    for (const ExprRef& c : *list) rebuilt.add(c);
    EXPECT_EQ(set->hash(), rebuilt.hash());
    EXPECT_EQ(set->num_partitions(), rebuilt.num_partitions());
    for (std::size_t i = 0; i < list->size(); i += 13)
      ASSERT_EQ(set->slice((*list)[i]).constraints,
                closure_slice(*list, (*list)[i], array))
          << "slice of constraint " << i;
    for (std::uint32_t site = 0; site < array->size(); site += 61) {
      const ExprRef q = mk_eq(mk_read(array, site), mk_const(1, 8));
      ASSERT_EQ(set->slice(q).constraints, closure_slice(*list, q, array))
          << "slice of site " << site;
    }
  }
}

// --- Incremental pipeline hit classes ---------------------------------------

TEST(SolverIncremental, GrownPartitionExitStaysUnsat) {
  // A loop-shaped workload: the same infeasible exit is re-queried while
  // its partition keeps growing. The grown list misses the exact cache and
  // must still be proved UNSAT.
  auto array = make_array();
  SolverFixture f;
  const ExprRef b0 = mk_read(array, 0);
  ConstraintSet cs;
  cs.add(mk_ult(b0, mk_const(0x10, 8)));
  const ExprRef exit_q = mk_ult(mk_const(0x20, 8), b0);
  EXPECT_EQ(f.solver.check_sat(cs, exit_q), SolverResult::kUnsat);

  // The loop takes another iteration: a SAT query lands in the partition.
  const ExprRef stay_q = mk_ult(b0, mk_const(0x0c, 8));
  ASSERT_EQ(f.solver.check_sat(cs, stay_q), SolverResult::kSat);
  cs.add(stay_q);

  // Same exit query, grown list: the exact key differs.
  EXPECT_EQ(f.solver.check_sat(cs, exit_q), SolverResult::kUnsat);
}

TEST(SolverIncremental, ReplaysCachedModelInsteadOfSearching) {
  auto array = make_array();
  SolverFixture f;
  const ExprRef b0 = mk_read(array, 0);
  ConstraintSet cs;
  cs.add(mk_ult(mk_const(0x40, 8), b0));
  const ExprRef q1 = mk_ult(b0, mk_const(0x80, 8));
  Assignment m1;
  ASSERT_EQ(f.solver.check_sat(cs, q1, &m1), SolverResult::kSat);
  cs.add(q1);

  // Implied by c1, but not by the all-zeros fast path and not an exact
  // cache hit: the model must still satisfy the whole path.
  const ExprRef q2 = mk_ult(mk_const(0x30, 8), b0);
  Assignment m2;
  ASSERT_EQ(f.solver.check_sat(cs, q2, &m2), SolverResult::kSat);
  EXPECT_GT(m2.byte(array.get(), 0), 0x40);
}

TEST(SolverIncremental, DomainMemoSeedsExtensionQueries) {
  auto array = make_array();
  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  const ExprRef b0 = mk_read(array, 0);
  ConstraintSet cs;
  cs.add(mk_ult(mk_const(0x10, 8), b0));
  ASSERT_EQ(solver.check_sat(cs, mk_ult(b0, mk_const(0xF0, 8))),
            SolverResult::kSat);
  EXPECT_GT(solver.domain_memo_size(), 0u);
  cs.add(mk_ult(b0, mk_const(0xF0, 8)));

  // The extension query's prefix is exactly the previous full list.
  ASSERT_EQ(solver.check_sat(cs, mk_ult(b0, mk_const(0xE0, 8))),
            SolverResult::kSat);
  EXPECT_GE(stats.get("solver.domain_memo_hits"), 1u);
}

TEST(SolverIncremental, MemberQueryDoesNotPoisonSiblingMemo) {
  // validate_model's repair path re-checks a constraint that is already a
  // member of the set, so the sliced list already contains the query.
  // Regression: appending it again doubled its hash in the order-
  // insensitive XOR cache key (the duplicate cancels), filing domains
  // narrowed by the query under the key of the list WITHOUT it; a sibling
  // state forked before the constraint was added then seeded those
  // over-narrowed domains from the memo and returned a wrong UNSAT.
  auto array = make_array();
  SolverFixture f;
  const ExprRef b0 = mk_read(array, 0);
  const ExprRef p = mk_ult(b0, mk_const(200, 8));
  const ExprRef q = mk_eq(b0, mk_const(5, 8));
  ConstraintSet with_q;
  with_q.add(p);
  with_q.add(q);
  ASSERT_EQ(f.solver.check_sat(with_q, q), SolverResult::kSat);

  // The sibling's prefix is exactly [p]; b0 == 7 is feasible under it.
  ConstraintSet without_q;
  without_q.add(p);
  Assignment model;
  ASSERT_EQ(f.solver.check_sat(without_q, mk_eq(b0, mk_const(7, 8)), &model),
            SolverResult::kSat);
  EXPECT_EQ(model.byte(array.get(), 0), 7);
}

TEST(SolverIncremental, DomainMemoDeltaChainIsBounded) {
  auto array = make_array();
  VClock clock;
  Stats stats;
  SolverOptions options;
  options.max_domain_memo_delta_depth = 2;
  Solver solver(clock, stats, options);
  const ExprRef b0 = mk_read(array, 0);
  ConstraintSet cs;
  cs.add(mk_ult(mk_const(2, 8), b0));
  // Walk a path: each query tightens the bound and joins the set.
  for (unsigned bound = 0xF0; bound >= 0x80; bound -= 0x10) {
    const ExprRef q = mk_ult(b0, mk_const(bound, 8));
    ASSERT_EQ(solver.check_sat(cs, q), SolverResult::kSat);
    cs.add(q);
  }
  // Extensions hit the memo, but not all of them: an entry that has
  // accumulated max_domain_memo_delta_depth delta layers is recomputed
  // from scratch (a miss) instead of being extended further.
  const std::uint64_t hits = stats.get("solver.domain_memo_hits");
  EXPECT_GE(hits, 1u);
  EXPECT_LT(hits, 7u);
}

TEST(SolverIncremental, DisabledFlagsFallBackToBaselinePipeline) {
  auto array = make_array();
  VClock clock;
  Stats stats;
  SolverOptions options;
  options.use_domain_memo = false;
  Solver solver(clock, stats, options);
  const ExprRef b0 = mk_read(array, 0);
  ConstraintSet cs;
  cs.add(mk_ult(mk_const(0x40, 8), b0));
  ASSERT_EQ(solver.check_sat(cs, mk_ult(b0, mk_const(0x80, 8))),
            SolverResult::kSat);
  cs.add(mk_ult(b0, mk_const(0x80, 8)));
  ASSERT_EQ(solver.check_sat(cs, mk_ult(mk_const(0x30, 8), b0)),
            SolverResult::kSat);
  EXPECT_EQ(stats.get("solver.domain_memo_hits"), 0u);
  EXPECT_EQ(solver.domain_memo_size(), 0u);
}

// --- pin_equality -------------------------------------------------------------

TEST(PinEquality, PinsAssembledIntegers) {
  auto array = make_array();
  DomainMap domains;
  bool unsat = false;
  ASSERT_TRUE(pin_equality(u32_at(array, 4), 0xAABBCCDD, domains, unsat));
  EXPECT_FALSE(unsat);
  EXPECT_EQ(domains.find(array.get(), 4)->values(),
            std::vector<std::uint8_t>{0xDD});
  EXPECT_EQ(domains.find(array.get(), 7)->values(),
            std::vector<std::uint8_t>{0xAA});
}

TEST(PinEquality, PeelsConstantAddend) {
  auto array = make_array();
  DomainMap domains;
  bool unsat = false;
  const ExprRef e = mk_add(u16_at(array, 0), mk_const(10, 32));
  ASSERT_TRUE(pin_equality(e, 0x1234 + 10, domains, unsat));
  EXPECT_FALSE(unsat);
  EXPECT_EQ(domains.find(array.get(), 0)->values(),
            std::vector<std::uint8_t>{0x34});
  EXPECT_EQ(domains.find(array.get(), 1)->values(),
            std::vector<std::uint8_t>{0x12});
}

TEST(PinEquality, PowerOfTwoMultiplier) {
  auto array = make_array();
  DomainMap domains;
  bool unsat = false;
  // (zext16(u16) * 16) == 0x120 -> u16 == 0x12.
  const ExprRef e =
      mk_mul(mk_zext(u16_at(array, 0, 16), 32), mk_const(16, 32));
  ASSERT_TRUE(pin_equality(e, 0x120, domains, unsat));
  EXPECT_FALSE(unsat);
  EXPECT_EQ(domains.find(array.get(), 0)->values(),
            std::vector<std::uint8_t>{0x12});
}

TEST(PinEquality, DetectsMisalignedMultiplier) {
  auto array = make_array();
  DomainMap domains;
  bool unsat = false;
  const ExprRef e =
      mk_mul(mk_zext(u16_at(array, 0, 16), 32), mk_const(16, 32));
  ASSERT_TRUE(pin_equality(e, 0x121, domains, unsat));  // not divisible by 16
  EXPECT_TRUE(unsat);
}

TEST(PinEquality, DetectsOutOfRangeZext) {
  auto array = make_array();
  DomainMap domains;
  bool unsat = false;
  const ExprRef e = mk_zext(mk_read(array, 0), 32);
  ASSERT_TRUE(pin_equality(e, 0x100, domains, unsat));
  EXPECT_TRUE(unsat) << "a zext of one byte can never be 0x100";
}

TEST(PinEquality, UncoveredBitsMakeUnsat) {
  auto array = make_array();
  DomainMap domains;
  bool unsat = false;
  // Assembly covers bits 0..15 only; value with bit 20 set is impossible.
  ASSERT_TRUE(pin_equality(u16_at(array, 0), 0x100000, domains, unsat));
  EXPECT_TRUE(unsat);
}

// --- Byte domains ----------------------------------------------------------------

// The domain is four u64 words; these values sit on and beside each word
// boundary, where a word-level min()/max() or the words() layout (word w
// holds values [64w, 64w+64), pbss encodes it verbatim) would go wrong.
TEST(ByteDomain, WordBoundaryValues) {
  const std::uint8_t edges[] = {0, 63, 64, 127, 128, 191, 192, 255};
  for (const std::uint8_t v : edges) {
    SCOPED_TRACE(static_cast<int>(v));
    ByteDomain pinned;
    pinned.pin(v);
    EXPECT_EQ(pinned.size(), 1u);
    EXPECT_EQ(pinned.min(), v);
    EXPECT_EQ(pinned.max(), v);
    EXPECT_EQ(pinned.values(), std::vector<std::uint8_t>{v});
    std::array<std::uint64_t, 4> expected{};
    expected[v / 64] = std::uint64_t{1} << (v % 64);
    EXPECT_EQ(pinned.words(), expected);

    // Everything but v: the extremes move off v exactly when v is one.
    ByteDomain holed;
    holed.remove(v);
    EXPECT_EQ(holed.size(), 255u);
    EXPECT_FALSE(holed.allows(v));
    EXPECT_EQ(holed.min(), v == 0 ? 1 : 0);
    EXPECT_EQ(holed.max(), v == 255 ? 254 : 255);
    EXPECT_EQ(holed.values().size(), 255u);

    // [0, v] via remove_above, and the words() round trip.
    ByteDomain capped;
    capped.remove_above(v);
    EXPECT_EQ(capped.size(), v + 1u);
    EXPECT_EQ(capped.min(), 0);
    EXPECT_EQ(capped.max(), v);
    ByteDomain restored;
    restored.set_words(capped.words());
    EXPECT_EQ(restored.values(), capped.values());
    EXPECT_EQ(restored.words(), capped.words());
  }
  // Two values in different words: min and max come from different words.
  ByteDomain pair;
  pair.pin(63);
  ByteDomain other;
  other.pin(192);
  std::array<std::uint64_t, 4> both = pair.words();
  both[3] |= other.words()[3];
  pair.set_words(both);
  EXPECT_EQ(pair.min(), 63);
  EXPECT_EQ(pair.max(), 192);
  EXPECT_EQ(pair.values(), (std::vector<std::uint8_t>{63, 192}));
}

TEST(ByteDomain, EmptyDomain) {
  ByteDomain d;
  EXPECT_EQ(d.size(), 256u);
  for (unsigned v = 0; v < 256; ++v) d.remove(static_cast<std::uint8_t>(v));
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.size(), 0u);
  EXPECT_TRUE(d.values().empty());
  EXPECT_EQ(d.words(), (std::array<std::uint64_t, 4>{}));
  ByteDomain restored;
  restored.set_words(d.words());
  EXPECT_TRUE(restored.empty());
  // An empty domain reads as the full byte range (the query is UNSAT and
  // propagation reports it; intervals stay conservative meanwhile).
  auto array = make_array();
  DomainMap domains;
  domains.domain(array, 0) = d;
  const URange r = read_range(domains, array.get(), 0);
  EXPECT_EQ(r.lo, 0u);
  EXPECT_EQ(r.hi, 255u);
  EXPECT_EQ(interval_of(mk_read(array, 0), domains).hi, 255u);
}

// --- Interval arithmetic -------------------------------------------------------

TEST(Interval, RangesOfAssembliesAndArithmetic) {
  auto array = make_array();
  DomainMap domains;
  const auto r16 = interval_of(u16_at(array, 0), domains);
  EXPECT_EQ(r16.lo, 0u);
  EXPECT_EQ(r16.hi, 0xFF00u + 0xFFu);
  const auto rmul =
      interval_of(mk_mul(u16_at(array, 0), mk_const(12, 32)), domains);
  EXPECT_EQ(rmul.hi, 0xFFFFull * 12);
  // Pinned domain narrows the range.
  domains.domain(array, 1).pin(0);
  const auto rpinned = interval_of(u16_at(array, 0), domains);
  EXPECT_EQ(rpinned.hi, 255u);
}

TEST(Interval, DecidesComparisons) {
  auto array = make_array();
  DomainMap domains;
  // u16 + 200 > 100 always (min is 200).
  const ExprRef always =
      mk_ult(mk_const(100, 32), mk_add(u16_at(array, 0), mk_const(200, 32)));
  EXPECT_EQ(interval_of(always, domains).lo, 1u);
  // u16 > 0x10000 never.
  const ExprRef never = mk_ult(mk_const(0x10000, 32), u16_at(array, 0));
  EXPECT_EQ(interval_of(never, domains).hi, 0u);
}

TEST(Interval, PruneUleAssembly) {
  auto array = make_array();
  DomainMap domains;
  prune_ule_assembly(u16_at(array, 0), 0x0234, domains);
  // High lane byte can be at most 2.
  EXPECT_EQ(domains.find(array.get(), 1)->size(), 3u);
  EXPECT_EQ(domains.find(array.get(), 0), nullptr)
      << "low lane admits all values (0x234 >> 0 > 255) and stays untouched";
}

// --- Full solver -----------------------------------------------------------------

TEST(Solver, MagicBytesViaPropagation) {
  SolverFixture fx;
  auto array = make_array();
  ConstraintSet cs;
  cs.add(mk_eq(mk_read(array, 0), mk_const(0x7f, 8)));
  Assignment model;
  EXPECT_EQ(fx.solver.check_sat(cs, mk_eq(mk_read(array, 1), mk_const('M', 8)),
                                &model),
            SolverResult::kSat);
  EXPECT_EQ(model.byte(array.get(), 1), 'M');
  // Byte 0's constraint is INDEPENDENT of the query and is sliced away, so
  // the model is only filled for the connected bytes (a caller's model is
  // seeded from the state's existing model, which satisfies the rest).
  EXPECT_EQ(model.byte(array.get(), 0), 0);
  // A query connected to both bytes pulls the magic constraint in.
  Assignment full;
  EXPECT_EQ(fx.solver.check_sat(
                cs, mk_ule(mk_read(array, 0), mk_read(array, 1)), &full),
            SolverResult::kSat);
  EXPECT_EQ(full.byte(array.get(), 0), 0x7f);
  EXPECT_GE(full.byte(array.get(), 1), 0x7f);
}

TEST(Solver, ConflictingEqualitiesAreUnsat) {
  SolverFixture fx;
  auto array = make_array();
  ConstraintSet cs;
  cs.add(mk_eq(mk_read(array, 0), mk_const(1, 8)));
  EXPECT_EQ(
      fx.solver.check_sat(cs, mk_eq(mk_read(array, 0), mk_const(2, 8))),
      SolverResult::kUnsat);
}

TEST(Solver, LoopBoundQueriesAreFast) {
  SolverFixture fx;
  auto array = make_array();
  ConstraintSet cs;
  const ExprRef count = u16_at(array, 0);
  cs.add(mk_ult(mk_const(0, 32), count));  // count != 0
  // phoff + count * 12 <= 100 with phoff a u32 assembly.
  const ExprRef bound = mk_ule(
      mk_add(u32_at(array, 4), mk_mul(count, mk_const(12, 32))),
      mk_const(100, 32));
  Assignment model;
  EXPECT_EQ(fx.solver.check_sat(cs, bound, &model), SolverResult::kSat);
  // Verify the model actually satisfies everything.
  EXPECT_TRUE(evaluate_bool(bound, model));
  EXPECT_LT(fx.clock.now(), 50'000u) << "should not burn the search budget";
}

TEST(Solver, OverflowQueriesSolvedByProbes) {
  SolverFixture fx;
  auto array = make_array();
  ConstraintSet cs;
  const ExprRef w = u32_at(array, 0);
  const ExprRef h = u32_at(array, 4);
  // Can w * h overflow 32 bits? (widened comparison)
  const ExprRef wide =
      mk_mul(mk_zext(w, 64), mk_zext(h, 64));
  const ExprRef overflow = mk_ult(mk_const(0xffffffffull, 64), wide);
  Assignment model;
  EXPECT_EQ(fx.solver.check_sat(cs, overflow, &model), SolverResult::kSat);
  EXPECT_TRUE(evaluate_bool(overflow, model));
}

TEST(Solver, HintFastPathUsesNoSearch) {
  SolverFixture fx;
  auto array = make_array(8);
  ConstraintSet cs;
  cs.add(mk_eq(mk_read(array, 0), mk_const(42, 8)));
  auto hint = std::make_shared<Assignment>();
  hint->mutable_bytes(array)[0] = 42;
  const auto before = fx.stats.get("solver.search_sat");
  // The query must be connected to the constraints (a `true` query slices
  // everything away); ask about byte 0 directly.
  EXPECT_EQ(fx.solver.check_sat(cs, mk_ult(mk_read(array, 0), mk_const(99, 8)),
                                nullptr, hint),
            SolverResult::kSat);
  EXPECT_EQ(fx.stats.get("solver.hint_hits"), 1u);
  EXPECT_EQ(fx.stats.get("solver.search_sat"), before);
}

TEST(Solver, CacheHitsOnRepeatedQueries) {
  SolverFixture fx;
  auto array = make_array();
  ConstraintSet cs;
  cs.add(mk_ult(mk_read(array, 0), mk_read(array, 1)));
  const ExprRef q = mk_eq(mk_read(array, 1), mk_const(0, 8));  // UNSAT
  EXPECT_EQ(fx.solver.check_sat(cs, q), SolverResult::kUnsat);
  const auto hits_before = fx.stats.get("solver.cache_hits");
  EXPECT_EQ(fx.solver.check_sat(cs, q), SolverResult::kUnsat);
  EXPECT_EQ(fx.stats.get("solver.cache_hits"), hits_before + 1);
}

TEST(Solver, SolveAllValidatesWholeSet) {
  SolverFixture fx;
  auto array = make_array();
  ConstraintSet cs;
  cs.add(mk_eq(mk_read(array, 0), mk_const(1, 8)));
  cs.add(mk_eq(mk_read(array, 5), mk_const(2, 8)));
  Assignment model;
  EXPECT_EQ(fx.solver.solve_all(cs, &model), SolverResult::kSat);
  EXPECT_EQ(model.byte(array.get(), 0), 1);
  EXPECT_EQ(model.byte(array.get(), 5), 2);
}

TEST(Solver, ChargesVirtualTime) {
  SolverFixture fx;
  auto array = make_array();
  ConstraintSet cs;
  for (int i = 0; i < 8; ++i)
    cs.add(mk_ult(mk_read(array, i), mk_read(array, i + 1)));
  const auto t0 = fx.clock.now();
  fx.solver.check_sat(cs, mk_eq(mk_read(array, 8), mk_const(200, 8)));
  EXPECT_GT(fx.clock.now(), t0) << "solver work must consume virtual time";
}

// Property sweep: equalities over assembled integers of every width are
// solved exactly and the model round-trips.
class SolverRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverRoundTrip, AssembledEqualityModels) {
  SolverFixture fx;
  auto array = make_array();
  const std::uint64_t target = GetParam();
  ConstraintSet cs;
  const ExprRef value = u32_at(array, 0);
  Assignment model;
  ASSERT_EQ(fx.solver.check_sat(
                cs, mk_eq(value, mk_const(target & 0xffffffff, 32)), &model),
            SolverResult::kSat);
  EXPECT_EQ(evaluate(value, model), target & 0xffffffff);
}

INSTANTIATE_TEST_SUITE_P(Values, SolverRoundTrip,
                         ::testing::Values(0ull, 1ull, 0xffull, 0x1234ull,
                                           0xdeadbeefull, 0xffffffffull,
                                           0x80000000ull, 0x00ff00ffull));

// --- Compiled-constraint cache ---------------------------------------------

struct QueryOutcome {
  SolverResult result = SolverResult::kUnknown;
  std::vector<std::uint8_t> model;
  std::uint64_t ticks = 0;
  std::size_t cache_bytes_after = 0;  // compiled-cache bytes on return
};

// One query over kChain chained constraints, c_k = k < file[0] + ... +
// file[k], whose tapes together take more than kCompiledCacheBytes. Zeros
// fail every c_k, so the query compiles every tape in propagation and runs
// the search's probes (all-0xff satisfies it). `filler_bytes` of unrelated
// compiled constraints are put in the thread's cache first.
QueryOutcome run_chain_query(std::size_t filler_bytes) {
  constexpr std::uint32_t kChain = 1024;
  auto file = std::make_shared<Array>("file", kChain);
  for (std::uint32_t i = 0; compiled_cache_bytes() < filler_bytes; ++i)
    compiled(mk_ult(mk_const(i, 32), u16_at(file, i % (kChain - 1)))).tape();
  ConstraintSet cs;
  ExprRef sum = mk_const(0, 32);
  for (std::uint32_t k = 0; k + 1 < kChain; ++k) {
    sum = mk_add(sum, mk_zext(mk_read(file, k), 32));
    cs.add(mk_ult(mk_const(k, 32), sum));
  }
  sum = mk_add(sum, mk_zext(mk_read(file, kChain - 1), 32));
  const ExprRef query = mk_ult(mk_const(kChain - 1, 32), sum);

  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  Assignment model;
  QueryOutcome out;
  out.result = solver.check_sat(cs, query, &model);
  out.model = model.mutable_bytes(file);
  out.ticks = clock.now();
  out.cache_bytes_after = compiled_cache_bytes();
  return out;
}

TEST(CompiledCache, QueryPastTheBoundKeepsItsEntriesAndMatchesColdThread) {
  // Each run gets a fresh thread, so a fresh interner and an empty cache.
  auto on_fresh_thread = [](std::size_t filler_bytes) {
    QueryOutcome out;
    std::thread([&] { out = run_chain_query(filler_bytes); }).join();
    return out;
  };
  const QueryOutcome cold = on_fresh_thread(0);
  const QueryOutcome warm = on_fresh_thread(kCompiledCacheBytes / 2);
  ASSERT_EQ(cold.result, SolverResult::kSat);
  EXPECT_EQ(cold.model, std::vector<std::uint8_t>(1024, 0xff));
  // The query alone overflows the bound, and nothing was cleared while it
  // held its tapes.
  EXPECT_GT(cold.cache_bytes_after, kCompiledCacheBytes);
  EXPECT_GT(warm.cache_bytes_after,
            kCompiledCacheBytes + kCompiledCacheBytes / 2);
  EXPECT_EQ(warm.result, cold.result);
  EXPECT_EQ(warm.model, cold.model);
  EXPECT_EQ(warm.ticks, cold.ticks);

  // Outside a query, the next miss clears the cache wholesale.
  std::thread([] {
    run_chain_query(0);
    ASSERT_GT(compiled_cache_bytes(), kCompiledCacheBytes);
    auto array = std::make_shared<Array>("other", 4);
    compiled(mk_eq(mk_read(array, 0), mk_const(7, 8)));
    EXPECT_LT(compiled_cache_bytes(), 1024u) << "one small entry is left";
  }).join();
}

}  // namespace
}  // namespace pbse
