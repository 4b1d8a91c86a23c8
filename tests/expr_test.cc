// Expression library: construction, folding, interning, width semantics,
// and differential properties of the evaluator.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "expr/evaluator.h"
#include "expr/expr.h"
#include "expr/node_map.h"
#include "support/rng.h"

namespace pbse {
namespace {

ArrayRef make_array(std::uint32_t size = 64) {
  static int counter = 0;
  return std::make_shared<Array>("t" + std::to_string(counter++), size);
}

TEST(Expr, ConstantFoldingArithmetic) {
  EXPECT_EQ(mk_add(mk_const(3, 32), mk_const(4, 32))->constant_value(), 7u);
  EXPECT_EQ(mk_sub(mk_const(3, 32), mk_const(4, 32))->constant_value(),
            0xffffffffu);
  EXPECT_EQ(mk_mul(mk_const(200, 8), mk_const(2, 8))->constant_value(),
            144u);  // 400 mod 256
  EXPECT_EQ(mk_udiv(mk_const(7, 32), mk_const(2, 32))->constant_value(), 3u);
  EXPECT_EQ(mk_udiv(mk_const(7, 32), mk_const(0, 32))->constant_value(), 0u)
      << "division by zero folds to 0 (the VM guards real divisions)";
  EXPECT_EQ(mk_sdiv(mk_const(0xff, 8), mk_const(2, 8))->constant_value(),
            0xffu & static_cast<std::uint64_t>(-1 / 2 - 0))
      << "signed division of -1 by 2";
}

TEST(Expr, SignedFoldingUsesSignExtension) {
  // -8 (0xf8 as i8) >> 1 arithmetic = -4 (0xfc).
  EXPECT_EQ(mk_ashr(mk_const(0xf8, 8), mk_const(1, 8))->constant_value(),
            0xfcu);
  // slt: -1 < 1 at width 8.
  EXPECT_TRUE(mk_slt(mk_const(0xff, 8), mk_const(1, 8))->is_true());
  // ult: 0xff > 1 unsigned.
  EXPECT_TRUE(mk_ult(mk_const(1, 8), mk_const(0xff, 8))->is_true());
  EXPECT_EQ(sign_extend(0x80, 8), -128);
  EXPECT_EQ(sign_extend(0x7f, 8), 127);
  EXPECT_EQ(sign_extend(0xffff, 16), -1);
}

TEST(Expr, IdentitySimplifications) {
  auto array = make_array();
  const ExprRef x = mk_read(array, 0);
  EXPECT_EQ(mk_add(x, mk_const(0, 8)).get(), x.get());
  EXPECT_EQ(mk_mul(x, mk_const(1, 8)).get(), x.get());
  EXPECT_TRUE(mk_mul(x, mk_const(0, 8))->is_constant());
  EXPECT_EQ(mk_and(x, mk_const(0xff, 8)).get(), x.get());
  EXPECT_TRUE(mk_and(x, mk_const(0, 8))->is_constant());
  EXPECT_EQ(mk_or(x, mk_const(0, 8)).get(), x.get());
  EXPECT_EQ(mk_xor(x, mk_const(0, 8)).get(), x.get());
  EXPECT_TRUE(mk_sub(x, x)->is_constant());
  EXPECT_TRUE(mk_eq(x, x)->is_true());
  EXPECT_TRUE(mk_ult(x, x)->is_false());
  EXPECT_TRUE(mk_ule(x, x)->is_true());
}

TEST(Expr, InterningGivesPointerIdentity) {
  auto array = make_array();
  const ExprRef a =
      mk_add(mk_zext(mk_read(array, 3), 32), mk_const(17, 32));
  const ExprRef b =
      mk_add(mk_zext(mk_read(array, 3), 32), mk_const(17, 32));
  EXPECT_EQ(a.get(), b.get());
}

TEST(Expr, InternerKeepsIdentityAcrossGrowth) {
  // 150k Reads of a fresh array and a Not over each: 300k new nodes, which
  // takes the table through several doublings.
  constexpr std::uint32_t kReads = 150'000;
  auto array = make_array(kReads);
  const std::size_t before = intern_table_size();
  std::vector<ExprRef> reads, nots;
  for (std::uint32_t i = 0; i < kReads; ++i) {
    reads.push_back(mk_read(array, i));
    nots.push_back(mk_not(reads.back()));
  }
  EXPECT_EQ(intern_table_size(), before + 2 * kReads);
  for (std::uint32_t i = 0; i < kReads; ++i) {
    ASSERT_EQ(mk_read(array, i).get(), reads[i].get()) << i;
    ASSERT_EQ(mk_not(reads[i]).get(), nots[i].get()) << i;
  }
  EXPECT_EQ(intern_table_size(), before + 2 * kReads);
}

TEST(Expr, InternerSeparatesNodesWithEqualHashes) {
  // Arrays hash by name and size but compare by pointer, so these Reads
  // have equal content hashes and must still be distinct nodes.
  const auto a = std::make_shared<Array>("same", 8);
  const auto b = std::make_shared<Array>("same", 8);
  const ExprRef ra = mk_read(a, 2);
  const ExprRef rb = mk_read(b, 2);
  EXPECT_EQ(ra->hash(), rb->hash());
  EXPECT_NE(ra.get(), rb.get());
  const ExprRef sum_a = mk_add(ra, mk_const(1, 8));
  const ExprRef sum_b = mk_add(rb, mk_const(1, 8));
  EXPECT_EQ(sum_a->hash(), sum_b->hash());
  EXPECT_NE(sum_a.get(), sum_b.get());
  EXPECT_EQ(sum_a->kid(0).get(), ra.get());
  EXPECT_EQ(sum_b->kid(0).get(), rb.get());
  EXPECT_EQ(mk_read(b, 2).get(), rb.get());
  EXPECT_EQ(mk_read(a, 2).get(), ra.get());
  EXPECT_EQ(mk_add(mk_read(b, 2), mk_const(1, 8)).get(), sum_b.get());
  EXPECT_EQ(mk_add(mk_read(a, 2), mk_const(1, 8)).get(), sum_a.get());
}

TEST(Expr, ConstantCacheReturnsTheInternedNode) {
  const auto raw = [](std::uint64_t value, unsigned width) {
    return mk_raw(ExprKind::kConstant, width, value, nullptr, {}).get();
  };
  // Widths 1..64 at 0, 1, the sign bit and all ones, requested in a
  // different order each round, with 16k other constants between rounds
  // (four per cache slot) so that they evict each other.
  for (int round = 0; round < 4; ++round) {
    for (unsigned i = 0; i < 64; ++i) {
      const unsigned w = round % 2 == 0 ? i + 1 : 64 - i;
      const std::uint64_t ones = truncate_to_width(~std::uint64_t{0}, w);
      for (const std::uint64_t v :
           {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << (w - 1),
            ones}) {
        ASSERT_EQ(mk_const(v, w).get(), raw(v, w))
            << "width " << w << " value " << v;
      }
      // Bits above the width are dropped before the lookup.
      ASSERT_EQ(mk_const(~std::uint64_t{0}, w).get(), raw(ones, w));
    }
    for (std::uint64_t v = 0; v < 16'384; ++v) {
      const unsigned w = 16 + static_cast<unsigned>(v % 49);
      ASSERT_EQ(mk_const(v * 977 + round, w).get(),
                raw(truncate_to_width(v * 977 + round, w), w));
    }
  }
}

TEST(Expr, CommutativeCanonicalization) {
  auto array = make_array();
  const ExprRef x = mk_zext(mk_read(array, 0), 32);
  const ExprRef y = mk_zext(mk_read(array, 1), 32);
  EXPECT_EQ(mk_add(x, y).get(), mk_add(y, x).get());
  EXPECT_EQ(mk_mul(x, y).get(), mk_mul(y, x).get());
  EXPECT_EQ(mk_eq(x, y).get(), mk_eq(y, x).get());
  // Constant lands on the right.
  const ExprRef sum = mk_add(mk_const(5, 32), x);
  ASSERT_EQ(sum->num_kids(), 2u);
  EXPECT_TRUE(sum->kid(1)->is_constant());
}

TEST(Expr, ConcatExtractRoundtrip) {
  auto array = make_array();
  const ExprRef value =
      mk_or(mk_zext(mk_read(array, 0), 32),
            mk_shl(mk_zext(mk_read(array, 1), 32), mk_const(8, 32)));
  // Byte-split then reassemble must give back the identical node.
  const ExprRef b0 = mk_extract(value, 0, 8);
  const ExprRef b1 = mk_extract(value, 8, 8);
  const ExprRef b2 = mk_extract(value, 16, 8);
  const ExprRef b3 = mk_extract(value, 24, 8);
  const ExprRef joined =
      mk_concat(b3, mk_concat(b2, mk_concat(b1, b0)));
  EXPECT_EQ(joined.get(), value.get());
}

TEST(Expr, ExtractThroughConcatAndZext) {
  auto array = make_array();
  const ExprRef lo = mk_read(array, 0);
  const ExprRef hi = mk_read(array, 1);
  const ExprRef both = mk_concat(hi, lo);
  EXPECT_EQ(mk_extract(both, 0, 8).get(), lo.get());
  EXPECT_EQ(mk_extract(both, 8, 8).get(), hi.get());
  const ExprRef wide = mk_zext(lo, 32);
  EXPECT_EQ(mk_extract(wide, 0, 8).get(), lo.get());
  EXPECT_TRUE(mk_extract(wide, 16, 8)->is_constant());
}

TEST(Expr, LogicalNotInvertsComparisons) {
  auto array = make_array();
  const ExprRef x = mk_zext(mk_read(array, 0), 32);
  const ExprRef c = mk_const(10, 32);
  EXPECT_EQ(mk_lnot(mk_ult(x, c)).get(), mk_ule(c, x).get());
  EXPECT_EQ(mk_lnot(mk_lnot(mk_eq(x, c))).get(), mk_eq(x, c).get());
}

TEST(Expr, SelectSimplifications) {
  auto array = make_array();
  const ExprRef cond = mk_eq(mk_read(array, 0), mk_const(1, 8));
  const ExprRef a = mk_const(10, 32);
  const ExprRef b = mk_const(20, 32);
  EXPECT_EQ(mk_select(mk_bool(true), a, b).get(), a.get());
  EXPECT_EQ(mk_select(mk_bool(false), a, b).get(), b.get());
  EXPECT_EQ(mk_select(cond, a, a).get(), a.get());
  EXPECT_EQ(mk_select(cond, mk_bool(true), mk_bool(false)).get(), cond.get());
}

TEST(Expr, CollectReadsDeduplicates) {
  auto array = make_array();
  const ExprRef x = mk_zext(mk_read(array, 5), 32);
  const ExprRef e = mk_add(mk_mul(x, x), mk_zext(mk_read(array, 6), 32));
  std::vector<ReadSite> reads;
  collect_reads(e, reads);
  EXPECT_EQ(reads.size(), 2u);
}

/// collect_reads() as specified, with a visited set of its own: a
/// depth-first walk from the root, kids pushed in order and popped
/// last-first, each node visited once.
std::size_t reference_reads(const ExprRef& e, std::vector<ReadSite>& out) {
  std::unordered_set<const Expr*> seen;
  std::vector<const Expr*> stack{e.get()};
  while (!stack.empty()) {
    const Expr* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    if (node->kind() == ExprKind::kRead) {
      out.push_back(ReadSite{node->array(), node->read_index()});
      continue;
    }
    for (std::size_t i = 0; i < node->num_kids(); ++i)
      stack.push_back(node->kid(i).get());
  }
  return seen.size();
}

TEST(Expr, CollectReadsReusesItsScratch) {
  // On a fresh thread, so the walk's per-thread visited set starts at its
  // first capacity (1024 slots, grown past 512 nodes).
  std::thread([] {
    auto array = make_array(700);
    // A checksum over 2000 bytes of 700: about 3,400 nodes, reads repeated.
    std::vector<ExprRef> sums{mk_const(0, 32)};
    for (std::uint32_t i = 0; i < 2000; ++i)
      sums.push_back(mk_add(mk_xor(sums.back(), mk_const(i, 32)),
                            mk_zext(mk_read(array, (i * 7) % 700), 32)));
    const ExprRef large = sums.back();
    const ExprRef small = sums[40];  // shares every node with `large`
    ASSERT_GT(expr_dag_size(large), 3000u);
    for (const ExprRef& e : {large, small, large, small, large}) {
      std::vector<ReadSite> got, want;
      const std::size_t size = collect_reads(e, got);
      EXPECT_EQ(size, reference_reads(e, want));
      EXPECT_EQ(size, expr_dag_size(e));
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].array, want[i].array);
        EXPECT_EQ(got[i].index, want[i].index) << "read " << i;
      }
    }
  }).join();
}

TEST(Expr, HandlesOutliveTheirThread) {
  auto array = make_array();
  const auto build = [&array] {
    return mk_add(mk_zext(mk_read(array, 3), 32), mk_const(17, 32));
  };
  ExprRef first, second;
  std::size_t hash = 0;
  std::string text;
  std::thread([&] {
    first = build();
    hash = first->hash();
    text = first->to_string();
  }).join();
  std::thread([&] { second = build(); }).join();
  // Both threads have exited; their nodes are still readable.
  for (const ExprRef& e : {first, second}) {
    EXPECT_EQ(e->to_string(), text);
    EXPECT_EQ(e->hash(), hash);
    ASSERT_EQ(e->num_kids(), 2u);
    EXPECT_EQ(e->kid(0)->kind(), ExprKind::kZExt);
    EXPECT_EQ(e->kid(0)->kid(0)->array(), array);
    EXPECT_EQ(e->kid(0)->kid(0)->read_index(), 3u);
    EXPECT_EQ(e->kid(1)->constant_value(), 17u);
  }
  // Each thread interns its own nodes: the same content built on another
  // thread is another node.
  const ExprRef here = build();
  EXPECT_NE(first, second);
  EXPECT_NE(first.get(), here.get());
  EXPECT_NE(second.get(), here.get());
  EXPECT_NE(first->kid(0), second->kid(0));
  EXPECT_EQ(here->hash(), hash);
}

// Property: evaluating a built expression equals computing the same
// operation natively, across random byte assignments and operators.
class ExprDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExprDifferential, BinaryOpsMatchNativeSemantics) {
  const unsigned width = GetParam();
  auto array = make_array(8);
  Rng rng(width * 7919);
  const std::uint64_t mask = truncate_to_width(~0ull, width);

  for (int trial = 0; trial < 200; ++trial) {
    Assignment assignment;
    auto& bytes = assignment.mutable_bytes(array);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());

    // a = zext(byte0, w) | (zext(byte1, w) << 8), b likewise from 2,3.
    auto mk_val = [&](unsigned base) {
      ExprRef v = mk_zext(mk_read(array, base), width);
      if (width > 8)
        v = mk_or(v, mk_shl(mk_zext(mk_read(array, base + 1), width),
                            mk_const(8, width)));
      return v;
    };
    const ExprRef ea = mk_val(0);
    const ExprRef eb = mk_val(2);
    const std::uint64_t a = evaluate(ea, assignment);
    const std::uint64_t b = evaluate(eb, assignment);

    EXPECT_EQ(evaluate(mk_add(ea, eb), assignment), (a + b) & mask);
    EXPECT_EQ(evaluate(mk_sub(ea, eb), assignment), (a - b) & mask);
    EXPECT_EQ(evaluate(mk_mul(ea, eb), assignment), (a * b) & mask);
    EXPECT_EQ(evaluate(mk_and(ea, eb), assignment), a & b);
    EXPECT_EQ(evaluate(mk_or(ea, eb), assignment), a | b);
    EXPECT_EQ(evaluate(mk_xor(ea, eb), assignment), a ^ b);
    EXPECT_EQ(evaluate(mk_udiv(ea, eb), assignment),
              b == 0 ? 0 : a / b);
    EXPECT_EQ(evaluate(mk_urem(ea, eb), assignment),
              b == 0 ? 0 : a % b);
    EXPECT_EQ(evaluate_bool(mk_ult(ea, eb), assignment), a < b);
    EXPECT_EQ(evaluate_bool(mk_eq(ea, eb), assignment), a == b);
    const std::int64_t sa = sign_extend(a, width);
    const std::int64_t sb = sign_extend(b, width);
    EXPECT_EQ(evaluate_bool(mk_slt(ea, eb), assignment), sa < sb);
    EXPECT_EQ(evaluate_bool(mk_sle(ea, eb), assignment), sa <= sb);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ExprDifferential,
                         ::testing::Values(8u, 16u, 24u, 32u, 64u));

TEST(Expr, DagSizeCountsSharedNodesOnce) {
  auto array = make_array();
  const ExprRef x = mk_zext(mk_read(array, 0), 32);
  const ExprRef e = mk_add(mk_mul(x, x), x);
  // nodes: read, zext, mul, add = 4 (x shared).
  EXPECT_EQ(expr_dag_size(e), 4u);
}

TEST(Expr, NodeMapKeepsEveryEntryAcrossGrowth) {
  auto array = make_array(4096);
  std::vector<ExprRef> nodes;
  for (std::uint32_t i = 0; i < 3000; ++i) nodes.push_back(mk_read(array, i));
  NodeMap<std::uint32_t> map;
  for (std::uint32_t i = 0; i < 2000; ++i)
    ASSERT_TRUE(map.insert(nodes[i].get(), i));
  EXPECT_EQ(map.size(), 2000u);
  // A second insert of a stored node changes nothing.
  EXPECT_FALSE(map.insert(nodes[7].get(), 99));
  EXPECT_EQ(map.size(), 2000u);
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const std::uint32_t* v = map.find(nodes[i].get());
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
  }
  for (std::uint32_t i = 2000; i < 3000; ++i) {
    EXPECT_EQ(map.find(nodes[i].get()), nullptr);
    EXPECT_FALSE(map.contains(nodes[i].get()));
  }
}

}  // namespace
}  // namespace pbse
