// Static analysis subsystem (DESIGN.md §12): dominator trees on
// irreducible-ish CFGs, interprocedural SCCP/interval facts, infeasible
// edges, the sink lint's verdict ladder, and the soundness contract that
// the unpruned engine never takes a statically-infeasible edge.
#include <gtest/gtest.h>

#include <unordered_map>

#include "analysis/analysis.h"
#include "core/driver.h"
#include "core/pbse.h"
#include "ir/builder.h"
#include "lang/codegen.h"
#include "targets/targets.h"

namespace pbse {
namespace {

ir::Module compile(const std::string& source) {
  ir::Module module;
  std::string error;
  if (!minic::compile(source, module, error))
    ADD_FAILURE() << "compile error: " << error;
  module.finalize();
  return module;
}

std::uint32_t function_index(const ir::Module& module,
                             const std::string& name) {
  for (std::uint32_t i = 0; i < module.num_functions(); ++i)
    if (module.function(i)->name() == name) return i;
  ADD_FAILURE() << "no function named " << name;
  return ir::kNoFunc;
}

// --- Dominators -------------------------------------------------------------

// entry -> {b1, b2}, b1 -> b2, b2 -> {b1, exit}: the {b1, b2} cycle has
// two outside entries, so neither cycle node dominates the other.
ir::Module make_irreducible_module() {
  ir::Module module;
  auto fn = std::make_unique<ir::Function>(
      "main", std::vector<ir::Type>{ir::Type::int_ty(1)}, ir::Type::void_ty());
  fn->new_reg(ir::Type::int_ty(1));  // param
  ir::Builder b(module, *fn);
  const auto entry = fn->add_block("entry");
  const auto b1 = fn->add_block("b1");
  const auto b2 = fn->add_block("b2");
  const auto exit = fn->add_block("exit");
  const ir::Operand cond = ir::Operand::reg_of(0, ir::Type::int_ty(1));
  b.set_insert(entry);
  b.emit_br(cond, b1, b2);
  b.set_insert(b1);
  b.emit_jmp(b2);
  b.set_insert(b2);
  b.emit_br(cond, b1, exit);
  b.set_insert(exit);
  b.emit_ret_void();
  module.add_function(std::move(fn));
  module.finalize();
  return module;
}

TEST(AnalysisDominators, IrreducibleIshCfg) {
  const ir::Module module = make_irreducible_module();
  const auto result = analysis::analyze_module(module);
  const analysis::DomTree& dom = result->dominators[0];

  // Both cycle nodes hang directly off the entry.
  EXPECT_EQ(dom.idom[1], 0u);
  EXPECT_EQ(dom.idom[2], 0u);
  EXPECT_EQ(dom.idom[3], 2u);  // exit is only reached through b2
  EXPECT_TRUE(dom.dominates(0, 3));
  EXPECT_FALSE(dom.dominates(1, 2));
  EXPECT_FALSE(dom.dominates(2, 1));
  EXPECT_TRUE(dom.dominates(2, 3));

  const analysis::PostDomTree& pdom = result->post_dominators[0];
  EXPECT_TRUE(pdom.postdominates(3, 0));  // every path exits through `exit`
  EXPECT_TRUE(pdom.postdominates(2, 1));  // b1's only successor is b2
  EXPECT_FALSE(pdom.postdominates(1, 2));
}

// --- SCCP / intervals -------------------------------------------------------

// The binutils symbol_visibility pattern: masking pins the interval to
// [0,3], so the defensive guard's then-edge is statically infeasible and
// its body unreachable — while at runtime the condition stays symbolic.
constexpr const char* kMaskedGuard = R"(
u32 main(u8* f, u32 size) {
  if (size < 1) { return 1; }
  u32 v = (u32)f[0] & 3;
  if (v > 3) { out(9); return 2; }
  out(v);
  return 0;
}
)";

TEST(AnalysisSccp, MaskedGuardEdgeIsInfeasible) {
  const ir::Module module = compile(kMaskedGuard);
  const auto result = analysis::analyze_module(module);
  EXPECT_GE(result->num_infeasible_edges(), 1u);
  EXPECT_GE(result->num_unreachable, 1u);
  // Every infeasible edge must leave a reachable block for a block the
  // analysis also calls unreachable (the guard's then-side).
  bool guard_edge = false;
  for (const auto& [from, to] : result->infeasible_edges())
    guard_edge = guard_edge || (!result->unreachable_blocks[from] &&
                                result->unreachable_blocks[to]);
  EXPECT_TRUE(guard_edge);
}

constexpr const char* kInterproc = R"(
u32 add_one(u32 a) { return a + 1; }
u32 main(u8* f, u32 size) {
  out(add_one(4));
  return 0;
}
)";

TEST(AnalysisSccp, InterproceduralConstantsFlowThroughCalls) {
  const ir::Module module = compile(kInterproc);
  const auto result = analysis::analyze_module(module);
  const std::uint32_t callee = function_index(module, "add_one");
  const std::uint32_t entry = function_index(module, "main");

  // The only call site passes 4, so the parameter fact is the constant 4.
  ASSERT_GT(result->reg_facts[callee].size(), 0u);
  EXPECT_EQ(result->reg_facts[callee][0],
            analysis::ValueFact::constant(4, 32));
  // ...and the call result in main folds to the constant 5.
  bool found_five = false;
  for (const auto& fact : result->reg_facts[entry])
    found_five =
        found_five || fact == analysis::ValueFact::constant(5, 32);
  EXPECT_TRUE(found_five);
}

TEST(AnalysisSccp, ByteLoadsGetWidthIntervals) {
  const ir::Module module = compile(kMaskedGuard);
  const auto result = analysis::analyze_module(module);
  const std::uint32_t entry = function_index(module, "main");
  // Some register holds the masked value: interval (or constant) with
  // hi <= 3 and a 32-bit width.
  bool found_masked = false;
  for (const auto& fact : result->reg_facts[entry])
    found_masked = found_masked ||
                   (!fact.is_bottom() && !fact.is_top() && fact.width == 32 &&
                    fact.hi <= 3);
  EXPECT_TRUE(found_masked);
}

TEST(AnalysisValueFact, LatticeBasics) {
  using analysis::ValueFact;
  EXPECT_TRUE(ValueFact::interval(0, 255, 8).is_top());   // canonicalized
  EXPECT_TRUE(ValueFact::interval(7, 7, 32).is_constant());
  const ValueFact j =
      ValueFact::join(ValueFact::constant(2, 32), ValueFact::constant(9, 32));
  EXPECT_EQ(j.lo, 2u);
  EXPECT_EQ(j.hi, 9u);
  EXPECT_TRUE(j.contains(5));
  EXPECT_FALSE(j.contains(10));
  EXPECT_EQ(ValueFact::join(ValueFact::bottom(), ValueFact::constant(3, 8)),
            ValueFact::constant(3, 8));
}

// --- Sink lint --------------------------------------------------------------

// Hand-rolled so the frontend cannot fold anything: one provably-buggy
// division, one provably-safe one, one that depends on an unknown param.
TEST(AnalysisLint, DivisionVerdictLadder) {
  ir::Module module;
  auto fn = std::make_unique<ir::Function>(
      "main", std::vector<ir::Type>{ir::Type::int_ty(32)},
      ir::Type::void_ty());
  fn->new_reg(ir::Type::int_ty(32));  // param
  ir::Builder b(module, *fn);
  b.set_insert(fn->add_block("entry"));
  const ir::Operand param = ir::Operand::reg_of(0, ir::Type::int_ty(32));
  b.emit_bin(ir::BinOp::kUDiv, ir::Builder::c(8, 32), ir::Builder::c(0, 32));
  b.emit_bin(ir::BinOp::kUDiv, param, ir::Builder::c(5, 32));
  b.emit_bin(ir::BinOp::kURem, ir::Builder::c(8, 32), param);
  b.emit_ret_void();
  module.add_function(std::move(fn));
  module.finalize();

  const auto result = analysis::analyze_module(module);
  std::size_t buggy = 0, safe = 0, possibly = 0;
  for (const auto& f : result->findings) {
    if (f.kind != analysis::SinkKind::kDivByZero) continue;
    if (f.verdict == analysis::Verdict::kProvablyBuggy) ++buggy;
    if (f.verdict == analysis::Verdict::kProvablySafe) ++safe;
    if (f.verdict == analysis::Verdict::kPossiblyUnsafe) ++possibly;
  }
  EXPECT_EQ(buggy, 1u);
  EXPECT_EQ(safe, 1u);
  EXPECT_EQ(possibly, 1u);
}

// A clean mini-corpus in the style of examples/: masked index into a
// matching-size table, guarded division. The lint may warn, but must not
// claim any site provably buggy.
constexpr const char* kCleanPrograms[] = {
    R"(
u8 table[8] = { 1, 2, 3, 4, 5, 6, 7, 8 };
u32 main(u8* f, u32 size) {
  if (size < 4) { return 1; }
  u32 idx = (u32)f[0] & 7;
  out((u32)table[idx]);
  u32 d = (u32)f[1];
  if (d == 0) { return 2; }
  out(100 / d);
  return 0;
}
)",
    R"(
u32 sum(u8* f, u32 n, u32 size) {
  u32 acc = 0;
  for (u32 i = 0; i < n; ++i) {
    if (i >= size) { return acc; }
    acc += (u32)f[i];
  }
  return acc;
}
u32 main(u8* f, u32 size) {
  if (size < 2) { return 1; }
  out(sum(f, (u32)f[0], size));
  return 0;
}
)",
};

TEST(AnalysisLint, CleanCorpusHasNoProvablyBuggyVerdicts) {
  for (const char* source : kCleanPrograms) {
    const ir::Module module = compile(source);
    const auto result = analysis::analyze_module(module);
    for (const auto& f : result->findings)
      EXPECT_NE(f.verdict, analysis::Verdict::kProvablyBuggy)
          << f.message;
  }
}

TEST(AnalysisLint, SeededTargetsHaveSinksButNoProvablyBuggy) {
  bool readelf_has_sinks = false;
  for (const auto& info : targets::all_targets()) {
    const ir::Module module = targets::build_target(info.source());
    const auto result = analysis::analyze_module(module);
    for (const auto& f : result->findings)
      EXPECT_NE(f.verdict, analysis::Verdict::kProvablyBuggy)
          << info.driver << ": " << f.message;
    if (info.driver == "readelf")
      readelf_has_sinks = !result->sink_blocks().empty();
  }
  // The injected readelf bugs (fixed-size strtab/note_name copies,
  // checked_mul) must surface as non-safe sink findings.
  EXPECT_TRUE(readelf_has_sinks);
}

// --- Soundness: infeasible edges are never taken ---------------------------

// Runs the engine and checks every observed block transition against the
// infeasible-edge set: an edge the analysis calls infeasible is never
// taken, and no block it calls unreachable is ever entered.
class EdgeSoundnessChecker {
 public:
  explicit EdgeSoundnessChecker(const analysis::ModuleAnalysis& analysis)
      : analysis_(analysis) {}

  void on_enter(const vm::ExecutionState& state, std::uint32_t gid) {
    const auto it = last_.find(state.id);
    if (it != last_.end()) {
      EXPECT_FALSE(analysis_.edge_infeasible(it->second, gid))
          << "statically-infeasible edge bb" << it->second << " -> bb" << gid
          << " was taken";
      if (analysis_.edge_infeasible(it->second, gid)) ++violations;
    }
    last_[state.id] = gid;
    if (gid < analysis_.unreachable_blocks.size() &&
        analysis_.unreachable_blocks[gid])
      ++unreachable_entered;
  }

  std::uint64_t violations = 0;
  std::uint64_t unreachable_entered = 0;

 private:
  const analysis::ModuleAnalysis& analysis_;
  std::unordered_map<std::uint64_t, std::uint32_t> last_;
};

TEST(AnalysisSoundness, InfeasibleEdgesNeverTakenByUnprunedEngine) {
  // The table1 workload target: readelf carries both a natural infeasible
  // edge and a masked-guard one.
  const targets::TargetInfo* info = nullptr;
  for (const auto& t : targets::all_targets())
    if (t.driver == "readelf") info = &t;
  ASSERT_NE(info, nullptr);
  const ir::Module module = targets::build_target(info->source());
  const auto analysis = analysis::analyze_module(module);
  ASSERT_GE(analysis->num_infeasible_edges(), 1u);

  {  // KLEE-style run.
    core::KleeRun run(module, "main");
    EdgeSoundnessChecker checker(*analysis);
    run.executor().on_block_entered =
        [&](const vm::ExecutionState& s, std::uint32_t gid) {
          checker.on_enter(s, gid);
        };
    run.run(120000);
    EXPECT_EQ(checker.violations, 0u);
    EXPECT_EQ(checker.unreachable_entered, 0u);
  }

  {  // pbSE run (concolic + phases).
    core::PbseDriver driver(module, "main");
    EdgeSoundnessChecker checker(*analysis);
    auto prev = driver.executor().on_block_entered;  // BBV gathering hook
    driver.executor().on_block_entered =
        [&, prev](const vm::ExecutionState& s, std::uint32_t gid) {
          if (prev) prev(s, gid);
          checker.on_enter(s, gid);
        };
    ASSERT_TRUE(driver.prepare(info->seed(6)));
    driver.run(150000);
    EXPECT_EQ(checker.violations, 0u);
    EXPECT_EQ(checker.unreachable_entered, 0u);
  }
}

}  // namespace
}  // namespace pbse
