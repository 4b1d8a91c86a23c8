// google-benchmark microbenchmarks of the engine's hot paths: expression
// interning/folding, concrete evaluation, solver queries (cache on/off,
// independence on/off), k-means clustering, and raw interpretation speed.
#include <benchmark/benchmark.h>

#include "concolic/concolic_executor.h"
#include "core/driver.h"
#include "core/pbse.h"
#include "expr/evaluator.h"
#include "expr/tape.h"
#include "obs/trace.h"
#include "phase/kmeans.h"
#include "serialize/campaign_codec.h"
#include "serialize/frame.h"
#include "serialize/pbss.h"
#include "server/job.h"
#include "serialize/state_codec.h"
#include "solver/interval.h"
#include "solver/search_solver.h"
#include "solver/solver.h"
#include "targets/targets.h"
#include "vm/executor.h"

namespace {

using namespace pbse;

ExprRef build_sum_chain(const ArrayRef& array, unsigned n) {
  ExprRef sum = mk_const(0, 32);
  for (unsigned i = 0; i < n; ++i)
    sum = mk_add(sum, mk_zext(mk_read(array, i), 32));
  return sum;
}

void BM_ExprConstruction(benchmark::State& state) {
  auto array = std::make_shared<Array>("bench", 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_sum_chain(array, static_cast<unsigned>(state.range(0))));
  }
}
BENCHMARK(BM_ExprConstruction)->Arg(16)->Arg(256);

void BM_ExprEvaluation(benchmark::State& state) {
  auto array = std::make_shared<Array>("bench", 4096);
  const ExprRef sum = build_sum_chain(array, 256);
  Assignment a;
  auto& bytes = a.mutable_bytes(array);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate(sum, a));
  }
}
BENCHMARK(BM_ExprEvaluation);

void BM_SolverMagicBytes(benchmark::State& state) {
  const bool use_cache = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto array = std::make_shared<Array>("bench", 64);
    VClock clock;
    Stats stats;
    SolverOptions options;
    options.use_cache = use_cache;
    Solver solver(clock, stats, options);
    ConstraintSet cs;
    state.ResumeTiming();
    // 16 repeated magic-byte satisfiability queries.
    for (unsigned i = 0; i < 16; ++i) {
      const ExprRef q = mk_eq(mk_read(array, i % 4), mk_const(0x7f, 8));
      Assignment model;
      benchmark::DoNotOptimize(solver.check_sat(cs, q, &model));
    }
  }
}
BENCHMARK(BM_SolverMagicBytes)->Arg(0)->Arg(1);

void BM_SolverLoopBound(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto array = std::make_shared<Array>("bench", 64);
    VClock clock;
    Stats stats;
    Solver solver(clock, stats);
    ConstraintSet cs;
    const ExprRef count =
        mk_or(mk_zext(mk_read(array, 0), 32),
              mk_shl(mk_zext(mk_read(array, 1), 32), mk_const(8, 32)));
    cs.add(mk_ult(mk_const(0, 32), count));
    state.ResumeTiming();
    for (unsigned i = 1; i <= 8; ++i) {
      const ExprRef q = mk_ult(mk_const(i, 32), count);
      benchmark::DoNotOptimize(solver.check_sat(cs, q));
    }
  }
}
BENCHMARK(BM_SolverLoopBound);

void BM_ConcreteInterpretation(benchmark::State& state) {
  ir::Module module = targets::build_target(targets::pngtest_source());
  const auto seed = targets::make_mpng_seed(4);
  for (auto _ : state) {
    VClock clock;
    Stats stats;
    Solver solver(clock, stats);
    vm::Executor executor(module, solver, clock, stats);
    concolic::ConcolicOptions options;
    options.record_trace = false;
    auto result = run_concolic(executor, "main", seed, options);
    benchmark::DoNotOptimize(result.instructions);
    state.counters["insts"] = static_cast<double>(result.instructions);
  }
}
BENCHMARK(BM_ConcreteInterpretation);

void BM_KMeans(benchmark::State& state) {
  // 200 points, 64 dims, clustered around 4 centers.
  Rng data_rng(42);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> p(64);
    const int center = i % 4;
    for (int d = 0; d < 64; ++d)
      p[d] = center * 10.0 + data_rng.uniform();
    points.push_back(std::move(p));
  }
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(
        phase::kmeans(points, static_cast<std::uint32_t>(state.range(0)), rng));
  }
}
BENCHMARK(BM_KMeans)->Arg(4)->Arg(16);

// --- Per-stage solver micro-benchmarks (incremental pipeline) ---------------
// One benchmark per reuse stage of solver.h's pipeline, so a perf
// regression names the stage that caused it.

// Stage: exact-cache hit. The warm-up query pays the search; every timed
// query after it is answered by the L1 exact entry.
void BM_SolverExactCacheHit(benchmark::State& state) {
  auto array = std::make_shared<Array>("bench", 64);
  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  ConstraintSet cs;
  cs.add(mk_ult(mk_const(0x10, 8), mk_read(array, 0)));
  const ExprRef q = mk_eq(mk_read(array, 0), mk_const(0x7f, 8));
  Assignment model;
  solver.check_sat(cs, q, &model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.check_sat(cs, q, &model));
  }
}
BENCHMARK(BM_SolverExactCacheHit);

// Stage: partition slicing. The persistent union-find makes a slice a few
// find()s regardless of how many unrelated constraints the path has
// accumulated; the arg sets that unrelated-constraint count.
void BM_SolverPartitionSlice(benchmark::State& state) {
  auto array = std::make_shared<Array>("bench", 4096);
  ConstraintSet cs;
  const unsigned n = static_cast<unsigned>(state.range(0));
  for (unsigned i = 0; i < n; ++i)
    cs.add(mk_ult(mk_const(0, 8), mk_read(array, 2 * i)));
  const ExprRef q = mk_eq(mk_read(array, 0), mk_const(1, 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs.slice(q).constraints.size());
  }
}
BENCHMARK(BM_SolverPartitionSlice)->Arg(64)->Arg(1024);

// Stage: domain propagation, memo off vs on. A loop-bound chain re-queries
// a growing list; with the memo each query seeds from the memoized prefix
// domains and only propagates the delta. Caches are off so every timed
// query actually reaches propagation.
void BM_SolverDomainPropagation(benchmark::State& state) {
  const bool memo = state.range(0) != 0;
  auto array = std::make_shared<Array>("bench", 64);
  const ExprRef count =
      mk_or(mk_zext(mk_read(array, 0), 32),
            mk_shl(mk_zext(mk_read(array, 1), 32), mk_const(8, 32)));
  for (auto _ : state) {
    state.PauseTiming();
    VClock clock;
    Stats stats;
    SolverOptions options;
    options.use_cache = false;
    options.use_domain_memo = memo;
    Solver solver(clock, stats, options);
    ConstraintSet cs;
    cs.add(mk_ult(mk_const(0, 32), count));
    state.ResumeTiming();
    for (unsigned i = 1; i <= 8; ++i) {
      const ExprRef q = mk_ult(mk_const(i, 32), count);
      benchmark::DoNotOptimize(solver.check_sat(cs, q));
      cs.add(q);
    }
  }
}
BENCHMARK(BM_SolverDomainPropagation)->Arg(0)->Arg(1);

// Stage: backtracking search, the evaluation kernel itself. The sliced
// query has readelf's section-table shape: e_shnum (u16 at 10) and e_shoff
// (u32 at 16) under the loop-bound and table-fits-the-file guards of three
// section-header iterations, plus an alignment test that intervals cannot
// decide. All-low, all-high and zero probes fail and propagation pins
// nothing, so every call runs the DFS with interval forward-checks.
// `evals_per_s` is constraint-evaluation work per second, in the expr_cost
// units the search charges to the virtual clock. Each iteration sets the
// search up as a query does and runs one full pass. Arg 0 (cold) clears the
// thread's compiled-constraint cache first, so every constraint's reads and
// tape are rebuilt; arg 1 (warm) finds them cached, as a query whose
// constraints an earlier query already met does.
void BM_SearchKernel(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  auto file = std::make_shared<Array>("file", 1000);
  auto u16 = [&](std::uint32_t at) {
    return mk_or(mk_zext(mk_read(file, at), 32),
                 mk_shl(mk_zext(mk_read(file, at + 1), 32), mk_const(8, 32)));
  };
  auto u32 = [&](std::uint32_t at) {
    return mk_or(u16(at), mk_shl(u16(at + 2), mk_const(16, 32)));
  };
  const ExprRef shnum = u16(10);
  const ExprRef shoff = u32(16);
  const ExprRef size = mk_const(1000, 32);
  std::vector<ExprRef> constraints{
      mk_ult(mk_const(0, 32), shnum),
      mk_ule(mk_add(shoff, mk_mul(shnum, mk_const(16, 32))), size)};
  for (std::uint32_t i = 1; i < 3; ++i) {
    constraints.push_back(mk_ult(mk_const(i, 32), shnum));
    constraints.push_back(mk_ule(
        mk_add(mk_add(shoff, mk_const(16 * i, 32)), mk_const(16, 32)), size));
  }
  constraints.push_back(mk_eq(mk_and(shoff, mk_const(0xff, 32)),
                              mk_const(0x48, 32)));
  DomainMap domains;
  std::uint64_t propagation = 0;
  if (!propagate_domains(constraints, domains, propagation))
    state.SkipWithError("propagation refuted the query");
  std::uint64_t probe_cost = 0;
  for (const auto& c : constraints) probe_cost += 3 * expr_cost(c);

  std::uint64_t evals = 0;
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      clear_compiled_cache();
      state.ResumeTiming();
    }
    std::uint64_t cost = 0;
    Assignment model;
    const SolverResult result = SearchSpace(constraints, domains).search(
        /*hint=*/nullptr, /*hint_first=*/true, /*candidate_cap=*/0,
        /*max_nodes=*/40000, /*max_evals=*/1'000'000, cost, model);
    if (result != SolverResult::kSat || cost <= probe_cost)
      state.SkipWithError("the query no longer reaches a satisfying DFS");
    evals += cost;
    benchmark::DoNotOptimize(result);
    benchmark::DoNotOptimize(model);
  }
  state.counters["evals_per_s"] =
      benchmark::Counter(static_cast<double>(evals),
                         benchmark::Counter::kIsRate);
  state.counters["evals_per_call"] = benchmark::Counter(
      static_cast<double>(evals), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SearchKernel)->ArgName("warm")->Arg(0)->Arg(1);

// The disabled-path cost of an instrumentation site: one relaxed atomic
// load and a branch, with no argument evaluation. Compare against
// BM_TraceBaselineLoop to see the delta per call.
void BM_TraceDisabledInstant(benchmark::State& state) {
  const obs::MetricId name = obs::intern_metric("bench.trace_disabled");
  std::uint64_t tick = 0;
  for (auto _ : state) {
    obs::trace_instant(obs::Category::kOther, name, tick);
    benchmark::DoNotOptimize(++tick);
  }
}
BENCHMARK(BM_TraceDisabledInstant);

void BM_TraceBaselineLoop(benchmark::State& state) {
  std::uint64_t tick = 0;
  for (auto _ : state) benchmark::DoNotOptimize(++tick);
}
BENCHMARK(BM_TraceBaselineLoop);

// --- pbss snapshot cost (DESIGN.md §11) --------------------------------------

// Serializing one mid-run ExecutionState: expr DAG (hash-consing preserved
// via the dedup table), COW memory objects, constraint partitions, stack.
// The state is evolved past the readelf header checks so it carries a
// realistic path condition; range(0) picks how deep.
void BM_SnapshotState(benchmark::State& state) {
  const ir::Module module = targets::build_target(targets::readelf_source());
  VClock clock;
  Stats stats;
  Solver solver{clock, stats};
  vm::Executor executor(module, solver, clock, stats);
  auto input = std::make_shared<Array>("file", 100);
  auto subject = executor.make_initial_state("main", input, {});
  std::vector<std::unique_ptr<vm::ExecutionState>> forked;
  for (int i = 0; i < state.range(0) && !subject->done(); ++i) {
    executor.step(*subject, forked);
    // Depth-first down the first child keeps ONE state growing instead of
    // hopping across shallow siblings.
    if (subject->done() && !forked.empty()) {
      subject = std::move(forked.back());
      forked.pop_back();
    }
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    serialize::StateCodec codec;
    serialize::Encoder enc;
    codec.encode_state(enc, *subject);
    bytes = enc.size();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SnapshotState)->Arg(200)->Arg(2000);

// Whole-campaign snapshot (what pbse-serve pays at every checkpoint): all
// engine states + searcher position + solver caches + coverage/stats.
void BM_SnapshotCampaign(benchmark::State& state) {
  const ir::Module module = targets::build_target(targets::readelf_source());
  core::KleeRun run(module, "main", {});
  run.run(static_cast<VClock::Ticks>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto snap = serialize::CampaignCodec::snapshot(run);
    bytes = snap.size();
    benchmark::DoNotOptimize(snap);
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
  state.counters["states"] = static_cast<double>(run.num_states());
}
BENCHMARK(BM_SnapshotCampaign)->Arg(20'000)->Arg(100'000);

// Restoring a served pbSE campaign (what every pbse-serve slice pays
// before it runs): readelf at seed scale 12, snapshotted 100k ticks into
// its search, restored onto a driver that already ran prepare(). Most of
// its states are Alg. 2 seedStates whose path conditions share long
// prefixes, which the codec copies instead of re-adding (DESIGN.md §11).
void BM_RestorePbseCampaign(benchmark::State& state) {
  const ir::Module module = targets::build_target(targets::readelf_source());
  const auto seed = targets::make_melf_seed(12);
  core::PbseDriver source(module, "main");
  core::PbseDriver target(module, "main");
  if (!source.prepare(seed) || !target.prepare(seed)) {
    state.SkipWithError("prepare() found no symbolic branch");
    return;
  }
  source.begin_run();
  const VClock::Ticks start = source.clock().now();
  const Deadline overall(source.clock(), 500'000);
  while (source.clock().now() < start + 100'000 && source.step_turn(overall)) {
  }
  const auto snap = serialize::CampaignCodec::snapshot(source);
  for (auto _ : state) serialize::CampaignCodec::restore(target, snap);
  state.counters["snapshot_bytes"] = static_cast<double>(snap.size());
  state.counters["states"] = static_cast<double>(target.states().size());
}
BENCHMARK(BM_RestorePbseCampaign)->Unit(benchmark::kMillisecond);

// Job-transfer framing (what every worker assignment and checkpoint pays
// on top of the snapshot itself): JobRecord wire codec + pbsf frame with
// FNV checksum, raw bytes end to end — no base64, no JSON re-encoding.
void BM_FrameRoundtrip(benchmark::State& state) {
  const ir::Module module = targets::build_target(targets::readelf_source());
  core::KleeRun run(module, "main", {});
  run.run(static_cast<VClock::Ticks>(state.range(0)));

  server::JobRecord rec;
  rec.id = 1;
  rec.spec.mode = server::JobMode::kKlee;
  rec.spec.target = "readelf";
  rec.spec.budget_ticks = static_cast<std::uint64_t>(state.range(0));
  rec.snapshot = serialize::CampaignCodec::snapshot(run);

  std::size_t frame_bytes = 0;
  for (auto _ : state) {
    auto frame = serialize::encode_frame(serialize::FrameKind::kJobRecord,
                                         rec.wire_encode());
    frame_bytes = frame.size();
    std::vector<std::uint8_t> body;
    if (serialize::decode_frame(frame, body) !=
        serialize::FrameKind::kJobRecord)
      state.SkipWithError("frame kind mismatch");
    auto decoded = server::JobRecord::wire_decode(body);
    benchmark::DoNotOptimize(decoded);
  }
  state.counters["frame_bytes"] = static_cast<double>(frame_bytes);
  state.counters["snapshot_bytes"] = static_cast<double>(rec.snapshot.size());
}
BENCHMARK(BM_FrameRoundtrip)->Arg(20'000)->Arg(100'000);

}  // namespace

BENCHMARK_MAIN();
