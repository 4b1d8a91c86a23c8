#include "server/slice_runner.h"

#include <algorithm>

#include "core/driver.h"
#include "core/pbse.h"
#include "serialize/campaign_codec.h"
#include "targets/targets.h"

namespace pbse::server {

namespace {

const targets::TargetInfo& resolve_target(const std::string& name) {
  for (const targets::TargetInfo& info : targets::all_targets()) {
    if (info.driver == name) return info;
  }
  throw ProtocolError("unknown target '" + name + "'");
}

void fill_progress(JobProgress& p, vm::Executor& exec, std::uint64_t ticks,
                   std::uint64_t states) {
  p.ticks = ticks;
  p.covered = exec.num_covered();
  p.bugs = exec.bugs().size();
  p.test_cases = exec.test_cases().size();
  p.states = states;
}

/// Runs one slice of a klee-mode job against `rec`, updating snapshot,
/// progress and run_end_ticks in place. Returns true when the job is done.
bool slice_klee(JobRecord& rec, const SliceContext& ctx) {
  const targets::TargetInfo& info = resolve_target(rec.spec.target);
  const ir::Module module = targets::build_target(info.source());

  core::KleeRunOptions options;
  options.searcher = rec.spec.searcher;
  options.sym_file_size = rec.spec.sym_size;
  options.rng_seed = rec.spec.rng_seed;
  options.static_analysis = ctx.static_analysis;

  core::KleeRun run(module, "main", options);
  if (!rec.snapshot.empty()) {
    serialize::CampaignCodec::restore(run, rec.snapshot);
  }
  if (rec.run_end_ticks == 0)
    rec.run_end_ticks = run.clock().now() + rec.spec.budget_ticks;

  const std::uint64_t slice_end =
      std::min(rec.run_end_ticks, run.clock().now() + ctx.slice_ticks);
  // The Deadline below carries the FULL remaining budget; the slice cuts
  // only at batch boundaries via batch_stop. Cutting the deadline itself
  // would move the per-instruction expiry checks and de-sync the RNG
  // stream from an uninterrupted run.
  run.run_sliced(rec.run_end_ticks - run.clock().now(),
                 [&run, slice_end] { return run.clock().now() >= slice_end; });

  const bool done =
      run.clock().now() >= rec.run_end_ticks || run.num_states() == 0;
  rec.snapshot = serialize::CampaignCodec::snapshot(run);
  fill_progress(rec.progress, run.executor(), run.clock().now(),
                run.num_states());
  rec.counters = run.stats().all();
  return done;
}

/// pbse-mode slice. A fresh job pays concolic + phase analysis inside its
/// first slice; a resumed job reconstructs them via prepare() (mandatory
/// restore precondition) and overlays the snapshot.
bool slice_pbse(JobRecord& rec, const SliceContext& ctx) {
  const targets::TargetInfo& info = resolve_target(rec.spec.target);
  const ir::Module module = targets::build_target(info.source());

  core::PbseOptions options;
  options.phase_searcher = rec.spec.searcher;
  options.rng_seed = rec.spec.rng_seed;
  options.static_analysis = ctx.static_analysis;

  core::PbseDriver driver(module, "main", options);
  const bool prepared = driver.prepare(info.seed(rec.spec.seed_scale));
  if (!rec.snapshot.empty()) {
    serialize::CampaignCodec::restore(driver, rec.snapshot);
  } else {
    if (!prepared) {
      // No symbolic branch on the seed path: the concolic step is the whole
      // campaign. Record what it found and finish.
      rec.run_end_ticks = driver.clock().now();
      rec.snapshot = serialize::CampaignCodec::snapshot(driver);
      fill_progress(rec.progress, driver.executor(), driver.clock().now(), 0);
      rec.counters = driver.stats().all();
      return true;
    }
    driver.begin_run();
    rec.run_end_ticks = driver.clock().now() + rec.spec.budget_ticks;
  }

  const std::uint64_t slice_end =
      std::min(rec.run_end_ticks, driver.clock().now() + ctx.slice_ticks);
  // Each slice re-derives the SAME absolute expiry tick, so the deadline
  // every step_turn sees is identical to the monolithic run's.
  Deadline overall(driver.clock(), rec.run_end_ticks - driver.clock().now());
  bool more = true;
  while (driver.clock().now() < slice_end && (more = driver.step_turn(overall)))
    ;

  const bool done = !more || driver.clock().now() >= rec.run_end_ticks;
  rec.snapshot = serialize::CampaignCodec::snapshot(driver);
  fill_progress(rec.progress, driver.executor(), driver.clock().now(), 0);
  rec.counters = driver.stats().all();
  return done;
}

}  // namespace

bool run_job_slice(JobRecord& rec, const SliceContext& ctx) {
  return rec.spec.mode == JobMode::kKlee ? slice_klee(rec, ctx)
                                         : slice_pbse(rec, ctx);
}

}  // namespace pbse::server
