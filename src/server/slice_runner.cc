#include "server/slice_runner.h"

#include <malloc.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "core/driver.h"
#include "core/pbse.h"
#include "expr/tape.h"
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

/// A campaign and the module it executes. The module is declared first, so
/// it is built before the campaign that references it and destroyed after.
template <typename Campaign>
struct Held {
  template <typename Options>
  Held(const targets::TargetInfo& info, const Options& options)
      : module(targets::build_target(info.source())),
        campaign(module, "main", options) {}
  Held(const Held&) = delete;
  Held& operator=(const Held&) = delete;

  const ir::Module module;
  Campaign campaign;
};

/// The campaign this thread's last slice ran, keyed by what that slice ran
/// under and the snapshot bytes it emitted. Thread-local because expression
/// interning is: the campaign never leaves the thread that built it.
struct Resident {
  JobSpec spec;
  std::vector<std::uint8_t> snapshot;
  std::unique_ptr<Held<core::KleeRun>> klee;
  std::unique_ptr<Held<core::PbseDriver>> pbse;
};

thread_local Resident resident;
/// Set by every slice; cleared by release_resident().
thread_local bool ran_slice_since_release = false;

/// Runs one slice of a klee-mode job against `rec`, updating snapshot,
/// progress and run_end_ticks in place. Continues `held` when set, else
/// builds it from `rec`. Returns true when the job is done.
bool slice_klee(JobRecord& rec, const SliceContext& ctx,
                std::unique_ptr<Held<core::KleeRun>>& held) {
  if (!held) {
    core::KleeRunOptions options;
    options.searcher = rec.spec.searcher;
    options.sym_file_size = rec.spec.sym_size;
    options.rng_seed = rec.spec.rng_seed;
    held = std::make_unique<Held<core::KleeRun>>(
        resolve_target(rec.spec.target), options);
    if (!rec.snapshot.empty())
      serialize::CampaignCodec::restore(held->campaign, rec.snapshot);
  }
  core::KleeRun& run = held->campaign;
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
/// first slice; a job whose campaign is not resident reconstructs them via
/// prepare() (mandatory restore precondition) and overlays the snapshot.
bool slice_pbse(JobRecord& rec, const SliceContext& ctx,
                std::unique_ptr<Held<core::PbseDriver>>& held) {
  if (!held) {
    const targets::TargetInfo& info = resolve_target(rec.spec.target);
    core::PbseOptions options;
    options.phase_searcher = rec.spec.searcher;
    options.rng_seed = rec.spec.rng_seed;
    held = std::make_unique<Held<core::PbseDriver>>(info, options);
    core::PbseDriver& driver = held->campaign;
    const bool prepared = driver.prepare(info.seed(rec.spec.seed_scale));
    if (!rec.snapshot.empty()) {
      serialize::CampaignCodec::restore(driver, rec.snapshot);
    } else {
      if (!prepared) {
        // No symbolic branch on the seed path: the concolic step is the
        // whole campaign. Record what it found and finish.
        rec.run_end_ticks = driver.clock().now();
        rec.snapshot = serialize::CampaignCodec::snapshot(driver);
        fill_progress(rec.progress, driver.executor(), driver.clock().now(),
                      0);
        rec.counters = driver.stats().all();
        return true;
      }
      driver.begin_run();
      rec.run_end_ticks = driver.clock().now() + rec.spec.budget_ticks;
    }
  }
  core::PbseDriver& driver = held->campaign;

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
  ran_slice_since_release = true;
  Resident& r = resident;
  // Byte equality, never a job id or a hash: a requeued slice, an older
  // checkpoint restored after a crash, or a job that came back from
  // another thread carries other bytes and takes the cold path.
  const bool warm = !rec.snapshot.empty() && rec.spec == r.spec &&
                    rec.snapshot == r.snapshot;
  // Dropped before a cold build, so a thread never holds two campaigns.
  if (!warm) r = Resident{};
  try {
    const bool done = rec.spec.mode == JobMode::kKlee
                          ? slice_klee(rec, ctx, r.klee)
                          : slice_pbse(rec, ctx, r.pbse);
    if (done) {
      r = Resident{};
    } else {
      r.spec = rec.spec;
      r.snapshot = rec.snapshot;
    }
    return done;
  } catch (...) {
    // Never continue a half-advanced campaign.
    r = Resident{};
    throw;
  }
}

void release_resident() {
  resident = Resident{};
  // glibc keeps freed campaigns' pages in the thread's arena, so an idle
  // daemon would otherwise sit near its peak RSS. A thread that ran no
  // slice since it last went idle has freed nothing to return. The
  // compiled constraints go too: the next job brings its own.
  if (std::exchange(ran_slice_since_release, false)) {
    clear_compiled_cache();
    malloc_trim(0);
  }
}

}  // namespace pbse::server
