#include "concolic/concolic_executor.h"

#include "obs/trace.h"

namespace pbse::concolic {

namespace {

struct ConcolicIds {
  /// Log2 histogram: virtual ticks per closed BBV interval.
  obs::MetricId interval_ticks =
      obs::intern_metric("concolic.interval_ticks");
  obs::MetricId intervals = obs::intern_metric("concolic.intervals");
  obs::MetricId ev_run = obs::intern_metric("concolic_run");
  obs::MetricId ev_bbv_close = obs::intern_metric("bbv_close");
  obs::MetricId arg_blocks = obs::intern_metric("blocks");
  obs::MetricId arg_ticks = obs::intern_metric("ticks");
  obs::MetricId arg_insts = obs::intern_metric("insts");
  obs::MetricId arg_seed_states = obs::intern_metric("seed_states");
};

const ConcolicIds& ids() {
  static const ConcolicIds c;
  return c;
}

}  // namespace

ConcolicResult run_concolic(vm::Executor& executor, const std::string& entry,
                            const std::vector<std::uint8_t>& seed,
                            const ConcolicOptions& options) {
  ConcolicResult result;
  result.seed = seed;
  result.input_array = std::make_shared<Array>(
      "file", static_cast<std::uint32_t>(seed.size()));

  auto seed_assignment = std::make_shared<Assignment>();
  seed_assignment->set(result.input_array, seed);
  CachingEvaluator seed_eval(seed_assignment);

  const std::uint64_t t0 = executor.clock().now();

  // BBV gathering state, fed by the block-entry hook (trackBB in
  // Algorithm 2).
  BBV current;
  current.start_ticks = t0;
  std::uint64_t interval_start = t0;

  auto flush_interval = [&](std::uint64_t now) {
    current.end_ticks = now;
    current.coverage =
        static_cast<double>(executor.num_covered()) /
        static_cast<double>(executor.module().total_blocks());
    executor.stats().add(ids().intervals);
    executor.stats().observe(ids().interval_ticks, now - interval_start);
    obs::trace_instant(obs::Category::kConcolic, ids().ev_bbv_close, now,
                       current.counts.size(), ids().arg_blocks,
                       now - interval_start, ids().arg_ticks);
    result.bbvs.push_back(std::move(current));
    current = BBV{};
    current.start_ticks = now;
    interval_start = now;
  };

  executor.on_block_entered = [&](const vm::ExecutionState&,
                                  std::uint32_t bb) {
    ++current.counts[bb];
    if (options.record_trace)
      result.trace.emplace_back(executor.clock().now(), bb);
  };

  auto state = executor.make_initial_state(entry, result.input_array, seed);

  obs::trace_begin(obs::Category::kConcolic, ids().ev_run, t0, seed.size());
  while (!state->done() && result.instructions < options.max_instructions) {
    executor.step_concolic(*state, seed_eval, result.seed_states,
                           options.offpath_bug_checks);
    ++result.instructions;
    const std::uint64_t now = executor.clock().now();
    if (now - interval_start >= options.interval_ticks)
      flush_interval(now);  // Algorithm 2 line 27: logToBBVs
  }
  flush_interval(executor.clock().now());
  executor.on_block_entered = nullptr;

  result.termination = state->termination;
  result.ticks_used = executor.clock().now() - t0;
  obs::trace_end(obs::Category::kConcolic, ids().ev_run,
                 executor.clock().now(), result.instructions,
                 ids().arg_insts, result.seed_states.size(),
                 ids().arg_seed_states);
  return result;
}

}  // namespace pbse::concolic
