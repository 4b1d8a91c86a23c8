#include "core/pbse.h"

#include <algorithm>
#include <unordered_map>

#include "obs/trace.h"
#include "support/log.h"

namespace pbse::core {

namespace {

struct CoreIds {
  obs::MetricId seed_states_total =
      obs::intern_metric("pbse.seed_states_total");
  obs::MetricId seed_states_kept =
      obs::intern_metric("pbse.seed_states_kept");
  obs::MetricId seed_states_activated =
      obs::intern_metric("pbse.seed_states_activated");
  obs::MetricId turns = obs::intern_metric("pbse.turns");
  /// Log2 histogram: live states in a phase at the end of each turn.
  obs::MetricId states_per_phase =
      obs::intern_metric("pbse.states_per_phase");
  obs::MetricId ev_analysis = obs::intern_metric("phase_analysis");
  obs::MetricId ev_turn = obs::intern_metric("turn");
  obs::MetricId ev_activate = obs::intern_metric("phase_activate");
  obs::MetricId ev_retired = obs::intern_metric("phase_retired");
  obs::MetricId arg_phase = obs::intern_metric("phase");
  obs::MetricId arg_turn = obs::intern_metric("turn");
  obs::MetricId arg_phases = obs::intern_metric("phases");
  obs::MetricId arg_traps = obs::intern_metric("traps");
  obs::MetricId arg_states = obs::intern_metric("states");
  obs::MetricId arg_cover = obs::intern_metric("cover");
  obs::MetricId arg_reason = obs::intern_metric("reason");
};

const CoreIds& ids() {
  static const CoreIds c;
  return c;
}

/// Why a phase left the Algorithm 3 rotation (the a0 of `phase_retired`).
enum class RetireReason : std::uint64_t { kExhausted = 0 };

}  // namespace

PbseDriver::PbseDriver(const ir::Module& module, const std::string& entry,
                       PbseOptions options)
    : module_(module),
      entry_(entry),
      options_(options),
      rng_(options.rng_seed) {
  solver_ = std::make_unique<Solver>(clock_, stats_, options_.solver);
  executor_ = std::make_unique<vm::Executor>(module_, *solver_, clock_,
                                             stats_, options_.executor);
}

bool PbseDriver::prepare(const std::vector<std::uint8_t>& seed) {
  // --- Step 1: concolic execution (Algorithm 2). -------------------------
  const std::uint64_t t0 = clock_.now();
  concolic_ = run_concolic(*executor_, entry_, seed, options_.concolic);
  c_time_ = clock_.now() - t0;
  // Bugs hit by the seed itself belong to no phase.
  bug_phases_.assign(executor_->bugs().size(), ~std::uint32_t{0});

  // --- Step 2: phase parsing. --------------------------------------------
  obs::trace_begin(obs::Category::kPhase, ids().ev_analysis, clock_.now(),
                   concolic_.bbvs.size());
  analysis_ = phase::analyze_phases(concolic_.bbvs, options_.phase);
  // Charge the clustering work to the virtual clock (the paper's p-time).
  p_time_ = analysis_.work / 8 + 1;
  clock_.advance(p_time_);
  obs::trace_end(obs::Category::kPhase, ids().ev_analysis, clock_.now(),
                 analysis_.phases.size(), ids().arg_phases,
                 analysis_.num_trap_phases, ids().arg_traps);

  if (concolic_.seed_states.empty() || analysis_.phases.empty()) return false;

  // SeedState selection (Sec. III-B3): same fork point -> keep earliest.
  // Algorithm 2 already dedups at record time, so this is a defensive
  // second pass over whatever the concolic step produced.
  std::unordered_map<std::uint64_t, const vm::ForkRecord*> earliest;
  for (const vm::ForkRecord& r : concolic_.seed_states) {
    const std::uint64_t key = (std::uint64_t{r.fork_bb} << 32) | r.fork_inst;
    auto it = earliest.find(key);
    if (it == earliest.end() || r.fork_ticks < it->second->fork_ticks)
      earliest[key] = &r;
  }
  stats_.add(ids().seed_states_total, concolic_.seed_states.size());
  stats_.add(ids().seed_states_kept, earliest.size());

  // Map retained seedStates to phases by fork time (Sec. III-B2).
  phase_seed_states_.assign(analysis_.phases.size(), {});
  for (const auto& [key, record] : earliest) {
    (void)key;
    const std::uint32_t phase_id =
        phase::phase_of_ticks(analysis_, concolic_.bbvs, record->fork_ticks);
    phase_seed_states_[phase_id].push_back(*record);
  }
  // Within a phase, activate seedStates in fork order (earlier constraints
  // are simpler — same rationale as the paper's phase ordering).
  for (auto& list : phase_seed_states_)
    std::stable_sort(list.begin(), list.end(),
                     [](const vm::ForkRecord& a, const vm::ForkRecord& b) {
                       return a.fork_ticks < b.fork_ticks;
                     });

  // Build per-phase runtimes (phases are already ordered by first-BBV time).
  runtimes_.clear();
  for (const phase::Phase& p : analysis_.phases) {
    PhaseRuntime rt;
    rt.phase_id = p.id;
    rt.searcher = search::make_searcher(options_.phase_searcher, *executor_,
                                        rng_);
    rt.engine =
        std::make_unique<search::SymbolicEngine>(*executor_, *rt.searcher);
    rt.pending = std::move(phase_seed_states_[p.id]);
    phase_seed_states_[p.id] = {};  // moved out; keep sizes via runtimes
    runtimes_.push_back(std::move(rt));
  }
  // Restore the per-phase lists for introspection (copy from runtimes).
  for (std::size_t i = 0; i < runtimes_.size(); ++i)
    phase_seed_states_[runtimes_[i].phase_id] = runtimes_[i].pending;
  return true;
}

void PbseDriver::activate_pending(PhaseRuntime& phase) {
  for (vm::ForkRecord& record : phase.pending) {
    // Lazy pass-through: validate (or repair) the seedState's model against
    // its flipped branch constraint before scheduling it.
    auto state = std::make_unique<vm::ExecutionState>(*record.state);
    state->id = executor_->allocate_state_id();
    if (!executor_->validate_model(*state)) continue;
    phase.engine->add_state(std::move(state));
    stats_.add(ids().seed_states_activated);
  }
  obs::trace_instant(obs::Category::kSched, ids().ev_activate, clock_.now(),
                     phase.phase_id, ids().arg_phase,
                     phase.engine->num_states(), ids().arg_states);
  phase.pending.clear();
  phase.started = true;
}

std::vector<const vm::ExecutionState*> PbseDriver::states() const {
  std::vector<const vm::ExecutionState*> out;
  for (const PhaseRuntime& rt : runtimes_) {
    for (const vm::ForkRecord& record : rt.pending)
      out.push_back(record.state.get());
    for (const vm::ExecutionState* s : rt.engine->states()) out.push_back(s);
  }
  return out;
}

void PbseDriver::begin_run() {
  cursor_.i = 0;
  cursor_.live.clear();
  for (std::uint32_t r = 0; r < runtimes_.size(); ++r)
    cursor_.live.push_back(r);
}

bool PbseDriver::step_turn(const Deadline& overall) {
  // One iteration of Algorithm 3's rotation loop.
  auto& live = cursor_.live;
  if (live.empty() || overall.expired()) return false;

  const std::size_t phase_index = cursor_.i % live.size();
  const std::uint64_t turn = cursor_.i / live.size() + 1;
  ++cursor_.i;
  PhaseRuntime& phase = runtimes_[live[phase_index]];

  if (!phase.started) activate_pending(phase);
  if (phase.searcher->empty()) {
    obs::trace_instant(
        obs::Category::kSched, ids().ev_retired, clock_.now(),
        phase.phase_id, ids().arg_phase,
        static_cast<std::uint64_t>(RetireReason::kExhausted),
        ids().arg_reason);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(phase_index));
    // Re-balance i so the rotation stays aligned after erasure.
    if (!live.empty()) cursor_.i = (cursor_.i - 1) % live.size();
    return !live.empty();
  }

  const std::uint64_t phase_start = clock_.now();
  const std::uint64_t period = turn * options_.time_period_ticks;
  const std::uint64_t covered_before = executor_->num_covered();
  obs::trace_begin(obs::Category::kSched, ids().ev_turn, phase_start,
                   phase.phase_id, ids().arg_phase, turn, ids().arg_turn);
  std::uint64_t last_cover_epoch = executor_->coverage_epoch();
  std::uint64_t last_cover_ticks = clock_.now();
  const std::size_t bugs_before = executor_->bugs().size();

  auto stop = [&]() {
    if (executor_->coverage_epoch() != last_cover_epoch) {
      last_cover_epoch = executor_->coverage_epoch();
      last_cover_ticks = clock_.now();
    }
    // Keep running while within the period, or while still covering new
    // code (Algorithm 3 line 15).
    if (clock_.now() - phase_start <= period) return false;
    return clock_.now() - last_cover_ticks > options_.no_new_cover_window;
  };
  phase.engine->run(overall, stop);

  // Tag bugs found during this turn with the phase id.
  for (std::size_t b = bugs_before; b < executor_->bugs().size(); ++b)
    bug_phases_.push_back(phase.phase_id);

  stats_.add(ids().turns);
  stats_.observe(ids().states_per_phase, phase.engine->num_states());
  obs::trace_end(obs::Category::kSched, ids().ev_turn, clock_.now(),
                 phase.engine->num_states(), ids().arg_states,
                 executor_->num_covered() - covered_before,
                 ids().arg_cover);

  PBSE_LOG_DEBUG << "pbse phase " << phase.phase_id << " turn " << turn
                 << ": states=" << phase.engine->num_states()
                 << " covered=" << executor_->num_covered()
                 << " clock=" << clock_.now();
  return true;
}

void PbseDriver::run(VClock::Ticks budget) {
  begin_run();
  const Deadline overall(clock_, budget);
  while (step_turn(overall)) {
  }
}

}  // namespace pbse::core
