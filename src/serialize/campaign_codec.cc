#include "serialize/campaign_codec.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "core/driver.h"
#include "core/pbse.h"
#include "obs/metrics.h"
#include "searchers/engine.h"
#include "searchers/searcher.h"
#include "solver/solver.h"
#include "support/stats.h"
#include "vm/executor.h"

namespace pbse::serialize {

namespace {

/// Sorted copy of an unordered map's keys — every unordered container is
/// emitted in sorted order so re-serializing a restored campaign
/// reproduces the snapshot byte for byte.
template <typename Map>
std::vector<std::uint64_t> sorted_keys(const Map& map) {
  std::vector<std::uint64_t> keys;
  keys.reserve(map.size());
  for (const auto& [k, v] : map) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void encode_u64_set(Encoder& enc,
                    const std::unordered_set<std::uint64_t>& set) {
  std::vector<std::uint64_t> sorted(set.begin(), set.end());
  std::sort(sorted.begin(), sorted.end());
  enc.u32(static_cast<std::uint32_t>(sorted.size()));
  for (std::uint64_t v : sorted) enc.u64(v);
}

std::unordered_set<std::uint64_t> decode_u64_set(Decoder& dec) {
  const std::uint32_t n = dec.count(8);
  std::unordered_set<std::uint64_t> set;
  set.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) set.insert(dec.u64());
  return set;
}

void encode_rng_clock(Encoder& enc, const VClock& clock, const Rng& rng) {
  enc.u64(clock.now());
  for (std::uint64_t w : rng.state()) enc.u64(w);
}

void decode_rng_clock(Decoder& dec, VClock& clock, Rng& rng) {
  clock.set(dec.u64());
  std::array<std::uint64_t, 4> s;
  for (auto& w : s) w = dec.u64();
  rng.set_state(s);
}

/// Cheap configuration guard: the symbolic input array's identity. A
/// snapshot restored into a run built with different options would
/// produce silent garbage; the input array catches the common mismatches
/// (different sym size, different seed file) loudly.
void encode_input_guard(Encoder& enc, const ArrayRef& input) {
  enc.str(input == nullptr ? std::string() : input->name());
  enc.u32(input == nullptr ? 0 : input->size());
}

void check_input_guard(Decoder& dec, const ArrayRef& input) {
  const std::string name = dec.str();
  const std::uint32_t size = dec.u32();
  const std::string have = input == nullptr ? std::string() : input->name();
  const std::uint32_t have_size = input == nullptr ? 0 : input->size();
  if (name != have || size != have_size)
    throw SnapshotError(
        "pbss: campaign mismatch — snapshot input is '" + name + "'[" +
        std::to_string(size) + "], restoring run has '" + have + "'[" +
        std::to_string(have_size) +
        "] (construct the run with the snapshot's options)");
}

}  // namespace

// --- Stats (by NAME: MetricId interning order is process-local) -----------

void CampaignCodec::encode_stats(Encoder& enc, const Stats& stats) {
  const auto counters = stats.all();  // sorted by name
  enc.u32(static_cast<std::uint32_t>(counters.size()));
  for (const auto& [name, value] : counters) {
    enc.str(name);
    enc.u64(value);
  }
  const auto hists = stats.histograms();  // sorted by name
  enc.u32(static_cast<std::uint32_t>(hists.size()));
  for (const auto& [name, h] : hists) {
    enc.str(name);
    for (std::uint64_t b : h->raw_buckets()) enc.u64(b);
    enc.u64(h->count());
    enc.u64(h->sum());
    enc.u64(h->raw_max());
    enc.u64(h->raw_min());
  }
}

void CampaignCodec::decode_stats(Decoder& dec, Stats& stats) {
  stats.clear();
  const std::uint32_t ncounters = dec.u32();
  for (std::uint32_t i = 0; i < ncounters; ++i) {
    const std::string name = dec.str();
    stats.mutable_store().add(obs::intern_metric(name), dec.u64());
  }
  const std::uint32_t nhists = dec.u32();
  for (std::uint32_t i = 0; i < nhists; ++i) {
    const std::string name = dec.str();
    std::array<std::uint64_t, obs::Histogram::kBuckets> buckets;
    for (auto& b : buckets) b = dec.u64();
    const std::uint64_t count = dec.u64();
    const std::uint64_t sum = dec.u64();
    const std::uint64_t max = dec.u64();
    const std::uint64_t min = dec.u64();
    stats.mutable_store()
        .mutable_histogram(obs::intern_metric(name))
        .set_raw(buckets, count, sum, max, min);
  }
}

// --- Executor bookkeeping -------------------------------------------------

void CampaignCodec::encode_executor(StateCodec& codec, Encoder& enc,
                                    vm::Executor& ex) {
  (void)codec;
  // Coverage bitset, packed 8 blocks per byte.
  enc.u32(static_cast<std::uint32_t>(ex.covered_.size()));
  std::uint8_t byte = 0;
  for (std::size_t i = 0; i < ex.covered_.size(); ++i) {
    if (ex.covered_[i]) byte |= static_cast<std::uint8_t>(1u << (i % 8));
    if (i % 8 == 7) {
      enc.u8(byte);
      byte = 0;
    }
  }
  if (ex.covered_.size() % 8 != 0) enc.u8(byte);
  enc.u64(ex.num_covered_);
  enc.u64(ex.coverage_epoch_);
  enc.u32(static_cast<std::uint32_t>(ex.coverage_log_.size()));
  for (const auto& ev : ex.coverage_log_) {
    enc.u64(ev.ticks);
    enc.u32(ev.global_bb);
  }

  enc.u32(static_cast<std::uint32_t>(ex.bugs_.size()));
  for (const auto& bug : ex.bugs_) {
    enc.u8(static_cast<std::uint8_t>(bug.kind));
    enc.str(bug.function);
    enc.u32(bug.line);
    enc.u32(bug.global_bb);
    enc.str(bug.message);
    enc.u64(bug.found_at_ticks);
    enc.u64(bug.state_id);
    enc.blob(bug.input);
  }
  std::vector<std::string> sites(ex.bug_sites_.begin(), ex.bug_sites_.end());
  std::sort(sites.begin(), sites.end());
  enc.u32(static_cast<std::uint32_t>(sites.size()));
  for (const auto& site : sites) enc.str(site);

  enc.u32(static_cast<std::uint32_t>(ex.test_cases_.size()));
  for (const auto& tc : ex.test_cases_) {
    enc.blob(tc.input);
    enc.u64(tc.state_id);
    enc.u64(tc.generated_at_ticks);
    enc.str(tc.reason);
  }
  enc.u32(static_cast<std::uint32_t>(ex.out_log_.size()));
  for (std::uint64_t v : ex.out_log_) enc.u64(v);

  enc.u64(ex.next_state_id_);
  enc.u64(ex.live_states_);
  enc.u32(ex.input_object_);
  encode_u64_set(enc, ex.concolic_seen_forks_);
}

void CampaignCodec::decode_executor(StateCodec& codec, Decoder& dec,
                                    vm::Executor& ex) {
  (void)codec;
  // record_coverage indexes the bitmap by global block id.
  const std::uint32_t ncovered = dec.u32();
  if (ncovered != ex.module().total_blocks())
    throw SnapshotError("pbss: coverage bitmap of " +
                        std::to_string(ncovered) + " blocks, module has " +
                        std::to_string(ex.module().total_blocks()));
  ex.covered_.assign(ncovered, false);
  std::uint8_t byte = 0;
  for (std::uint32_t i = 0; i < ncovered; ++i) {
    if (i % 8 == 0) byte = dec.u8();
    ex.covered_[i] = (byte >> (i % 8)) & 1;
  }
  ex.num_covered_ = dec.u64();
  ex.coverage_epoch_ = dec.u64();
  const std::uint32_t nlog = dec.count(12);
  ex.coverage_log_.clear();
  ex.coverage_log_.reserve(nlog);
  for (std::uint32_t i = 0; i < nlog; ++i) {
    vm::Executor::CoverEvent ev;
    ev.ticks = dec.u64();
    ev.global_bb = dec.u32();
    ex.coverage_log_.push_back(ev);
  }

  // A bug is at least 41 bytes: kind, three lengths, two u32 and two u64.
  const std::uint32_t nbugs = dec.count(41);
  ex.bugs_.clear();
  ex.bugs_.reserve(nbugs);
  for (std::uint32_t i = 0; i < nbugs; ++i) {
    vm::BugReport bug;
    const std::uint8_t kind = dec.u8();
    if (kind > static_cast<std::uint8_t>(vm::BugKind::kUseAfterReturn))
      throw SnapshotError("pbss: bug kind out of range");
    bug.kind = static_cast<vm::BugKind>(kind);
    bug.function = dec.str();
    bug.line = dec.u32();
    bug.global_bb = dec.u32();
    bug.message = dec.str();
    bug.found_at_ticks = dec.u64();
    bug.state_id = dec.u64();
    bug.input = dec.blob();
    ex.bugs_.push_back(std::move(bug));
  }
  const std::uint32_t nsites = dec.u32();
  ex.bug_sites_.clear();
  for (std::uint32_t i = 0; i < nsites; ++i) ex.bug_sites_.insert(dec.str());

  // A test case is at least 28 bytes: two lengths and two u64.
  const std::uint32_t ntests = dec.count(28);
  ex.test_cases_.clear();
  ex.test_cases_.reserve(ntests);
  for (std::uint32_t i = 0; i < ntests; ++i) {
    vm::TestCase tc;
    tc.input = dec.blob();
    tc.state_id = dec.u64();
    tc.generated_at_ticks = dec.u64();
    tc.reason = dec.str();
    ex.test_cases_.push_back(std::move(tc));
  }
  const std::uint32_t nout = dec.count(8);
  ex.out_log_.clear();
  ex.out_log_.reserve(nout);
  for (std::uint32_t i = 0; i < nout; ++i) ex.out_log_.push_back(dec.u64());

  ex.next_state_id_ = dec.u64();
  ex.live_states_ = dec.u64();
  ex.input_object_ = dec.u32();
  ex.concolic_seen_forks_ = decode_u64_set(dec);
}

// --- Solver L1 stores -----------------------------------------------------

void CampaignCodec::encode_solver(StateCodec& codec, Encoder& enc,
                                  Solver& solver) {
  // Exact query cache, sorted by key.
  {
    const auto& entries = solver.cache_.entries();
    const auto keys = sorted_keys(entries);
    enc.u32(static_cast<std::uint32_t>(keys.size()));
    for (std::uint64_t key : keys) {
      const auto& e = entries.at(key);
      enc.u64(key);
      enc.u8(static_cast<std::uint8_t>(e.result));
      codec.encode_model_bytes(enc, e.model);
    }
  }
  // Domain memo: keys sorted; slots sorted by (array name, index).
  {
    const auto keys = sorted_keys(solver.domain_memo_);
    enc.u32(static_cast<std::uint32_t>(keys.size()));
    for (std::uint64_t key : keys) {
      const auto& entry = solver.domain_memo_.at(key);
      enc.u64(key);
      enc.u32(entry.delta_depth);
      std::vector<const DomainMap::Slot*> slots;
      slots.reserve(entry.domains.slots().size());
      for (const auto& [k, slot] : entry.domains.slots())
        slots.push_back(&slot);
      std::sort(slots.begin(), slots.end(),
                [](const DomainMap::Slot* a, const DomainMap::Slot* b) {
                  if (a->array->name() != b->array->name())
                    return a->array->name() < b->array->name();
                  return a->index < b->index;
                });
      enc.u32(static_cast<std::uint32_t>(slots.size()));
      for (const DomainMap::Slot* slot : slots) {
        codec.encode_array(enc, slot->array);
        enc.u32(slot->index);
        for (std::uint64_t w : slot->dom.words()) enc.u64(w);
      }
    }
  }
}

void CampaignCodec::decode_solver(StateCodec& codec, Decoder& dec,
                                  Solver& solver) {
  solver.cache_.clear();
  {
    const std::uint32_t n = dec.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t key = dec.u64();
      QueryCache::Entry e;
      const std::uint8_t result = dec.u8();
      if (result > static_cast<std::uint8_t>(SolverResult::kUnknown))
        throw SnapshotError("pbss: cached solver result out of range");
      e.result = static_cast<SolverResult>(result);
      e.model = codec.decode_model_bytes(dec);
      solver.cache_.insert(key, std::move(e));
    }
  }
  solver.domain_memo_.clear();
  {
    const std::uint32_t n = dec.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t key = dec.u64();
      auto& entry = solver.domain_memo_[key];
      entry.delta_depth = dec.u32();
      const std::uint32_t nslots = dec.u32();
      for (std::uint32_t j = 0; j < nslots; ++j) {
        const ArrayRef array = codec.decode_array(dec);
        const std::uint32_t index = dec.u32();
        std::array<std::uint64_t, 4> words;
        for (auto& w : words) w = dec.u64();
        entry.domains.domain(array, index).set_words(words);
      }
    }
  }
}

// --- Engine population + searcher position --------------------------------

void CampaignCodec::encode_engine(StateCodec& codec, Encoder& enc,
                                  search::SymbolicEngine& engine,
                                  search::Searcher& searcher) {
  const std::vector<const vm::ExecutionState*> states = engine.states();
  enc.u32(static_cast<std::uint32_t>(states.size()));
  for (const vm::ExecutionState* s : states) codec.encode_state(enc, *s);

  std::vector<std::uint64_t> words;
  searcher.save_position(words);
  enc.u32(static_cast<std::uint32_t>(words.size()));
  for (std::uint64_t w : words) enc.u64(w);
}

void CampaignCodec::decode_engine(StateCodec& codec, Decoder& dec,
                                  search::SymbolicEngine& engine,
                                  search::Searcher& searcher,
                                  const ir::Module& module) {
  engine.states_.clear();
  const std::uint32_t n = dec.count(StateCodec::kMinStateBytes);
  std::unordered_map<std::uint64_t, vm::ExecutionState*> by_id;
  by_id.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto state = codec.decode_state(dec, module);
    const std::uint64_t id = state->id;
    by_id[id] = state.get();
    engine.states_[id] = std::move(state);
  }
  const std::uint32_t nwords = dec.count(8);
  std::vector<std::uint64_t> words;
  words.reserve(nwords);
  for (std::uint32_t i = 0; i < nwords; ++i) words.push_back(dec.u64());
  std::size_t pos = 0;
  try {
    searcher.load_position(words, pos, by_id);
  } catch (const std::out_of_range&) {
    throw SnapshotError("pbss: searcher position runs past its words or "
                        "names a state the snapshot does not hold");
  }
  if (pos != words.size())
    throw SnapshotError("pbss: searcher position has trailing words");
}

// --- KLEE-style campaigns -------------------------------------------------

std::vector<std::uint8_t> CampaignCodec::snapshot(core::KleeRun& run) {
  StateCodec codec;
  Encoder enc;
  encode_input_guard(enc, run.executor_->input_array());
  encode_rng_clock(enc, run.clock_, run.rng_);
  encode_stats(enc, run.stats_);
  encode_executor(codec, enc, *run.executor_);
  encode_solver(codec, enc, *run.solver_);
  encode_engine(codec, enc, *run.engine_, *run.searcher_);
  return frame_snapshot(SnapshotFlavor::kKlee, enc.data());
}

void CampaignCodec::restore(core::KleeRun& run,
                            const std::vector<std::uint8_t>& framed) {
  const std::vector<std::uint8_t> payload =
      unframe_snapshot(framed, SnapshotFlavor::kKlee);
  Decoder dec(payload);
  StateCodec codec;
  codec.register_array(run.executor_->input_array());
  check_input_guard(dec, run.executor_->input_array());
  decode_rng_clock(dec, run.clock_, run.rng_);
  decode_stats(dec, run.stats_);
  decode_executor(codec, dec, *run.executor_);
  decode_solver(codec, dec, *run.solver_);
  decode_engine(codec, dec, *run.engine_, *run.searcher_,
                run.executor_->module());
  if (!dec.done())
    throw SnapshotError("pbss: trailing bytes in klee campaign payload");
}

// --- pbSE campaigns -------------------------------------------------------

std::vector<std::uint8_t> CampaignCodec::snapshot(core::PbseDriver& driver) {
  StateCodec codec;
  Encoder enc;
  encode_input_guard(enc, driver.executor_->input_array());
  encode_rng_clock(enc, driver.clock_, driver.rng_);
  encode_stats(enc, driver.stats_);
  encode_executor(codec, enc, *driver.executor_);
  encode_solver(codec, enc, *driver.solver_);
  enc.u64(driver.c_time_);
  enc.u64(driver.p_time_);
  enc.u32(static_cast<std::uint32_t>(driver.bug_phases_.size()));
  for (std::uint32_t p : driver.bug_phases_) enc.u32(p);
  enc.u64(driver.cursor_.i);
  enc.u32(static_cast<std::uint32_t>(driver.cursor_.live.size()));
  for (std::uint32_t idx : driver.cursor_.live) enc.u32(idx);
  // Per-phase runtimes. Pending seedStates ARE serialized even though
  // prepare() rebuilds equivalent ones: pending states share memory
  // objects and the seed assignment with already-activated engine states,
  // and only encoding both sides through one dedup table keeps that
  // sharing — and therefore the canonical byte-for-byte property of every
  // LATER snapshot — intact across a restore.
  enc.u32(static_cast<std::uint32_t>(driver.runtimes_.size()));
  for (auto& rt : driver.runtimes_) {
    enc.u32(rt.phase_id);
    enc.u8(rt.started ? 1 : 0);
    enc.u32(static_cast<std::uint32_t>(rt.pending.size()));
    for (const vm::ForkRecord& record : rt.pending) {
      codec.encode_state(enc, *record.state);
      enc.u64(record.fork_ticks);
      enc.u32(record.fork_bb);
      enc.u32(record.fork_inst);
    }
    encode_engine(codec, enc, *rt.engine, *rt.searcher);
  }
  return frame_snapshot(SnapshotFlavor::kPbse, enc.data());
}

void CampaignCodec::restore(core::PbseDriver& driver,
                            const std::vector<std::uint8_t>& framed) {
  const std::vector<std::uint8_t> payload =
      unframe_snapshot(framed, SnapshotFlavor::kPbse);
  Decoder dec(payload);
  StateCodec codec;
  codec.register_array(driver.executor_->input_array());
  check_input_guard(dec, driver.executor_->input_array());
  decode_rng_clock(dec, driver.clock_, driver.rng_);
  decode_stats(dec, driver.stats_);
  decode_executor(codec, dec, *driver.executor_);
  decode_solver(codec, dec, *driver.solver_);
  driver.c_time_ = dec.u64();
  driver.p_time_ = dec.u64();
  // step_turn appends one phase per new bug, and the reports index this
  // list by bug: it holds exactly one entry per executor bug.
  const std::uint32_t nbugphases = dec.count(4);
  if (nbugphases != driver.executor_->bugs_.size())
    throw SnapshotError("pbss: " + std::to_string(nbugphases) +
                        " bug phases for " +
                        std::to_string(driver.executor_->bugs_.size()) +
                        " bugs");
  driver.bug_phases_.clear();
  driver.bug_phases_.reserve(nbugphases);
  for (std::uint32_t i = 0; i < nbugphases; ++i)
    driver.bug_phases_.push_back(dec.u32());
  // step_turn indexes runtimes_ by the live indices, and the rotation only
  // ever erases from 0..n-1: they strictly increase and stay below n.
  driver.cursor_.i = dec.u64();
  const std::uint32_t nlive = dec.count(4);
  driver.cursor_.live.clear();
  driver.cursor_.live.reserve(nlive);
  for (std::uint32_t i = 0; i < nlive; ++i) {
    const std::uint32_t idx = dec.u32();
    if (idx >= driver.runtimes_.size() ||
        (i > 0 && idx <= driver.cursor_.live.back()))
      throw SnapshotError("pbss: turn cursor names phase " +
                          std::to_string(idx) + " out of order or past " +
                          std::to_string(driver.runtimes_.size()) +
                          " phases");
    driver.cursor_.live.push_back(idx);
  }

  const std::uint32_t nruntimes = dec.u32();
  if (nruntimes != driver.runtimes_.size())
    throw SnapshotError(
        "pbss: phase count mismatch (snapshot " + std::to_string(nruntimes) +
        ", driver " + std::to_string(driver.runtimes_.size()) +
        ") — restore requires prepare() with the identical seed and options");
  for (auto& rt : driver.runtimes_) {
    const std::uint32_t pid = dec.u32();
    if (pid != rt.phase_id)
      throw SnapshotError("pbss: phase id mismatch (snapshot " +
                          std::to_string(pid) + ", driver " +
                          std::to_string(rt.phase_id) + ")");
    rt.started = dec.u8() != 0;
    // A pending record is a state plus a u64 and two u32.
    const std::uint32_t npending =
        dec.count(StateCodec::kMinStateBytes + 16);
    rt.pending.clear();
    rt.pending.reserve(npending);
    for (std::uint32_t i = 0; i < npending; ++i) {
      vm::ForkRecord record;
      record.state = codec.decode_state(dec, driver.module_);
      record.fork_ticks = dec.u64();
      record.fork_bb = dec.u32();
      record.fork_inst = dec.u32();
      rt.pending.push_back(std::move(record));
    }
    decode_engine(codec, dec, *rt.engine, *rt.searcher, driver.module_);
  }
  if (!dec.done())
    throw SnapshotError("pbss: trailing bytes in pbse campaign payload");
}

}  // namespace pbse::serialize
