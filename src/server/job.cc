#include "server/job.h"

#include "serialize/pbss.h"

namespace pbse::server {

const char* job_mode_name(JobMode mode) {
  return mode == JobMode::kKlee ? "klee" : "pbse";
}

bool parse_job_mode(const std::string& name, JobMode& out) {
  if (name == "klee") {
    out = JobMode::kKlee;
    return true;
  }
  if (name == "pbse") {
    out = JobMode::kPbse;
    return true;
  }
  return false;
}

Json JobSpec::to_json() const {
  Json j = Json::object();
  j.set("mode", Json::string(job_mode_name(mode)));
  j.set("target", Json::string(target));
  j.set("budget_ticks", Json::number(budget_ticks));
  j.set("rng_seed", Json::number(rng_seed));
  j.set("searcher", Json::string(search::searcher_kind_name(searcher)));
  j.set("sym_size", Json::number(sym_size));
  j.set("seed_scale", Json::number(seed_scale));
  j.set("slice_ticks", Json::number(slice_ticks));
  return j;
}

JobSpec JobSpec::from_json(const Json& j) {
  JobSpec spec;
  std::string mode = j.get_string("mode", "pbse");
  if (!parse_job_mode(mode, spec.mode))
    throw ProtocolError("unknown job mode '" + mode + "'");
  spec.target = j.get_string("target", "");
  if (spec.target.empty()) throw ProtocolError("job spec missing 'target'");
  spec.budget_ticks = j.get_u64("budget_ticks", 200'000);
  if (spec.budget_ticks == 0)
    throw ProtocolError("job budget_ticks must be positive");
  spec.rng_seed = j.get_u64("rng_seed", 1);
  std::string searcher = j.get_string("searcher", "default");
  if (!search::parse_searcher_kind(searcher, spec.searcher))
    throw ProtocolError("unknown searcher '" + searcher + "'");
  spec.sym_size = static_cast<std::uint32_t>(j.get_u64("sym_size", 100));
  spec.seed_scale = static_cast<std::uint32_t>(j.get_u64("seed_scale", 4));
  spec.slice_ticks = j.get_u64("slice_ticks", 0);
  return spec;
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCheckpointed: return "checkpointed";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

Json JobProgress::to_json() const {
  Json j = Json::object();
  j.set("ticks", Json::number(ticks));
  j.set("covered", Json::number(covered));
  j.set("bugs", Json::number(bugs));
  j.set("states", Json::number(states));
  j.set("test_cases", Json::number(test_cases));
  return j;
}

Json JobRecord::meta_json() const {
  Json j = Json::object();
  j.set("id", Json::number(id));
  j.set("spec", spec.to_json());
  j.set("state", Json::string(job_state_name(state)));
  j.set("progress", progress.to_json());
  if (!error.empty()) j.set("error", Json::string(error));
  j.set("has_snapshot", Json::boolean(!snapshot.empty()));
  j.set("run_end_ticks", Json::number(run_end_ticks));
  j.set("requeues", Json::number(requeues));
  return j;
}

// --- Binary wire form -----------------------------------------------------
//
// The spec rides as its JSON dump (tiny, and reuses the validation in
// from_json on decode); everything byte-exact — above all the snapshot —
// is raw. Counters are emitted in map order, which is sorted, so encoding
// the same record twice yields identical bytes.

std::vector<std::uint8_t> JobRecord::wire_encode() const {
  serialize::Encoder enc;
  enc.u64(id);
  enc.str(spec.to_json().dump());
  enc.u8(static_cast<std::uint8_t>(state));
  enc.u64(progress.ticks);
  enc.u64(progress.covered);
  enc.u64(progress.bugs);
  enc.u64(progress.states);
  enc.u64(progress.test_cases);
  enc.str(error);
  enc.u64(run_end_ticks);
  enc.u32(requeues);
  enc.u32(static_cast<std::uint32_t>(counters.size()));
  for (const auto& [name, value] : counters) {
    enc.str(name);
    enc.u64(value);
  }
  enc.blob(snapshot);
  return enc.data();
}

JobRecord JobRecord::wire_decode(const std::vector<std::uint8_t>& bytes) {
  serialize::Decoder dec(bytes);
  JobRecord rec;
  rec.id = dec.u64();
  rec.spec = JobSpec::from_json(parse_json(dec.str()));
  const std::uint8_t state = dec.u8();
  if (state > static_cast<std::uint8_t>(JobState::kFailed))
    throw serialize::SnapshotError("job record: bad state byte " +
                                   std::to_string(state));
  rec.state = static_cast<JobState>(state);
  rec.progress.ticks = dec.u64();
  rec.progress.covered = dec.u64();
  rec.progress.bugs = dec.u64();
  rec.progress.states = dec.u64();
  rec.progress.test_cases = dec.u64();
  rec.error = dec.str();
  rec.run_end_ticks = dec.u64();
  rec.requeues = dec.u32();
  const std::uint32_t n = dec.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = dec.str();
    rec.counters[std::move(name)] = dec.u64();
  }
  rec.snapshot = dec.blob();
  if (!dec.done())
    throw serialize::SnapshotError("job record: trailing bytes after record");
  return rec;
}

}  // namespace pbse::server
