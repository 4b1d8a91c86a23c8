// Job model for pbse-serve: what a client submits, what the scheduler
// executes, and what the server persists for crash recovery.
//
// A job is a whole campaign (one KleeRun or one PbseDriver) with a tick
// budget. Between scheduler slices a job exists ONLY as data — a JobSpec
// plus an optional pbss snapshot — so it can be checkpointed to disk,
// survive a kill -9, and migrate between worker threads (expr interning is
// thread-local; materializing from bytes on the executing worker is what
// makes stealing safe).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "searchers/searcher.h"
#include "server/protocol.h"

namespace pbse::server {

enum class JobMode : std::uint8_t { kKlee = 0, kPbse = 1 };

/// Ticks of budget per scheduling quantum for jobs that set no
/// JobSpec::slice_ticks of their own.
inline constexpr std::uint64_t kDefaultSliceTicks = 50'000;

const char* job_mode_name(JobMode mode);
bool parse_job_mode(const std::string& name, JobMode& out);

/// Client-supplied description of a campaign. Everything needed to
/// reconstruct the campaign object deterministically lives here; restoring
/// a snapshot on top requires byte-identical spec fields (the snapshot's
/// input-array guard enforces the ones that matter).
struct JobSpec {
  JobMode mode = JobMode::kPbse;
  /// Target driver name from the registry ("readelf", "gif2tiff", ...).
  std::string target = "readelf";
  std::uint64_t budget_ticks = 200'000;
  std::uint64_t rng_seed = 1;
  search::SearcherKind searcher = search::SearcherKind::kDefault;
  /// klee mode: whole-file symbolic input size.
  std::uint32_t sym_size = 100;
  /// pbse mode: seed-generator scale.
  std::uint32_t seed_scale = 4;
  /// Ticks per scheduler slice (0 = kDefaultSliceTicks). Slicing
  /// granularity never changes results — only checkpoint/steal latency.
  std::uint64_t slice_ticks = 0;

  Json to_json() const;
  /// Throws ProtocolError on unknown mode/searcher/target-less specs.
  static JobSpec from_json(const Json& j);
};

enum class JobState : std::uint8_t {
  kQueued = 0,        // waiting for a worker
  kRunning = 1,       // a worker holds it right now
  kCheckpointed = 2,  // between slices, snapshot current, re-queued
  kDone = 3,
  kFailed = 4,
};

const char* job_state_name(JobState state);

/// Point-in-time progress of a job, streamed to subscribers after every
/// slice and embedded in the persisted metadata.
struct JobProgress {
  std::uint64_t ticks = 0;       // campaign clock
  std::uint64_t covered = 0;     // basic blocks covered
  std::uint64_t bugs = 0;        // distinct bug reports
  std::uint64_t states = 0;      // live execution states (klee) / sum (pbse)
  std::uint64_t test_cases = 0;  // generated test cases

  Json to_json() const;
};

/// The scheduler-owned record. `snapshot` is empty until the first slice
/// completes; afterwards it always holds a full pbss campaign image.
struct JobRecord {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  JobProgress progress;
  std::string error;                  // set when state == kFailed
  std::vector<std::uint8_t> snapshot; // pbss bytes between slices
  /// Absolute campaign-clock tick at which the run budget expires. Fixed on
  /// the first slice (campaign setup — concolic + phase analysis for pbse —
  /// consumes ticks before the budget starts) and persisted so a resumed
  /// job stops at the very tick the uninterrupted run would have.
  std::uint64_t run_end_ticks = 0;
  /// How many times an in-flight slice of this job was re-queued after a
  /// worker death; capped by SchedulerOptions::max_requeues.
  std::uint32_t requeues = 0;
  /// CUMULATIVE campaign counters (Stats::all() of the campaign object) as
  /// of the end of the last COMPLETED slice. The scheduler charges the
  /// delta against the executing worker exactly once per completed slice;
  /// a slice lost to a worker death is never charged (DESIGN.md §13).
  std::map<std::string, std::uint64_t> counters;

  /// Metadata for status/list replies and wait events; `snapshot` itself
  /// is not embedded (only `has_snapshot`).
  Json meta_json() const;

  /// Binary wire form: the full record INCLUDING the raw snapshot bytes,
  /// for pbsf kJobAssign/kJobResult/kJobRecord payloads and single-file
  /// .pbsf checkpoints. No base64, no JSON re-encoding of the snapshot.
  std::vector<std::uint8_t> wire_encode() const;
  /// Throws serialize::SnapshotError / ProtocolError / JsonError on
  /// malformed input.
  static JobRecord wire_decode(const std::vector<std::uint8_t>& bytes);
};

}  // namespace pbse::server
