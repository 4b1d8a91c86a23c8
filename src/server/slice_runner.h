// In-process execution of one scheduler slice (DESIGN.md §11, §13).
//
// Extracted from the scheduler so BOTH execution tiers share one
// implementation: the daemon's inline worker threads call run_job_slice
// directly, and the pbse-worker process calls it on a record it received
// as a pbsf kJobAssign frame. The determinism argument (batch/turn cut
// points, full-budget deadlines, tick-exact restore) lives HERE, once.
//
// Each thread keeps the campaign its last slice ran resident, with the
// snapshot bytes that slice emitted. A record carrying exactly those bytes
// under an equal spec is that campaign, so its slice continues the
// resident; any other record drops the resident and materializes the
// campaign from rec.snapshot. Every slice still encodes its checkpoint
// into the record, so the record alone decides the result and a thread
// holds at most one campaign. The scheduler calls release_resident() when
// one of its threads goes idle.
#pragma once

#include <cstdint>

#include "server/job.h"

namespace pbse::server {

struct SliceContext {
  /// Ticks of budget for this scheduling quantum.
  std::uint64_t slice_ticks = kDefaultSliceTicks;
};

/// Runs one slice of `rec` in-process, updating snapshot, progress,
/// run_end_ticks and counters (cumulative campaign Stats) in place.
/// Returns true when the job has finished its budget. Throws on unknown
/// targets or corrupt snapshots — the caller owns the kFailed transition.
bool run_job_slice(JobRecord& rec, const SliceContext& ctx);

/// Drops the campaign the calling thread keeps resident, if any, and, if
/// the thread ran a slice since its last call, its compiled-constraint
/// cache (expr/tape.h), handing the freed memory back to the OS. A thread
/// calls it when it goes idle: the job that campaign belongs to has
/// finished or moved on, and an idle thread should hold no campaign.
void release_resident();

}  // namespace pbse::server
