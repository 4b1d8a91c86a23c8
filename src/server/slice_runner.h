// In-process execution of one scheduler slice (DESIGN.md §11, §13).
//
// Extracted from the scheduler so BOTH execution tiers share one
// implementation: the daemon's inline worker threads call run_job_slice
// directly, and the pbse-worker process calls it on a record it received
// as a pbsf kJobAssign frame. Whatever tier runs the slice, the campaign
// is materialized from rec.snapshot, advanced, and re-serialized — the
// determinism argument (batch/turn cut points, full-budget deadlines,
// tick-exact restore) lives HERE, once.
#pragma once

#include <cstdint>

#include "server/job.h"

namespace pbse::server {

struct SliceContext {
  /// Ticks of budget for this scheduling quantum.
  std::uint64_t slice_ticks = kDefaultSliceTicks;
  /// Static pre-analysis (DESIGN.md §12); must match the rest of the
  /// job's slices or the tick streams diverge.
  bool static_analysis = true;
};

/// Runs one slice of `rec` in-process, updating snapshot, progress,
/// run_end_ticks and counters (cumulative campaign Stats) in place.
/// Returns true when the job has finished its budget. Throws on unknown
/// targets or corrupt snapshots — the caller owns the kFailed transition.
bool run_job_slice(JobRecord& rec, const SliceContext& ctx);

}  // namespace pbse::server
