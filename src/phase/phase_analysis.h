// Phase division, selection, and trap-phase identification
// (paper Sec. III-B1): cluster coverage-augmented BBVs with k-means over
// k = 1..20, choose the k that identifies the most trap phases (ties ->
// smallest k), and mark as trap phases the clusters containing a long run
// of contiguous intervals.
#pragma once

#include <cstdint>
#include <vector>

#include "concolic/bbv.h"
#include "support/rng.h"

namespace pbse::phase {

struct PhaseOptions {
  /// N as a fraction of the number of BBVs in the execution: a cluster
  /// containing >= max(2, fraction * #BBVs) CONTIGUOUS intervals is a trap
  /// phase (the paper sets this to 0.05).
  double trap_run_fraction = 0.05;
  /// Weight of the appended code-coverage element; 0 reproduces the
  /// BBV-only ablation of Fig 4(a).
  double coverage_weight = 4.0;
  std::uint64_t kmeans_seed = 12345;
};

struct Phase {
  std::uint32_t id = 0;             // index after sorting by first_ticks
  std::vector<std::uint32_t> intervals;  // BBV indices, ascending
  bool is_trap = false;
  std::uint64_t first_ticks = 0;    // gather time of the earliest BBV
  std::uint32_t longest_run = 0;    // longest contiguous interval run
};

struct PhaseAnalysisResult {
  std::vector<Phase> phases;        // ordered by first_ticks (paper's
                                    // execution order for scheduling)
  std::uint32_t chosen_k = 0;
  std::uint32_t num_trap_phases = 0;
  std::vector<std::uint32_t> interval_phase;  // BBV index -> phase id
  /// Total k-means distance computations across the k sweep ("p-time").
  std::uint64_t work = 0;
};

/// Runs the full phase-division pipeline on a BBV sequence.
PhaseAnalysisResult analyze_phases(const std::vector<concolic::BBV>& bbvs,
                                   const PhaseOptions& options = {});

/// Finds the phase containing the interval that covers `ticks`
/// (seedState -> phase mapping, Sec. III-B2). Returns the phase id, or the
/// last phase if `ticks` is beyond the end.
std::uint32_t phase_of_ticks(const PhaseAnalysisResult& analysis,
                             const std::vector<concolic::BBV>& bbvs,
                             std::uint64_t ticks);

}  // namespace pbse::phase
