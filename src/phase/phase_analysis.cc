#include "phase/phase_analysis.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "phase/kmeans.h"

namespace pbse::phase {

namespace {

/// The k-means sweep tries every k in [kMinK, kMaxK] (capped by the number
/// of BBVs).
constexpr std::uint32_t kMinK = 1;
constexpr std::uint32_t kMaxK = 20;

struct PhaseIds {
  obs::MetricId ev_cluster = obs::intern_metric("phase_cluster");
  obs::MetricId ev_trap = obs::intern_metric("trap_detected");
  obs::MetricId arg_phase = obs::intern_metric("phase");
  obs::MetricId arg_intervals = obs::intern_metric("intervals");
  obs::MetricId arg_run = obs::intern_metric("run");
};

const PhaseIds& ids() {
  static const PhaseIds p;
  return p;
}

/// Longest run of contiguous interval indices assigned to cluster `c`.
std::uint32_t longest_contiguous_run(const std::vector<std::uint32_t>& assignment,
                                     std::uint32_t c) {
  std::uint32_t best = 0, run = 0;
  for (std::uint32_t a : assignment) {
    if (a == c) {
      ++run;
      best = std::max(best, run);
    } else {
      run = 0;
    }
  }
  return best;
}

struct Clustering {
  std::vector<std::uint32_t> assignment;
  std::uint32_t num_clusters = 0;
  std::uint32_t num_traps = 0;
  std::vector<bool> is_trap;
  std::vector<std::uint32_t> runs;
  std::uint64_t work = 0;
};

Clustering cluster_with_k(const std::vector<std::vector<double>>& points,
                          std::uint32_t k, std::uint32_t trap_threshold,
                          Rng& rng) {
  Clustering out;
  const KMeansResult km = kmeans(points, k, rng);
  out.work = km.work;
  out.assignment = km.assignment;
  out.num_clusters = static_cast<std::uint32_t>(km.centroids.size());
  out.is_trap.assign(out.num_clusters, false);
  out.runs.assign(out.num_clusters, 0);
  for (std::uint32_t c = 0; c < out.num_clusters; ++c) {
    out.runs[c] = longest_contiguous_run(km.assignment, c);
    if (out.runs[c] >= trap_threshold) {
      out.is_trap[c] = true;
      ++out.num_traps;
    }
  }
  return out;
}

}  // namespace

PhaseAnalysisResult analyze_phases(const std::vector<concolic::BBV>& bbvs,
                                   const PhaseOptions& options) {
  PhaseAnalysisResult result;
  if (bbvs.empty()) return result;

  const auto points = concolic::featurize_bbvs(bbvs, options.coverage_weight);
  const auto trap_threshold = static_cast<std::uint32_t>(std::max<double>(
      2.0, std::ceil(options.trap_run_fraction * double(bbvs.size()))));

  // Try k = kMinK .. kMaxK; keep the k with the most trap phases
  // (ties -> smallest k). The Rng restarts per k so results are stable
  // regardless of the sweep order.
  Clustering best;
  std::uint32_t best_k = 0;
  const std::uint32_t k_hi =
      std::min<std::uint32_t>(kMaxK, static_cast<std::uint32_t>(bbvs.size()));
  for (std::uint32_t k = kMinK; k <= k_hi; ++k) {
    Rng rng(options.kmeans_seed + k);
    Clustering c = cluster_with_k(points, k, trap_threshold, rng);
    result.work += c.work;
    if (best_k == 0 || c.num_traps > best.num_traps) {
      best = std::move(c);
      best_k = k;
    }
  }
  result.chosen_k = best_k;

  // Build phases from clusters.
  std::vector<Phase> phases(best.num_clusters);
  for (std::uint32_t c = 0; c < best.num_clusters; ++c) {
    phases[c].is_trap = best.is_trap[c];
    phases[c].longest_run = best.runs[c];
    phases[c].first_ticks = ~std::uint64_t{0};
  }
  for (std::uint32_t i = 0; i < bbvs.size(); ++i) {
    Phase& p = phases[best.assignment[i]];
    p.intervals.push_back(i);
    p.first_ticks = std::min(p.first_ticks, bbvs[i].start_ticks);
  }

  // Order phases by the gather time of their first BBV (paper: "the
  // execution order of phases is based on the time when the first BBV of
  // them is gathered").
  std::stable_sort(phases.begin(), phases.end(),
                   [](const Phase& a, const Phase& b) {
                     return a.first_ticks < b.first_ticks;
                   });
  std::vector<std::uint32_t> new_id_of_interval(bbvs.size(), 0);
  for (std::uint32_t p = 0; p < phases.size(); ++p) {
    phases[p].id = p;
    for (std::uint32_t i : phases[p].intervals) new_id_of_interval[i] = p;
    if (phases[p].is_trap) ++result.num_trap_phases;
  }
  // Each phase's cluster assignment is stamped at the gather time of its
  // first BBV, so the trace timeline shows phases in discovery order.
  for (const Phase& p : phases) {
    obs::trace_instant(obs::Category::kPhase, ids().ev_cluster, p.first_ticks,
                       p.id, ids().arg_phase, p.intervals.size(),
                       ids().arg_intervals);
    if (p.is_trap)
      obs::trace_instant(obs::Category::kPhase, ids().ev_trap, p.first_ticks,
                         p.id, ids().arg_phase, p.longest_run, ids().arg_run);
  }
  result.phases = std::move(phases);
  result.interval_phase = std::move(new_id_of_interval);
  return result;
}

std::uint32_t phase_of_ticks(const PhaseAnalysisResult& analysis,
                             const std::vector<concolic::BBV>& bbvs,
                             std::uint64_t ticks) {
  for (std::uint32_t i = 0; i < bbvs.size(); ++i) {
    if (ticks >= bbvs[i].start_ticks && ticks < bbvs[i].end_ticks)
      return analysis.interval_phase[i];
  }
  return analysis.interval_phase.empty() ? 0 : analysis.interval_phase.back();
}

}  // namespace pbse::phase
