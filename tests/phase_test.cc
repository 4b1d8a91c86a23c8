// Phase analysis: k-means determinism and quality, trap-phase detection,
// k selection, ordering, and the tick->phase mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "phase/kmeans.h"
#include "phase/phase_analysis.h"

namespace pbse::phase {
namespace {

std::vector<std::vector<double>> blobs(int per_cluster, int clusters,
                                       double spread, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> points;
  for (int c = 0; c < clusters; ++c)
    for (int i = 0; i < per_cluster; ++i)
      points.push_back({c * 10.0 + spread * rng.uniform(),
                        c * -5.0 + spread * rng.uniform()});
  return points;
}

TEST(KMeans, SeparatesWellSeparatedBlobs) {
  const auto points = blobs(20, 3, 0.5, 1);
  Rng rng(2);
  const auto result = kmeans(points, 3, rng);
  ASSERT_EQ(result.centroids.size(), 3u);
  // All points of one blob share a cluster.
  for (int c = 0; c < 3; ++c)
    for (int i = 1; i < 20; ++i)
      EXPECT_EQ(result.assignment[c * 20 + i], result.assignment[c * 20]);
  EXPECT_LT(result.inertia, 20.0);
}

TEST(KMeans, DeterministicUnderSameRng) {
  const auto points = blobs(15, 4, 2.0, 3);
  Rng rng_a(42), rng_b(42);
  const auto a = kmeans(points, 4, rng_a);
  const auto b = kmeans(points, 4, rng_b);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.inertia, b.inertia);
}

TEST(KMeans, CompactsEmptyClusters) {
  // 3 identical points can't support 5 clusters.
  std::vector<std::vector<double>> points(3, std::vector<double>{1.0, 2.0});
  Rng rng(1);
  const auto result = kmeans(points, 5, rng);
  EXPECT_EQ(result.centroids.size(), 1u);
  for (const auto a : result.assignment) EXPECT_EQ(a, 0u);
}

TEST(KMeans, ReportsWork) {
  const auto points = blobs(10, 2, 1.0, 5);
  Rng rng(1);
  EXPECT_GT(kmeans(points, 2, rng).work, 0u);
}

/// Lloyd's loop as kmeans() is specified, one squared_distance() call per
/// point and centroid: the reference kmeans() must match bit for bit.
KMeansResult reference_kmeans(const std::vector<std::vector<double>>& points,
                              std::uint32_t k, Rng& rng) {
  KMeansResult out;
  k = std::min<std::uint32_t>(k, static_cast<std::uint32_t>(points.size()));
  const std::size_t dims = points[0].size();
  std::vector<std::vector<double>> centroids{points[rng.below(points.size())]};
  std::vector<double> min_d2(points.size(),
                             std::numeric_limits<double>::infinity());
  while (centroids.size() < k) {
    double total = 0;
    out.work += points.size();
    for (std::size_t i = 0; i < points.size(); ++i) {
      min_d2[i] = std::min(min_d2[i],
                           squared_distance(points[i], centroids.back()));
      total += min_d2[i];
    }
    if (total <= 0) break;
    double pick = rng.uniform() * total;
    std::size_t chosen = points.size() - 1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      pick -= min_d2[i];
      if (pick <= 0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[chosen]);
  }
  std::vector<std::uint32_t> assignment(points.size(), 0);
  for (std::uint32_t iter = 0; iter < 64; ++iter) {  // kmeans()'s max_iters
    bool changed = false;
    out.work += points.size() * centroids.size();
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::uint32_t best_c = 0;
      for (std::uint32_t c = 0; c < centroids.size(); ++c) {
        const double d = squared_distance(points[i], centroids[c]);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      changed |= assignment[i] != best_c;
      assignment[i] = best_c;
    }
    if (!changed && iter > 0) break;
    std::vector<std::vector<double>> sums(centroids.size(),
                                          std::vector<double>(dims, 0.0));
    std::vector<std::uint32_t> counts(centroids.size(), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      ++counts[assignment[i]];
      for (std::size_t d = 0; d < dims; ++d)
        sums[assignment[i]][d] += points[i][d];
    }
    for (std::uint32_t c = 0; c < centroids.size(); ++c)
      if (counts[c] > 0)
        for (std::size_t d = 0; d < dims; ++d)
          centroids[c][d] = sums[c][d] / counts[c];
  }
  std::vector<bool> used(centroids.size(), false);
  for (std::uint32_t c : assignment) used[c] = true;
  std::vector<std::uint32_t> remap(centroids.size(), 0);
  for (std::uint32_t c = 0; c < centroids.size(); ++c)
    if (used[c]) {
      remap[c] = static_cast<std::uint32_t>(out.centroids.size());
      out.centroids.push_back(centroids[c]);
    }
  for (std::size_t i = 0; i < points.size(); ++i) {
    out.assignment.push_back(remap[assignment[i]]);
    out.inertia +=
        squared_distance(points[i], out.centroids[out.assignment.back()]);
  }
  return out;
}

/// BBV-shaped points: a few visited blocks each, at frequencies from a
/// small set, as intervals of the same loops repeat them, and a quarter of
/// them equal to their predecessor. Few distinct values make many
/// distances ties in exact arithmetic whose floating-point sums differ only
/// by the order of their terms, so a kernel that adds the terms of a
/// distance in another order than squared_distance() moves assignments on
/// these points.
std::vector<std::vector<double>> bbv_points(std::size_t n, std::size_t dims,
                                            std::uint64_t seed) {
  constexpr double kFrequencies[] = {0.1, 0.3, 0.7};
  Rng rng(seed);
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < n; ++i) {
    if (!points.empty() && rng.below(4) == 0) {
      points.push_back(points.back());
      continue;
    }
    std::vector<double> p(dims, 0.0);
    for (int v = 0; v < 4; ++v) p[rng.below(dims)] = kFrequencies[rng.below(3)];
    points.push_back(std::move(p));
  }
  return points;
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(KMeans, MatchesReferenceBitForBit) {
  for (const std::size_t dims : {1, 2, 5, 33, 128, 300}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const auto points = bbv_points(96, dims, 31 * seed + dims);
      for (std::uint32_t k = 1; k <= 20; ++k) {
        SCOPED_TRACE("dims " + std::to_string(dims) + ", seed " +
                     std::to_string(seed) + ", k " + std::to_string(k));
        Rng rng_a(100 + k), rng_b(100 + k);
        const KMeansResult got = kmeans(points, k, rng_a);
        const KMeansResult want = reference_kmeans(points, k, rng_b);
        ASSERT_EQ(got.assignment, want.assignment);
        ASSERT_EQ(got.centroids.size(), want.centroids.size());
        for (std::size_t c = 0; c < want.centroids.size(); ++c)
          for (std::size_t d = 0; d < dims; ++d)
            ASSERT_EQ(bits_of(got.centroids[c][d]),
                      bits_of(want.centroids[c][d]))
                << "centroid " << c << ", dimension " << d;
        EXPECT_EQ(bits_of(got.inertia), bits_of(want.inertia));
        EXPECT_EQ(got.work, want.work);
      }
    }
  }
}

concolic::BBV make_bbv(std::uint64_t start, std::uint64_t end,
                       std::uint32_t dominant_bb, double coverage) {
  concolic::BBV v;
  v.start_ticks = start;
  v.end_ticks = end;
  v.counts[dominant_bb] = 90;
  v.counts[dominant_bb + 1] = 10;
  v.coverage = coverage;
  return v;
}

/// Three temporal regimes: blocks 0-, 50-, 90- each dominating a span.
/// Coverage is step-shaped (jumps at phase entry, flat inside) — the
/// realistic profile: a phase discovers its blocks quickly, then repeats.
std::vector<concolic::BBV> three_phase_trace() {
  std::vector<concolic::BBV> bbvs;
  std::uint64_t t = 0;
  for (int i = 0; i < 20; ++i, t += 100)
    bbvs.push_back(make_bbv(t, t + 100, 0, 0.10));
  for (int i = 0; i < 30; ++i, t += 100)
    bbvs.push_back(make_bbv(t, t + 100, 50, 0.30));
  for (int i = 0; i < 25; ++i, t += 100)
    bbvs.push_back(make_bbv(t, t + 100, 90, 0.50));
  return bbvs;
}

TEST(PhaseAnalysis, FindsTemporalRegimesAsTrapPhases) {
  const auto analysis = analyze_phases(three_phase_trace());
  EXPECT_EQ(analysis.phases.size(), 3u);
  EXPECT_EQ(analysis.num_trap_phases, 3u);
  // Ordered by first-BBV time.
  for (std::size_t i = 1; i < analysis.phases.size(); ++i)
    EXPECT_LT(analysis.phases[i - 1].first_ticks,
              analysis.phases[i].first_ticks);
  // Contiguity: interval assignment is a block pattern AABBCC.
  const auto& ip = analysis.interval_phase;
  for (std::size_t i = 1; i < ip.size(); ++i)
    EXPECT_LE(ip[i - 1], ip[i]) << "phases must be temporally contiguous";
}

TEST(PhaseAnalysis, TrapThresholdFiltersShortRuns) {
  auto bbvs = three_phase_trace();
  // A 2-interval blip of a fourth regime: too short to be a trap at 5%.
  bbvs.insert(bbvs.begin() + 20, make_bbv(1900, 1950, 200, 0.2));
  bbvs.insert(bbvs.begin() + 21, make_bbv(1950, 2000, 200, 0.2));
  PhaseOptions options;
  options.trap_run_fraction = 0.10;  // N ~ 8 intervals
  const auto analysis = analyze_phases(bbvs, options);
  std::uint32_t short_phase_traps = 0;
  for (const auto& p : analysis.phases)
    if (p.intervals.size() <= 2 && p.is_trap) ++short_phase_traps;
  EXPECT_EQ(short_phase_traps, 0u);
}

TEST(PhaseAnalysis, CoverageElementSeparatesRepeatedCode) {
  // Two temporally distant regimes executing the SAME blocks, with a
  // different regime between them. BBV-only merges the twins into one
  // phase; the coverage element splits them (the paper's Fig 4 mechanism).
  std::vector<concolic::BBV> bbvs;
  std::uint64_t t = 0;
  for (int i = 0; i < 15; ++i, t += 100)
    bbvs.push_back(make_bbv(t, t + 100, 0, 0.10));
  for (int i = 0; i < 15; ++i, t += 100)
    bbvs.push_back(make_bbv(t, t + 100, 50, 0.20));
  for (int i = 0; i < 15; ++i, t += 100)
    bbvs.push_back(make_bbv(t, t + 100, 0, 0.40));  // same code as phase 1

  PhaseOptions without;
  without.coverage_weight = 0.0;
  PhaseOptions with;
  with.coverage_weight = 4.0;
  const auto a = analyze_phases(bbvs, without);
  const auto b = analyze_phases(bbvs, with);
  EXPECT_LT(a.num_trap_phases, b.num_trap_phases);
  EXPECT_EQ(b.num_trap_phases, 3u);
}

TEST(PhaseAnalysis, PhaseOfTicksMapsIntoIntervals) {
  const auto bbvs = three_phase_trace();
  const auto analysis = analyze_phases(bbvs);
  EXPECT_EQ(phase_of_ticks(analysis, bbvs, 50),
            analysis.interval_phase.front());
  EXPECT_EQ(phase_of_ticks(analysis, bbvs, 2100),
            analysis.interval_phase[21]);
  // Beyond the end falls into the last interval's phase.
  EXPECT_EQ(phase_of_ticks(analysis, bbvs, 1'000'000),
            analysis.interval_phase.back());
}

TEST(PhaseAnalysis, EmptyInputYieldsNoPhases) {
  const auto analysis = analyze_phases({});
  EXPECT_TRUE(analysis.phases.empty());
  EXPECT_EQ(analysis.num_trap_phases, 0u);
}

TEST(PhaseAnalysis, KSelectionPrefersMoreTraps) {
  const auto analysis = analyze_phases(three_phase_trace());
  EXPECT_GE(analysis.chosen_k, 3u)
      << "k=1/2 find fewer traps than k=3 here, so selection must not "
         "settle below 3";
}

}  // namespace
}  // namespace pbse::phase
