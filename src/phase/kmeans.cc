#include "phase/kmeans.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace pbse::phase {

double squared_distance(const std::vector<double>& a,
                        const std::vector<double>& b) {
  assert(a.size() == b.size());
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    d += diff * diff;
  }
  return d;
}

namespace {

/// Copies each full group of four centroids, 4q..4q+3, into
/// packed[q * 4 * dims + 4 * d + j] (centroid 4q + j, dimension d), so that
/// squared_distance4() reads the four values of a dimension together.
void pack_quads(const std::vector<std::vector<double>>& centroids,
                std::size_t dims, std::vector<double>& packed) {
  for (std::size_t c = 0; c < centroids.size() / 4 * 4; ++c)
    for (std::size_t d = 0; d < dims; ++d)
      packed[c / 4 * 4 * dims + 4 * d + c % 4] = centroids[c][d];
}

/// Squared distances from `p` to four packed centroids (see pack_quads()).
/// Each has its own accumulator and adds the same terms in the same order
/// as squared_distance(), so out[j] equals squared_distance(p, centroid j)
/// bit for bit; the four sums only run side by side.
void squared_distance4(const std::vector<double>& p, const double* quad,
                       double out[4]) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::size_t d = 0; d < p.size(); ++d) {
    const double x = p[d];
    const double* c = quad + 4 * d;
    const double d0 = x - c[0];
    const double d1 = x - c[1];
    const double d2 = x - c[2];
    const double d3 = x - c[3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

}  // namespace

KMeansResult kmeans(const std::vector<std::vector<double>>& points,
                    std::uint32_t k, Rng& rng, std::uint32_t max_iters) {
  KMeansResult result;
  if (points.empty() || k == 0) return result;
  k = std::min<std::uint32_t>(k, static_cast<std::uint32_t>(points.size()));
  const std::size_t dims = points[0].size();

  // k-means++ seeding.
  std::vector<std::vector<double>> centroids;
  centroids.push_back(points[rng.below(points.size())]);
  std::uint64_t work = 0;
  std::vector<double> min_d2(points.size(),
                             std::numeric_limits<double>::infinity());
  while (centroids.size() < k) {
    double total = 0;
    work += points.size();
    for (std::size_t i = 0; i < points.size(); ++i) {
      min_d2[i] = std::min(min_d2[i],
                           squared_distance(points[i], centroids.back()));
      total += min_d2[i];
    }
    if (total <= 0) break;  // all remaining points coincide with centroids
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
  const std::size_t quads = centroids.size() / 4;
  std::vector<double> packed(quads * 4 * dims);
  for (std::uint32_t iter = 0; iter < max_iters; ++iter) {
    bool changed = false;
    // Assign: centroids 4q..4q+3 four at a time, the rest one by one, each
    // compared in index order, so ties break as in a plain loop.
    work += points.size() * centroids.size();
    pack_quads(centroids, dims, packed);
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::uint32_t best_c = 0;
      const auto consider = [&](double d, std::size_t c) {
        if (d < best) {
          best = d;
          best_c = static_cast<std::uint32_t>(c);
        }
      };
      for (std::size_t q = 0; q < quads; ++q) {
        double d[4];
        squared_distance4(points[i], packed.data() + q * 4 * dims, d);
        for (std::size_t j = 0; j < 4; ++j) consider(d[j], 4 * q + j);
      }
      for (std::size_t c = 4 * quads; c < centroids.size(); ++c)
        consider(squared_distance(points[i], centroids[c]), c);
      if (assignment[i] != best_c) {
        assignment[i] = best_c;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    // Update.
    std::vector<std::vector<double>> sums(centroids.size(),
                                          std::vector<double>(dims, 0.0));
    std::vector<std::uint32_t> counts(centroids.size(), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      ++counts[assignment[i]];
      for (std::size_t d = 0; d < dims; ++d)
        sums[assignment[i]][d] += points[i][d];
    }
    for (std::uint32_t c = 0; c < centroids.size(); ++c) {
      if (counts[c] == 0) continue;  // empty clusters keep their centroid
      for (std::size_t d = 0; d < dims; ++d)
        centroids[c][d] = sums[c][d] / counts[c];
    }
  }

  // Compact away empty clusters.
  std::vector<std::uint32_t> used_count(centroids.size(), 0);
  for (std::uint32_t c : assignment) ++used_count[c];
  std::vector<std::uint32_t> remap(centroids.size(), 0);
  std::uint32_t next = 0;
  for (std::uint32_t c = 0; c < centroids.size(); ++c)
    if (used_count[c] > 0) remap[c] = next++;
  KMeansResult out;
  out.assignment.resize(points.size());
  out.centroids.reserve(next);
  for (std::uint32_t c = 0; c < centroids.size(); ++c)
    if (used_count[c] > 0) out.centroids.push_back(std::move(centroids[c]));
  for (std::size_t i = 0; i < points.size(); ++i) {
    out.assignment[i] = remap[assignment[i]];
    out.inertia += squared_distance(points[i], out.centroids[out.assignment[i]]);
  }
  out.work = work;
  return out;
}

}  // namespace pbse::phase
