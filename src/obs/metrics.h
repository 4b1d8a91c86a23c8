// Metrics: the engine's interned-id counter and histogram registry.
//
// Every counter/histogram/trace-event name is interned once into a
// process-wide registry (name -> MetricId); hot paths then update
// vector-indexed slots by id — no string hashing or map lookup per
// increment. `Stats` (support/stats.h) is a thin string-keyed facade over a
// per-campaign MetricStore, so existing `stats.get("solver.queries")` /
// `Stats::merge` call sites keep working unchanged while the VM/solver hot
// loops pay only an indexed add.
//
// Histograms are log2-bucketed (bucket 0 holds the value 0, bucket b holds
// values in [2^(b-1), 2^b)) — the right shape for long-tailed quantities
// like solver query latency, states per phase, and BBV interval length.
//
// This module sits at the very bottom of the dependency stack (std only):
// support/ depends on obs/, never the reverse.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pbse::obs {

using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = ~MetricId{0};

/// Interns `name`, returning its stable process-wide id (thread-safe,
/// idempotent). Intern once — at namespace scope or in a function-local
/// static — and reuse the id on the hot path.
MetricId intern_metric(std::string_view name);

/// The id of an already-interned name, or kInvalidMetric (never interns).
MetricId find_metric(std::string_view name);

/// Name of an interned id. The reference stays valid for the process
/// lifetime (the registry only grows).
const std::string& metric_name(MetricId id);

/// Number of names interned so far.
std::size_t metric_count();

/// Log2-bucketed histogram of unsigned values.
class Histogram {
 public:
  /// Bucket 0: value 0. Bucket b in [1, 64]: values in [2^(b-1), 2^b).
  static constexpr unsigned kBuckets = 65;

  void observe(std::uint64_t value) {
    const unsigned b = bucket_of(value);
    ++buckets_[b];
    ++count_;
    sum_ += value;
    if (value > max_) max_ = value;
    if (value < min_) min_ = value;
  }

  void merge(const Histogram& other) {
    for (unsigned b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
    if (other.min_ < min_) min_ = other.min_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return count_ == 0 ? 0 : max_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t bucket(unsigned b) const { return buckets_[b]; }

  /// Upper bound of the bucket containing the p-quantile (p in [0, 1]) —
  /// an over-approximation within one power of two.
  std::uint64_t percentile(double p) const;

  /// Wholesale state replacement, for snapshot restore (src/serialize).
  /// `min` must be the sentinel ~0 when `count` is 0 (the observe() rep).
  void set_raw(const std::array<std::uint64_t, kBuckets>& buckets,
               std::uint64_t count, std::uint64_t sum, std::uint64_t max,
               std::uint64_t min) {
    buckets_ = buckets;
    count_ = count;
    sum_ = sum;
    max_ = max;
    min_ = min;
  }
  /// Raw bucket array (snapshot side of set_raw).
  const std::array<std::uint64_t, kBuckets>& raw_buckets() const {
    return buckets_;
  }
  std::uint64_t raw_max() const { return max_; }
  std::uint64_t raw_min() const { return min_; }

  static unsigned bucket_of(std::uint64_t value) {
    unsigned b = 0;
    while (value != 0) {
      ++b;
      value >>= 1;
    }
    return b;
  }
  /// Largest value falling in bucket `b`.
  static std::uint64_t bucket_upper(unsigned b) {
    if (b == 0) return 0;
    if (b >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
};

/// Per-campaign metric storage: counters and histograms indexed by the
/// global MetricId. Not thread-safe — same ownership discipline as Stats
/// (one campaign, one thread; merge after joining).
class MetricStore {
 public:
  MetricStore() = default;
  MetricStore(MetricStore&&) = default;
  MetricStore& operator=(MetricStore&&) = default;
  // Deep-copyable: Stats gets copied into CampaignOutcome by value.
  MetricStore(const MetricStore& other) { *this = other; }
  MetricStore& operator=(const MetricStore& other) {
    if (this == &other) return *this;
    counters_ = other.counters_;
    hists_.clear();
    hists_.resize(other.hists_.size());
    for (std::size_t i = 0; i < other.hists_.size(); ++i)
      if (other.hists_[i] != nullptr)
        hists_[i] = std::make_unique<Histogram>(*other.hists_[i]);
    return *this;
  }

  void add(MetricId id, std::uint64_t n = 1) {
    if (id >= counters_.size()) counters_.resize(id + 1, 0);
    counters_[id] += n;
  }

  void observe(MetricId id, std::uint64_t value) {
    if (id >= hists_.size()) hists_.resize(id + 1);
    if (hists_[id] == nullptr) hists_[id] = std::make_unique<Histogram>();
    hists_[id]->observe(value);
  }

  std::uint64_t counter(MetricId id) const {
    return id < counters_.size() ? counters_[id] : 0;
  }

  /// nullptr when the id was never observed into.
  const Histogram* histogram(MetricId id) const {
    return id < hists_.size() ? hists_[id].get() : nullptr;
  }

  /// Histogram slot for `id`, created empty if absent — the restore-side
  /// counterpart of visit_histograms (src/serialize).
  Histogram& mutable_histogram(MetricId id) {
    if (id >= hists_.size()) hists_.resize(id + 1);
    if (hists_[id] == nullptr) hists_[id] = std::make_unique<Histogram>();
    return *hists_[id];
  }

  void merge(const MetricStore& other);
  void clear() {
    counters_.clear();
    hists_.clear();
  }

  /// Calls f(id, value) for every nonzero counter, in id (interning) order.
  template <typename F>
  void visit_counters(F&& f) const {
    for (MetricId id = 0; id < counters_.size(); ++id)
      if (counters_[id] != 0) f(id, counters_[id]);
  }

  /// Calls f(id, histogram) for every histogram, in id order.
  template <typename F>
  void visit_histograms(F&& f) const {
    for (MetricId id = 0; id < hists_.size(); ++id)
      if (hists_[id] != nullptr) f(id, *hists_[id]);
  }

 private:
  std::vector<std::uint64_t> counters_;
  std::vector<std::unique_ptr<Histogram>> hists_;
};

}  // namespace pbse::obs
