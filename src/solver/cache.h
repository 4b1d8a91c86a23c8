// Exact-match query caches (KLEE's counterexample-cache analog, exact
// case only).
//
// Key = order-insensitive constraint-set hash combined with the query hash.
// SAT entries store the satisfying model and are re-verified on hit, so a
// hash collision can only cost a cache miss, never a wrong SAT answer.
// UNSAT entries are trusted by hash (a 64-bit collision is accepted risk).
//
// Two layers:
//  * QueryCache — the per-solver L1. Lock-free, touched on every query.
//  * ShardedQueryCache — an optional shared L2 for parallel campaigns:
//    N mutex-guarded shards keyed by the expression hash, safe to hit from
//    many solver instances concurrently. Expression hashes are content
//    based (arrays hash by name+size, never by pointer), so campaigns that
//    intern expressions on different threads still produce colliding keys
//    for structurally identical queries — that is what makes cross-campaign
//    reuse possible at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "expr/evaluator.h"
#include "expr/expr.h"

namespace pbse {

enum class SolverResult { kSat, kUnsat, kUnknown };

/// A satisfying assignment stored per array (the persistable form of an
/// Assignment; ArrayRefs keep the arrays alive).
using ModelBytes = std::vector<std::pair<ArrayRef, std::vector<std::uint8_t>>>;

/// Exact-match solver cache.
class QueryCache {
 public:
  struct Entry {
    SolverResult result = SolverResult::kUnknown;
    // Model stored per array (only for SAT entries).
    ModelBytes model;
  };

  /// Looks up a query. On a SAT hit the stored model is re-checked against
  /// `constraints` (which must already include the query); an invalidated
  /// entry counts as a miss.
  const Entry* lookup(std::uint64_t key,
                      const std::vector<ExprRef>& constraints) const {
    auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    const Entry& e = it->second;
    if (e.result == SolverResult::kSat) {
      Assignment a;
      for (const auto& [array, bytes] : e.model) a.set(array, bytes);
      for (const auto& c : constraints)
        if (!evaluate_bool(c, a)) return nullptr;
    }
    return &e;
  }

  void insert(std::uint64_t key, Entry entry) {
    entries_[key] = std::move(entry);
  }

  std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

  /// Raw entry map, for snapshot (src/serialize). Restore uses insert().
  const std::unordered_map<std::uint64_t, Entry>& entries() const {
    return entries_;
  }

 private:
  std::unordered_map<std::uint64_t, Entry> entries_;
};

/// Thread-safe sharded query cache shared between concurrent campaigns.
///
/// Lookup semantics differ from the L1 in one way: a SAT entry's model was
/// produced by whichever campaign solved the query first, so its ArrayRefs
/// may belong to a *different* campaign's (structurally identical) arrays.
/// lookup() therefore remaps the stored model onto the arrays actually
/// read by `constraints` (matched by name+size) before re-verifying; a
/// model that no longer verifies counts as a miss. UNSAT entries are
/// trusted by key, exactly like the L1.
class ShardedQueryCache {
 public:
  explicit ShardedQueryCache(unsigned num_shards = 16);

  /// Thread-safe lookup. Returns a self-contained copy of the entry with
  /// its model remapped onto the arrays of `constraints`; nullopt on miss
  /// or failed SAT re-verification.
  std::optional<QueryCache::Entry> lookup(
      std::uint64_t key, const std::vector<ExprRef>& constraints);

  /// Thread-safe insert (last writer wins; entries are interchangeable
  /// because every SAT model is re-verified on hit).
  void insert(std::uint64_t key, QueryCache::Entry entry);

  /// Monotonic counters, exported into campaign stats by the drivers.
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Lock acquisitions that had to wait (shard contention).
    std::uint64_t contention = 0;
  };
  Counters counters() const;

  std::size_t size() const;
  unsigned num_shards() const { return static_cast<unsigned>(shards_.size()); }
  void clear();

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, QueryCache::Entry> entries;
  };

  Shard& shard_for(std::uint64_t key) {
    // The low bits feed the unordered_map buckets; pick shards from the
    // high bits so the two partitions stay independent.
    return *shards_[(key >> 48) % shards_.size()];
  }

  std::mutex& lock_counted(std::mutex& mu) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> contention_{0};
};

}  // namespace pbse
