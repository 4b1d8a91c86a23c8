// Query caches (KLEE's counterexample-cache analog).
//
// Three reuse granularities:
//
//  * Exact match (QueryCache / ShardedQueryCache): key = order-insensitive
//    constraint-set hash combined with the query hash. SAT entries store
//    the satisfying model and are re-verified on hit, so a hash collision
//    can only cost a cache miss, never a wrong SAT answer. UNSAT entries
//    are trusted by hash (a 64-bit collision is accepted risk).
//
//  * Partition-keyed partial results (CexStore, and the partition side of
//    ShardedQueryCache): cached models and UNSAT cores filed under the
//    stable region id of every independence partition the producing query
//    touched (see constraint_set.h). A later query over an overlapping
//    partition can replay a cached model (a model that satisfies the
//    sliced query is a SAT answer without search — KLEE's
//    CexCachingSolver superset case) or match a cached UNSAT core (a
//    subset of the current constraint list that is UNSAT proves the whole
//    list UNSAT). Replayed models are ALWAYS re-evaluated by the solver
//    (charged to the virtual clock); UNSAT cores are trusted by their
//    content hashes, the same accepted risk as exact UNSAT entries.
//
// Two layers:
//  * QueryCache + CexStore — the per-solver L1. Lock-free, touched on
//    every query.
//  * ShardedQueryCache — an optional shared L2 for parallel campaigns:
//    N mutex-guarded shards keyed by the expression hash, safe to hit from
//    many solver instances concurrently. Expression hashes are content
//    based (arrays hash by name+size, never by pointer), so campaigns that
//    intern expressions on different threads still produce colliding keys
//    for structurally identical queries — that is what makes cross-campaign
//    reuse possible at all. Partition hashes are content based for the
//    same reason, so campaigns share PARTIAL results, not just whole
//    queries.
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

/// Exact equality (same arrays by pointer, same bytes). Used for dedup in
/// the stores and by the solver to skip L2 candidates it already saw in L1
/// — with a single campaign both layers hold identical entries, and the
/// skip is what keeps shared-cache mode tick-identical to --no-share-cache
/// until a second campaign actually contributes foreign entries.
bool models_equal(const ModelBytes& a, const ModelBytes& b);

namespace cex_detail {
/// Bounded, deduplicated per-key insertion shared by the L1 CexStore and
/// the L2 shard maps. The solver's single-campaign tick parity (verbatim
/// L2 copies of L1 entries are skipped uncharged) requires the two layers
/// to hold entry-for-entry identical lists, so the dedup / ordering /
/// eviction policy must be ONE piece of code, not two that happen to
/// agree. Models: FIFO, evict oldest. Cores: sorted ascending by size
/// (small cores subsume more supersets), evict largest.
void bounded_add_model(std::vector<ModelBytes>& list, const ModelBytes& model,
                       std::size_t max_per_key);
void bounded_add_core(std::vector<std::vector<std::uint64_t>>& list,
                      const std::vector<std::uint64_t>& core,
                      std::size_t max_per_key);
}  // namespace cex_detail

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

/// Per-partition counterexample store: the solver's L1 for partial reuse.
/// Deterministic by construction — entries are bounded FIFO lists touched
/// by exactly one solver (one campaign, one thread).
class CexStore {
 public:
  /// Bound on models / cores retained per partition key. FIFO eviction:
  /// newest entries (latest path extensions) are the likeliest to replay.
  static constexpr std::size_t kMaxPerKey = 8;

  /// Cached satisfying models whose producing query touched `key`, oldest
  /// first. Null when none.
  const std::vector<ModelBytes>* models(std::uint64_t key) const {
    const auto it = models_.find(key);
    return it == models_.end() ? nullptr : &it->second;
  }
  void add_model(std::uint64_t key, const ModelBytes& model);

  /// Cached UNSAT cores (sorted mixed constraint hashes of a list proven
  /// UNSAT) whose slice touched `key`. Any superset of a core is UNSAT.
  const std::vector<std::vector<std::uint64_t>>* unsat_cores(
      std::uint64_t key) const {
    const auto it = unsat_.find(key);
    return it == unsat_.end() ? nullptr : &it->second;
  }
  void add_unsat_core(std::uint64_t key, const std::vector<std::uint64_t>& core);

  std::size_t num_models() const;
  std::size_t num_cores() const;
  void clear() {
    models_.clear();
    unsat_.clear();
  }

  /// Raw maps, for snapshot (src/serialize). Restore must preserve the
  /// per-key list ORDER exactly (FIFO position is eviction state), so it
  /// writes through these rather than re-adding through the bounded
  /// inserters.
  const std::unordered_map<std::uint64_t, std::vector<ModelBytes>>&
  raw_models() const {
    return models_;
  }
  const std::unordered_map<std::uint64_t,
                           std::vector<std::vector<std::uint64_t>>>&
  raw_cores() const {
    return unsat_;
  }
  std::vector<ModelBytes>& mutable_models(std::uint64_t key) {
    return models_[key];
  }
  std::vector<std::vector<std::uint64_t>>& mutable_cores(std::uint64_t key) {
    return unsat_[key];
  }

 private:
  std::unordered_map<std::uint64_t, std::vector<ModelBytes>> models_;
  std::unordered_map<std::uint64_t, std::vector<std::vector<std::uint64_t>>>
      unsat_;
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
///
/// Partition-keyed partial results (models / UNSAT cores) use the same
/// shards; partition_models() remaps like lookup() but does NOT verify —
/// the consuming solver replays candidates itself, charging the virtual
/// clock.
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

  /// Candidate models filed under partition `key`, remapped onto the
  /// arrays of `constraints` (unverified — callers replay and charge).
  std::vector<ModelBytes> partition_models(
      std::uint64_t key, const std::vector<ExprRef>& constraints);
  void publish_model(std::uint64_t key, const ModelBytes& model);

  /// UNSAT cores filed under partition `key` (content hashes; directly
  /// comparable across campaigns).
  std::vector<std::vector<std::uint64_t>> partition_unsat_cores(
      std::uint64_t key);
  void publish_unsat_core(std::uint64_t key,
                          const std::vector<std::uint64_t>& core);

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
    std::unordered_map<std::uint64_t, std::vector<ModelBytes>> models;
    std::unordered_map<std::uint64_t, std::vector<std::vector<std::uint64_t>>>
        cores;
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
