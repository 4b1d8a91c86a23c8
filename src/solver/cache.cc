#include "solver/cache.h"

#include "expr/tape.h"

namespace pbse {

namespace {

/// Collects the distinct arrays read by `constraints`.
std::vector<ArrayRef> constraint_arrays(
    const std::vector<ExprRef>& constraints) {
  std::vector<ArrayRef> arrays;
  for (const auto& c : constraints) {
    for (const auto& r : compiled(c).reads()) {
      bool seen = false;
      for (const auto& a : arrays) seen = seen || a.get() == r.array.get();
      if (!seen) arrays.push_back(r.array);
    }
  }
  return arrays;
}

/// Finds the unique array in `arrays` matching `wanted` by name+size, or
/// null when absent or ambiguous (two distinct arrays with the same
/// name+size — then only pointer identity is trustworthy).
ArrayRef match_by_shape(const std::vector<ArrayRef>& arrays,
                        const Array& wanted) {
  ArrayRef found;
  for (const auto& a : arrays) {
    if (a->name() != wanted.name() || a->size() != wanted.size()) continue;
    if (found != nullptr) return nullptr;  // ambiguous
    found = a;
  }
  return found;
}

/// Remaps every array of `model` onto the matching array of `arrays`
/// (produced-by-another-campaign case); arrays without a shape match are
/// kept as-is.
void remap_model(ModelBytes& model, const std::vector<ArrayRef>& arrays) {
  for (auto& [array, bytes] : model) {
    if (const ArrayRef local = match_by_shape(arrays, *array);
        local != nullptr && local.get() != array.get())
      array = local;
  }
}

}  // namespace

// --- ShardedQueryCache ------------------------------------------------------

ShardedQueryCache::ShardedQueryCache(unsigned num_shards) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (unsigned i = 0; i < num_shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

std::mutex& ShardedQueryCache::lock_counted(std::mutex& mu) const {
  if (!mu.try_lock()) {
    contention_.fetch_add(1, std::memory_order_relaxed);
    mu.lock();
  }
  return mu;
}

std::optional<QueryCache::Entry> ShardedQueryCache::lookup(
    std::uint64_t key, const std::vector<ExprRef>& constraints) {
  Shard& shard = shard_for(key);
  QueryCache::Entry entry;
  {
    std::lock_guard<std::mutex> lock(lock_counted(shard.mu), std::adopt_lock);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    entry = it->second;  // copy out; verification happens without the lock
  }

  if (entry.result == SolverResult::kSat) {
    // Remap the stored model onto this campaign's arrays. The producing
    // campaign interned its arrays separately, so pointer identity only
    // matches within the producing campaign; shape (name+size) is the
    // cross-campaign identity that also feeds the expression hash.
    const std::vector<ArrayRef> arrays = constraint_arrays(constraints);
    remap_model(entry.model, arrays);
    Assignment assignment;
    for (const auto& [array, bytes] : entry.model)
      assignment.set(array, bytes);
    for (const auto& c : constraints) {
      if (!evaluate_bool(c, assignment)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
    }
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

void ShardedQueryCache::insert(std::uint64_t key, QueryCache::Entry entry) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(lock_counted(shard.mu), std::adopt_lock);
  shard.entries[key] = std::move(entry);
}

ShardedQueryCache::Counters ShardedQueryCache::counters() const {
  Counters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.contention = contention_.load(std::memory_order_relaxed);
  return c;
}

std::size_t ShardedQueryCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(lock_counted(shard->mu), std::adopt_lock);
    n += shard->entries.size();
  }
  return n;
}

void ShardedQueryCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(lock_counted(shard->mu), std::adopt_lock);
    shard->entries.clear();
  }
}

}  // namespace pbse
