#include "solver/cache.h"

#include <algorithm>

namespace pbse {

namespace {

/// Collects the distinct arrays read by `constraints`.
std::vector<ArrayRef> constraint_arrays(
    const std::vector<ExprRef>& constraints) {
  std::vector<ArrayRef> arrays;
  for (const auto& c : constraints) {
    for (const auto& r : cached_reads(c)) {
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

bool models_equal(const ModelBytes& a, const ModelBytes& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first.get() != b[i].first.get() || a[i].second != b[i].second)
      return false;
  }
  return true;
}

namespace cex_detail {

void bounded_add_model(std::vector<ModelBytes>& list, const ModelBytes& model,
                       std::size_t max_per_key) {
  for (const auto& existing : list)
    if (models_equal(existing, model)) return;  // bounded: max_per_key checks
  list.push_back(model);
  if (list.size() > max_per_key) list.erase(list.begin());
}

void bounded_add_core(std::vector<std::vector<std::uint64_t>>& list,
                      const std::vector<std::uint64_t>& core,
                      std::size_t max_per_key) {
  for (const auto& existing : list)
    if (existing == core) return;
  // Prefer retaining SMALL cores: a small core subsumes more supersets.
  // Insert keeping the list sorted by size (stable), evict the largest.
  const auto pos = std::upper_bound(
      list.begin(), list.end(), core,
      [](const std::vector<std::uint64_t>& a,
         const std::vector<std::uint64_t>& b) { return a.size() < b.size(); });
  list.insert(pos, core);
  if (list.size() > max_per_key) list.pop_back();
}

}  // namespace cex_detail

// --- CexStore ---------------------------------------------------------------

void CexStore::add_model(std::uint64_t key, const ModelBytes& model) {
  cex_detail::bounded_add_model(models_[key], model, kMaxPerKey);
}

void CexStore::add_unsat_core(std::uint64_t key,
                              const std::vector<std::uint64_t>& core) {
  cex_detail::bounded_add_core(unsat_[key], core, kMaxPerKey);
}

std::size_t CexStore::num_models() const {
  std::size_t n = 0;
  for (const auto& [k, v] : models_) n += v.size();
  return n;
}

std::size_t CexStore::num_cores() const {
  std::size_t n = 0;
  for (const auto& [k, v] : unsat_) n += v.size();
  return n;
}

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

std::vector<ModelBytes> ShardedQueryCache::partition_models(
    std::uint64_t key, const std::vector<ExprRef>& constraints) {
  Shard& shard = shard_for(key);
  std::vector<ModelBytes> out;
  {
    std::lock_guard<std::mutex> lock(lock_counted(shard.mu), std::adopt_lock);
    const auto it = shard.models.find(key);
    if (it == shard.models.end()) return out;
    out = it->second;  // copy out; remap without the lock
  }
  const std::vector<ArrayRef> arrays = constraint_arrays(constraints);
  for (auto& model : out) remap_model(model, arrays);
  return out;
}

void ShardedQueryCache::publish_model(std::uint64_t key,
                                      const ModelBytes& model) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(lock_counted(shard.mu), std::adopt_lock);
  cex_detail::bounded_add_model(shard.models[key], model, CexStore::kMaxPerKey);
}

std::vector<std::vector<std::uint64_t>> ShardedQueryCache::partition_unsat_cores(
    std::uint64_t key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(lock_counted(shard.mu), std::adopt_lock);
  const auto it = shard.cores.find(key);
  return it == shard.cores.end() ? std::vector<std::vector<std::uint64_t>>{}
                                 : it->second;
}

void ShardedQueryCache::publish_unsat_core(
    std::uint64_t key, const std::vector<std::uint64_t>& core) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(lock_counted(shard.mu), std::adopt_lock);
  cex_detail::bounded_add_core(shard.cores[key], core, CexStore::kMaxPerKey);
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
    shard->models.clear();
    shard->cores.clear();
  }
}

}  // namespace pbse
