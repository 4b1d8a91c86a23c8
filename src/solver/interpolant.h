// Barren interpolants: weakened constraint summaries that prove an incoming
// execution state redundant at basic-block entry without a solver query
// (the TracerX "half interpolation" direction — see DESIGN.md §10).
//
// Entries are keyed by GLOBAL BASIC BLOCK and stored as sorted mixed
// constraint hashes (ConstraintSet::sorted_hashes()), so subsumption is one
// std::includes per candidate. When a state dies with its exploration
// exhausted, the path condition it held ON ENTRY to each recently-entered
// block (an entry-time prefix of its append-only constraint list — a
// weakening of the full death-time condition) is filed under that block. A
// later state whose constraint set is a SUPERSET of a filed prefix
// syntactically implies it: it is attempting a restriction of a suffix that
// already went nowhere. This weakening is heuristic (an entry prefix, not a
// weakest precondition — the dead state's memory is not part of the key),
// so the executor additionally requires the probed state to have stalled on
// coverage before it may be killed, and the subsumption ablation gates the
// net effect on covered blocks.
//
// The table is per-campaign (owned by the Executor; single-threaded,
// deterministic) and bounded: per-key lists via bounded_add_core (small
// summaries first — they subsume the most supersets), and the key count by
// a deterministic wholesale clear, the same policy as the solver's domain
// memo.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace pbse {

/// Bounded, deduplicated insertion into one key's summary list, kept sorted
/// ascending by size (stable); evicts the largest.
inline void bounded_add_core(std::vector<std::vector<std::uint64_t>>& list,
                             const std::vector<std::uint64_t>& core,
                             std::size_t max_per_key) {
  for (const auto& existing : list)
    if (existing == core) return;
  const auto pos = std::upper_bound(
      list.begin(), list.end(), core,
      [](const std::vector<std::uint64_t>& a,
         const std::vector<std::uint64_t>& b) { return a.size() < b.size(); });
  list.insert(pos, core);
  if (list.size() > max_per_key) list.pop_back();
}

class InterpolantTable {
 public:
  /// Per-key summary bound.
  static constexpr std::size_t kMaxPerKey = 8;
  /// Keys retained before a deterministic wholesale clear.
  static constexpr std::size_t kMaxKeys = 1 << 16;

  /// Files a barren entry-prefix summary (sorted mixed hashes) under the
  /// global block `location` the dead state entered holding it.
  void add_barren(std::uint64_t location,
                  const std::vector<std::uint64_t>& hashes) {
    if (barren_.size() >= kMaxKeys && barren_.find(location) == barren_.end())
      barren_.clear();  // deterministic wholesale reset, like the domain memo
    bounded_add_core(barren_[location], hashes, kMaxPerKey);
  }

  /// True iff a barren summary at `location` is a subset of `hashes` (which
  /// must be ascending).
  bool barren_subsumes(std::uint64_t location,
                       const std::vector<std::uint64_t>& hashes) const {
    const auto it = barren_.find(location);
    if (it == barren_.end()) return false;
    for (const auto& core : it->second) {
      if (core.size() > hashes.size()) continue;
      if (std::includes(hashes.begin(), hashes.end(), core.begin(),
                        core.end()))
        return true;
    }
    return false;
  }

  std::size_t num_barren_keys() const { return barren_.size(); }
  void clear() { barren_.clear(); }

  using Map =
      std::unordered_map<std::uint64_t, std::vector<std::vector<std::uint64_t>>>;

  /// Raw map, for snapshot/restore (src/serialize). Restore writes per-key
  /// lists verbatim — list order is eviction state, and the kMaxKeys
  /// wholesale-clear trigger depends on exact key counts.
  const Map& raw_barren() const { return barren_; }
  std::vector<std::vector<std::uint64_t>>& mutable_barren(std::uint64_t key) {
    return barren_[key];
  }

 private:
  Map barren_;
};

}  // namespace pbse
