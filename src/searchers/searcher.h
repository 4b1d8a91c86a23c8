// State-selection strategies — the searchers the paper benchmarks KLEE
// with in Table I: dfs, bfs, random-state, random-path, covnew, md2u, and
// the default interleaved (random-path + covnew) searcher.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/rng.h"
#include "vm/executor.h"
#include "vm/state.h"

namespace pbse::search {

/// Strategy interface (KLEE's Searcher). The engine owns the states; the
/// searcher only tracks raw pointers it receives via update().
class Searcher {
 public:
  virtual ~Searcher() = default;

  /// Picks the next state to run. Precondition: !empty().
  virtual vm::ExecutionState* select() = 0;

  /// Informs the searcher of population changes. `current` is the state
  /// that just ran (may be in `removed`).
  virtual void update(vm::ExecutionState* current,
                      const std::vector<vm::ExecutionState*>& added,
                      const std::vector<vm::ExecutionState*>& removed) = 0;

  virtual bool empty() const = 0;
  virtual std::string name() const = 0;

  // --- Snapshot/restore (src/serialize) ----------------------------------
  // A searcher's observable behaviour depends on more than its membership
  // set: container ORDER (DFS/BFS/random-state selection), the execution
  // tree SHAPE including dead subtrees (random-path walks), and round-robin
  // cursors (interleaved). save_position captures all of it as a flat u64
  // stream; load_position rebuilds it on a freshly constructed searcher of
  // the same kind, resolving state ids through `states`. A restored
  // searcher must produce the exact selection sequence the saved one would
  // have (given the same restored Rng).

  /// Appends the searcher's full position to `out`.
  virtual void save_position(std::vector<std::uint64_t>& out) const = 0;

  /// Rebuilds the position from `words`, consuming entries at `pos`
  /// (advanced past the consumed prefix). `states` maps state id -> live
  /// state. Replaces any previous membership wholesale.
  virtual void load_position(
      const std::vector<std::uint64_t>& words, std::size_t& pos,
      const std::unordered_map<std::uint64_t, vm::ExecutionState*>& states) = 0;
};

enum class SearcherKind {
  kDFS,
  kBFS,
  kRandomState,
  kRandomPath,
  kCovNew,
  kMD2U,
  kDefault,  // interleaved random-path + covnew (KLEE's default)
};

const char* searcher_kind_name(SearcherKind kind);

/// Parses "dfs" / "bfs" / "random-state" / "random-path" / "covnew" /
/// "md2u" / "default". Returns false on unknown names.
bool parse_searcher_kind(const std::string& name, SearcherKind& out);

/// Creates a searcher. `executor` supplies coverage information for the
/// heuristic searchers; `rng` drives the randomized ones.
std::unique_ptr<Searcher> make_searcher(SearcherKind kind,
                                        vm::Executor& executor, Rng& rng);

}  // namespace pbse::search
