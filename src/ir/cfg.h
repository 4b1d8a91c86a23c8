// Module-wide control-flow utilities: successor extraction and the
// distance-to-uncovered map backing the md2u and covnew searchers.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/ir.h"

namespace pbse::ir {

/// Intra-function successor block ids of `bb` (from its terminator).
std::vector<std::uint32_t> block_successors(const Function& fn,
                                            std::uint32_t bb);

/// Interprocedural block graph over module-wide (global) block ids.
/// Edges: intra-function successors, call-site block -> callee entry, and
/// callee exit blocks -> call-site block (the standard conservative
/// approximation KLEE's StatsTracker uses for its distance metric).
class BlockGraph {
 public:
  explicit BlockGraph(const Module& module);

  const std::vector<std::uint32_t>& successors(std::uint32_t global_bb) const {
    return forward_[global_bb];
  }
  const std::vector<std::uint32_t>& predecessors(std::uint32_t global_bb) const {
    return reverse_[global_bb];
  }
  std::uint32_t num_blocks() const {
    return static_cast<std::uint32_t>(forward_.size());
  }

 private:
  std::vector<std::vector<std::uint32_t>> forward_;
  std::vector<std::vector<std::uint32_t>> reverse_;
};

/// Minimum forward-path distance (in blocks) from every block to the
/// nearest uncovered block — multi-source BFS over the reverse block
/// graph. Recomputed lazily when coverage changes.
class DistanceToUncovered {
 public:
  explicit DistanceToUncovered(const BlockGraph& graph)
      : graph_(graph), distance_(graph.num_blocks(), kUnreachable) {}

  /// Recomputes every distance given per-global-block coverage flags;
  /// blocks past the end of `covered` count as uncovered.
  void recompute(const std::vector<bool>& covered);

  /// Distance of `global_bb`; kUnreachable if no uncovered block is
  /// forward-reachable.
  std::uint32_t distance(std::uint32_t global_bb) const {
    return distance_[global_bb];
  }

  static constexpr std::uint32_t kUnreachable = ~std::uint32_t{0};

 private:
  const BlockGraph& graph_;
  std::vector<std::uint32_t> distance_;
};

}  // namespace pbse::ir
