// Path-constraint container: an ordered, deduplicated set of width-1
// expressions, with an incremental hash used as a cache key and a
// PERSISTENT independence partition maintained incrementally.
//
// Every constraint reads a set of (array, byte-index) sites; two
// constraints are dependent iff they are transitively connected through
// shared sites. The set maintains a union-find over sites updated on
// add(), so the solver's independence slicing is "collect the partitions
// the query touches" (one find() per query read + one find() per
// constraint) instead of the old O(constraints × reads) closure per query.
//
// The set stays a plain value type: state forks copy its flat arrays (the
// member set and the site table are open-addressing NodeMaps, so a copy is
// a few allocations and memcpys, not one heap node per entry) and keep
// sharing the ExprRefs. Not thread-safe (one state, one thread) — find()
// performs path compression under `mutable`.
#pragma once

#include <cstdint>
#include <vector>

#include "expr/expr.h"
#include "expr/node_map.h"

namespace pbse {

/// Multiply-mix applied to a constraint's structural hash before any
/// order-insensitive XOR combination. Shared by the set hash and the
/// solver's cache keys so they stay algebraically consistent (prefix-hash =
/// list-hash XOR mixed(query)).
inline std::uint64_t mix_constraint_hash(std::uint64_t h) {
  h *= 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  return h;
}

/// The conjunction of branch conditions accumulated along one path.
/// Value type: copied on state fork (the ExprRefs themselves are shared).
class ConstraintSet {
 public:
  /// Adds `c` (width 1). Trivially-true constraints and duplicates are
  /// dropped. Returns false iff `c` is the literal false constant (caller
  /// should kill the state). Unions the partitions of every site `c`
  /// reads.
  bool add(const ExprRef& c);

  const std::vector<ExprRef>& constraints() const { return constraints_; }
  std::size_t size() const { return constraints_.size(); }
  bool empty() const { return constraints_.empty(); }

  /// Order-insensitive hash over the contained constraints, usable as a
  /// cache key together with a query hash.
  std::uint64_t hash() const { return hash_; }

  /// True if `c` is syntactically present.
  bool contains(const ExprRef& c) const;

  /// An independence slice: the constraints connected to a query.
  struct Slice {
    /// Connected constraints, insertion order preserved.
    std::vector<ExprRef> constraints;
  };

  /// The constraints transitively connected to `query` through shared
  /// read sites (the classic independence slice). A query whose sites are
  /// all unconstrained yields an empty constraint list.
  Slice slice(const ExprRef& query) const;

  /// Every constraint: check_sat's list when independence slicing is off.
  Slice whole() const;

  /// Number of distinct independence partitions.
  std::size_t num_partitions() const;

 private:
  static constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

  std::uint32_t find_root(std::uint32_t n) const;
  /// Node for a site key, created on demand.
  std::uint32_t node_for_site(std::uint64_t site);
  /// Unions the partitions of `a` and `b`, returns the surviving root.
  std::uint32_t union_nodes(std::uint32_t a, std::uint32_t b);

  struct Member {};

  std::vector<ExprRef> constraints_;
  /// Hash-consing makes structural equality pointer equality, so presence
  /// checks are a pointer-set lookup.
  NodeMap<Member> present_;
  std::uint64_t hash_ = 0x243f6a8885a308d3ULL;

  // --- Persistent independence partition ---------------------------------
  /// (array pointer, index) site key -> union-find node.
  NodeMap<std::uint32_t, std::uint64_t> site_node_;
  /// Union-find parent links; mutable so const find() can path-compress
  /// (pure cache mutation, single-threaded by the state contract above).
  mutable std::vector<std::uint32_t> uf_parent_;
  std::vector<std::uint32_t> uf_size_;
  /// One member node per constraint (its first read site).
  std::vector<std::uint32_t> constraint_node_;
};

}  // namespace pbse
