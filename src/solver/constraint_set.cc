#include "solver/constraint_set.h"

#include <algorithm>
#include <cassert>

#include "expr/tape.h"

namespace pbse {

namespace {

/// Per-set site key: pointer-based, cheap, never leaves this set (the
/// union-find nodes are private state). Key 0 marks an empty slot of the
/// site table, so it is folded onto 1: two sites sharing a key only share a
/// partition, which makes slices larger, never unsound.
std::uint64_t site_key(const ReadSite& site) {
  const std::uint64_t key =
      (reinterpret_cast<std::uintptr_t>(site.array.get()) << 20) ^ site.index;
  return key != 0 ? key : 1;
}

}  // namespace

std::uint32_t ConstraintSet::find_root(std::uint32_t n) const {
  while (uf_parent_[n] != n) {
    uf_parent_[n] = uf_parent_[uf_parent_[n]];  // path halving
    n = uf_parent_[n];
  }
  return n;
}

std::uint32_t ConstraintSet::node_for_site(std::uint64_t site) {
  const auto fresh = static_cast<std::uint32_t>(uf_parent_.size());
  const std::uint32_t node = *site_node_.try_emplace(site, fresh).first;
  if (node == fresh) {
    uf_parent_.push_back(node);
    uf_size_.push_back(1);
  }
  return node;
}

std::uint32_t ConstraintSet::union_nodes(std::uint32_t a, std::uint32_t b) {
  a = find_root(a);
  b = find_root(b);
  if (a == b) return a;
  if (uf_size_[a] < uf_size_[b]) std::swap(a, b);
  uf_parent_[b] = a;
  uf_size_[a] += uf_size_[b];
  return a;
}

bool ConstraintSet::add(const ExprRef& c) {
  assert(c->width() == 1);
  if (c->is_true()) return true;
  if (c->is_false()) return false;
  if (!present_.insert(c.get(), {})) return true;
  constraints_.push_back(c);
  // XOR-combining keeps the hash order-insensitive; multiply-mix first so
  // equal-hash constraints don't cancel.
  hash_ ^= mix_constraint_hash(c->hash());

  // Union every site the constraint reads into one partition. A width-1
  // non-constant expression always contains at least one read, but guard
  // with a private node so a read-free constraint still owns a partition.
  const auto& reads = compiled(c).reads();
  std::uint32_t node = kNoNode;
  for (const auto& r : reads) {
    const std::uint32_t n = node_for_site(site_key(r));
    node = node == kNoNode ? n : union_nodes(node, n);
  }
  if (node == kNoNode) {
    node = static_cast<std::uint32_t>(uf_parent_.size());
    uf_parent_.push_back(node);
    uf_size_.push_back(1);
  }
  constraint_node_.push_back(node);
  return true;
}

bool ConstraintSet::contains(const ExprRef& c) const {
  return present_.contains(c.get());
}

ConstraintSet::Slice ConstraintSet::slice(const ExprRef& query) const {
  Slice out;
  // Roots reached from the query's read sites. Queries touch a handful of
  // partitions at most, so a linear small-vector membership test beats a
  // hash set here. Unconstrained sites have no partition yet.
  std::vector<std::uint32_t> roots;
  for (const auto& r : compiled(query).reads()) {
    const std::uint32_t* node = site_node_.find(site_key(r));
    if (node == nullptr) continue;
    const std::uint32_t root = find_root(*node);
    if (std::find(roots.begin(), roots.end(), root) == roots.end())
      roots.push_back(root);
  }
  if (roots.empty()) return out;

  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    const std::uint32_t root = find_root(constraint_node_[i]);
    if (std::find(roots.begin(), roots.end(), root) != roots.end())
      out.constraints.push_back(constraints_[i]);
  }
  return out;
}

ConstraintSet::Slice ConstraintSet::whole() const { return {constraints_}; }

std::size_t ConstraintSet::num_partitions() const {
  std::vector<std::uint32_t> roots;
  for (const std::uint32_t n : constraint_node_) {
    const std::uint32_t root = find_root(n);
    if (std::find(roots.begin(), roots.end(), root) == roots.end())
      roots.push_back(root);
  }
  return roots.size();
}

}  // namespace pbse
