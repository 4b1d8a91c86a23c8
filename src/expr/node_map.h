// Flat hash map keyed by expression node, for the memos of DAG walks:
// evaluation, interval analysis, tape compilation and read collection.
// Entries live in one array with linear probing, so an insert is a hash and
// a short probe instead of a heap node per entry as in std::unordered_map.
// Keys are node pointers, meaningful only within the thread that interned
// them (expr.h); nothing iterates a NodeMap, so its layout never reaches a
// result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pbse {

class Expr;

template <typename V>
class NodeMap {
 public:
  NodeMap() : slots_(std::size_t{1} << kMinBits) {}

  /// The value stored for `node`, or nullptr. Valid until the next insert.
  V* find(const Expr* node) {
    for (std::size_t i = home(node);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.key == node) return &s.value;
      if (s.key == nullptr) return nullptr;
    }
  }
  const V* find(const Expr* node) const {
    return const_cast<NodeMap*>(this)->find(node);
  }
  bool contains(const Expr* node) const { return find(node) != nullptr; }

  /// Stores `value` for `node`; returns false, changing nothing, if `node`
  /// already has a value.
  bool insert(const Expr* node, V value) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = home(node);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.key == node) return false;
      if (s.key == nullptr) {
        s.key = node;
        s.value = value;
        ++size_;
        return true;
      }
    }
  }

  std::size_t size() const { return size_; }

 private:
  struct Slot {
    const Expr* key = nullptr;
    V value{};
  };
  static constexpr unsigned kMinBits = 4;

  std::size_t mask() const { return slots_.size() - 1; }
  /// Fibonacci hashing: the product's top bits mix every pointer bit.
  std::size_t home(const Expr* node) const {
    const std::uint64_t h =
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(node)) *
        0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h >> (64 - bits_));
  }
  /// Doubles the table, keeping the load at most one half.
  void grow() {
    std::vector<Slot> old(std::size_t{1} << (bits_ + 1));
    old.swap(slots_);
    ++bits_;
    for (const Slot& s : old) {
      if (s.key == nullptr) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != nullptr) i = (i + 1) & mask();
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  unsigned bits_ = kMinBits;
  std::size_t size_ = 0;
};

}  // namespace pbse
