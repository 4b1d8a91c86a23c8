// Flat hash map keyed by an expression node or another one-word key: the
// memos of DAG walks (evaluation, interval analysis, tape compilation, read
// collection), ConstraintSet's member set and site table, and the snapshot
// codec's id tables. Entries live in one array with linear probing, so an
// insert is a hash and a short probe instead of a heap node per entry as in
// std::unordered_map, and a copy is one allocation and a memcpy. Pointer
// keys are meaningful only within the thread that interned them (expr.h);
// nothing iterates a NodeMap, so its layout never reaches a result.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace pbse {

class Expr;

/// Keys are pointers or unsigned integers. The value-initialised key
/// (nullptr, 0) marks an empty slot and must never be inserted. A map holds
/// no memory until its first insert, so empty maps are free to build and
/// to copy.
template <typename V, typename K = const Expr*>
class NodeMap {
  static_assert(std::is_pointer_v<K> || std::is_unsigned_v<K>,
                "NodeMap keys are pointers or unsigned integers");

 public:
  /// The value stored for `key`, or nullptr. Valid until the next insert.
  V* find(K key) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == K{}) return nullptr;
    }
  }
  const V* find(K key) const { return const_cast<NodeMap*>(this)->find(key); }
  bool contains(K key) const { return find(key) != nullptr; }

  /// Stores `value` for `key`; returns false, changing nothing, if `key`
  /// already has a value.
  bool insert(K key, V value) { return try_emplace(key, value).second; }

  /// The value slot for `key`, and whether it was created (holding
  /// `value`) by this call. The pointer is valid until the next insert.
  std::pair<V*, bool> try_emplace(K key, V value) {
    assert(key != K{});
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.key == key) return {&s.value, false};
      if (s.key == K{}) {
        s.key = key;
        s.value = value;
        ++size_;
        return {&s.value, true};
      }
    }
  }

  std::size_t size() const { return size_; }

 private:
  struct Slot {
    K key{};
    [[no_unique_address]] V value{};
  };
  static constexpr unsigned kMinBits = 4;

  std::size_t mask() const { return slots_.size() - 1; }
  /// Fibonacci hashing: the product's top bits mix every key bit.
  std::size_t home(K key) const {
    std::uint64_t bits;
    if constexpr (std::is_pointer_v<K>)
      bits = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(key));
    else
      bits = static_cast<std::uint64_t>(key);
    return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ULL) >>
                                    (64 - bits_));
  }
  /// Doubles the table (or allocates the first one), keeping the load at
  /// most one half.
  void grow() {
    const unsigned bits = slots_.empty() ? kMinBits : bits_ + 1;
    std::vector<Slot> old(std::size_t{1} << bits);
    old.swap(slots_);
    bits_ = bits;
    for (const Slot& s : old) {
      if (s.key == K{}) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != K{}) i = (i + 1) & mask();
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  unsigned bits_ = kMinBits;
  std::size_t size_ = 0;
};

}  // namespace pbse
