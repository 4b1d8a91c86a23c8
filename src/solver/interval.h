// Per-byte domain propagation.
//
// Two cheap, exact propagators run before the backtracking search:
//   1. Unit-byte enumeration: a constraint whose reads all hit ONE byte is
//      evaluated for all 256 values of that byte; infeasible values are
//      removed from the byte's domain. This nails magic-byte checks.
//   2. Assembled-integer equality: Eq(<concat/shift-or chain of distinct
//      byte reads>, constant) pins every participating byte directly.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "expr/expr.h"
#include "expr/semantics.h"

namespace pbse {

/// The feasible value set of one symbolic input byte: a 256-bit set held
/// as 4 little-endian u64 words (word w holds values [64w, 64w+64)).
class ByteDomain {
 public:
  ByteDomain() { words_.fill(~std::uint64_t{0}); }

  bool allows(std::uint8_t v) const { return (words_[v >> 6] & bit(v)) != 0; }
  void remove(std::uint8_t v) { words_[v >> 6] &= ~bit(v); }
  /// Restricts the domain to exactly {v}.
  void pin(std::uint8_t v) {
    words_.fill(0);
    words_[v >> 6] = bit(v);
  }
  /// Removes every value greater than `v`.
  void remove_above(std::uint8_t v) {
    for (unsigned w = 0; w < 4; ++w) {
      const unsigned lo = 64 * w;
      if (lo > v) words_[w] = 0;
      else if (v - lo < 63) words_[w] &= (std::uint64_t{2} << (v - lo)) - 1;
    }
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) n += std::popcount(w);
    return n;
  }
  bool empty() const {
    return (words_[0] | words_[1] | words_[2] | words_[3]) == 0;
  }
  /// Smallest and largest allowed value. The domain must not be empty.
  std::uint8_t min() const {
    assert(!empty());
    unsigned w = 0;
    while (words_[w] == 0) ++w;
    return static_cast<std::uint8_t>(64 * w + std::countr_zero(words_[w]));
  }
  std::uint8_t max() const {
    assert(!empty());
    unsigned w = 3;
    while (words_[w] == 0) --w;
    return static_cast<std::uint8_t>(64 * w + 63 - std::countl_zero(words_[w]));
  }

  /// Values in ascending order.
  std::vector<std::uint8_t> values() const;

  /// Word-level access for snapshot/restore (src/serialize).
  const std::array<std::uint64_t, 4>& words() const { return words_; }
  void set_words(const std::array<std::uint64_t, 4>& w) { words_ = w; }

 private:
  static std::uint64_t bit(std::uint8_t v) {
    return std::uint64_t{1} << (v & 63);
  }
  std::array<std::uint64_t, 4> words_;
};

/// Domains for all bytes touched by a query, keyed by (array, index).
/// Plain value type: the solver memoizes propagated maps per independence
/// partition and seeds later queries from a copy.
class DomainMap {
 public:
  /// One byte's entry. Carries the (array, index) identity alongside the
  /// domain so the map can be serialized: the pointer-derived hash key is
  /// process-local, but a slot's identity is stable and lets a restored
  /// campaign rebuild the map against its own canonical arrays.
  struct Slot {
    ArrayRef array;
    std::uint32_t index = 0;
    ByteDomain dom;
  };

  ByteDomain& domain(const ArrayRef& array, std::uint32_t index) {
    Slot& s = domains_[key(array.get(), index)];
    if (s.array == nullptr) {
      s.array = array;
      s.index = index;
    }
    return s.dom;
  }
  const ByteDomain* find(const Array* array, std::uint32_t index) const {
    auto it = domains_.find(key(array, index));
    return it == domains_.end() ? nullptr : &it->second.dom;
  }
  bool any_empty() const {
    for (const auto& [k, s] : domains_)
      if (s.dom.empty()) return true;
    return false;
  }
  /// Number of bytes with an explicit domain (charging / bookkeeping).
  std::size_t size() const { return domains_.size(); }

  /// Raw slots, for snapshot (src/serialize). Unordered — the codec sorts
  /// by (array name, index) for a canonical encoding. Restore goes through
  /// domain(), which re-keys against the restored process's arrays.
  const std::unordered_map<std::uint64_t, Slot>& slots() const {
    return domains_;
  }

 private:
  static std::uint64_t key(const Array* array, std::uint32_t index) {
    return (reinterpret_cast<std::uintptr_t>(array) << 20) ^ index;
  }
  std::unordered_map<std::uint64_t, Slot> domains_;
};

/// Runs both propagators over `constraints`, refining `domains`.
/// Returns false if some byte's domain became empty (query is UNSAT).
/// `cost_out` is incremented by the number of expression evaluations spent
/// (the caller charges it to the virtual clock).
bool propagate_domains(const std::vector<ExprRef>& constraints,
                       DomainMap& domains, std::uint64_t& cost_out);

/// Incremental variant for the solver's per-partition domain memo:
/// `domains` already holds the fully propagated domains of `prefix`, and
/// only `added` is new. Propagates `added`, then re-checks the prefix
/// constraints' intervals once against the narrowed domains (so fresh pins
/// still refute stale constraints) WITHOUT re-running their per-byte
/// enumeration — that is the saving. Sound: domains only ever shrink, so
/// seeding from a prefix's propagation result over-approximates the
/// feasible set of the full list. Returns false when UNSAT is detected.
bool propagate_delta(const std::vector<ExprRef>& prefix,
                     const std::vector<ExprRef>& added, DomainMap& domains,
                     std::uint64_t& cost_out);

/// Pattern matcher for propagator 2: decomposes `e` into byte-granular
/// (read-site, byte-position) pairs if `e` is an assembly of distinct byte
/// reads via Concat / Shl+Or / ZExt. Returns true on success.
struct ByteLane {
  ArrayRef array;
  std::uint32_t index;     // byte index within the array
  unsigned bit_offset;     // position of this byte within the assembled value
};
bool match_byte_assembly(const ExprRef& e, std::vector<ByteLane>& lanes);

/// Recursive equality pinning: given the constraint `e == value`, peels
/// constant addends, power-of-two multipliers/shifts, zero/sign extensions
/// and concatenations down to byte-read lanes, pinning each lane's domain.
/// All decompositions are SOUND (a pin is only applied when the solution
/// is unique); patterns that would lose solutions are rejected.
///
/// Returns true if the constraint was fully decomposed (the caller may
/// skip other propagators for it). Sets `unsat` when the equality is
/// provably unsatisfiable (value outside the expression's range, non-zero
/// uncovered bits, misaligned multiplier, ...).
bool pin_equality(const ExprRef& e, std::uint64_t value, DomainMap& domains,
                  bool& unsat, unsigned depth = 0);

/// Range of the byte `array[index]` under `domains`: its domain's
/// [min, max], or [0, 255] when it has no domain or an empty one.
URange read_range(const DomainMap& domains, const Array* array,
                  std::uint32_t index);

/// Conservative unsigned range of `e` under the current byte domains
/// (op_interval's transfer at every node, read_range() at every Read),
/// by a memoized walk of the DAG. The reference definition: propagation
/// and the search compute the same range on compiled tapes
/// (expr/tape.h), and the tests compare the two.
URange interval_of(const ExprRef& e, const DomainMap& domains);

/// Prunes the domains of assembly lanes under `assembly <= bound`
/// (each lane byte can be at most bound >> bit_offset). Sound: lanes are
/// disjoint and non-negative.
void prune_ule_assembly(const ExprRef& assembly, std::uint64_t bound,
                        DomainMap& domains);

}  // namespace pbse
