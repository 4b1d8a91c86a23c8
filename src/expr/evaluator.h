// Concrete evaluation of symbolic expressions under a byte assignment.
//
// Used by: the concolic executor (concrete half of the lockstep), the
// solver's hint and all-zeros fast paths, seedState validation and
// test-case replay. A CachingEvaluator is one model's memo: every state
// that carries the same model may share it, as a campaign's seedStates do
// when they are validated. The backtracking search's candidate checks and
// domain propagation run on compiled tapes instead (expr/tape.h).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "expr/expr.h"
#include "expr/node_map.h"

namespace pbse {

/// Maps symbolic arrays to concrete byte contents. Arrays not present
/// evaluate to zero bytes (KLEE's convention for unconstrained bytes).
class Assignment {
 public:
  void set(const ArrayRef& array, std::vector<std::uint8_t> bytes) {
    bytes_[array.get()] = std::move(bytes);
  }

  /// Value of `array[index]`; 0 when unassigned or out of range.
  std::uint8_t byte(const Array* array, std::uint32_t index) const {
    auto it = bytes_.find(array);
    if (it == bytes_.end() || index >= it->second.size()) return 0;
    return it->second[index];
  }

  /// Mutable access for the solver's search (creates the entry zero-filled
  /// at the array's declared size).
  std::vector<std::uint8_t>& mutable_bytes(const ArrayRef& array) {
    auto it = bytes_.find(array.get());
    if (it == bytes_.end()) {
      it = bytes_.emplace(array.get(),
                          std::vector<std::uint8_t>(array->size(), 0)).first;
    }
    return it->second;
  }

  const std::unordered_map<const Array*, std::vector<std::uint8_t>>& all() const {
    return bytes_;
  }

 private:
  std::unordered_map<const Array*, std::vector<std::uint8_t>> bytes_;
};

/// Evaluates `e` under `assignment`. Total: division by zero yields 0
/// (matching the folding convention; the VM guards real divisions).
/// Result is zero-extended to 64 bits.
std::uint64_t evaluate(const ExprRef& e, const Assignment& assignment);

/// Evaluates a width-1 expression as a truth value.
bool evaluate_bool(const ExprRef& e, const Assignment& assignment);

/// Memoized evaluator over an IMMUTABLE assignment (a state's model).
/// Results persist across calls, so evaluating expressions that grow
/// incrementally (loop accumulators, checksums) costs only the new nodes —
/// this is what keeps long concrete-ish paths linear instead of quadratic.
class CachingEvaluator {
 public:
  explicit CachingEvaluator(std::shared_ptr<const Assignment> assignment)
      : assignment_(std::move(assignment)) {}

  std::uint64_t evaluate(const ExprRef& e);
  bool evaluate_bool(const ExprRef& e) { return evaluate(e) != 0; }

  /// The assignment this cache is valid for (identity-compared by callers
  /// to detect model replacement).
  const std::shared_ptr<const Assignment>& assignment() const {
    return assignment_;
  }

  /// Number of nodes memoized so far (tests).
  std::size_t memo_size() const { return memo_.size(); }

 private:
  std::shared_ptr<const Assignment> assignment_;
  NodeMap<std::uint64_t> memo_;
};

/// Deterministic work measure of an expression: its DAG node count, read
/// from its compiled form (expr/tape.h). The solver charges this per
/// evaluation so virtual time reflects real constraint complexity.
std::size_t expr_cost(const ExprRef& e);

}  // namespace pbse
