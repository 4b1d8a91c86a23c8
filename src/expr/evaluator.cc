#include "expr/evaluator.h"

#include <cassert>

#include "expr/node_map.h"
#include "expr/semantics.h"
#include "expr/tape.h"

namespace pbse {

namespace {

/// Computes one node's value assuming every kid is already in `memo`.
std::uint64_t eval_node(const Expr* e, const Assignment& a,
                        const NodeMap<std::uint64_t>& memo) {
  std::uint64_t k[3] = {0, 0, 0};
  if (e->kind() == ExprKind::kRead) {
    k[0] = a.byte(e->array().get(), e->read_index());
  } else {
    for (std::size_t i = 0; i < e->num_kids(); ++i)
      k[i] = *memo.find(e->kid(i).get());
  }
  return op_value(node_op(*e), k[0], k[1], k[2]);
}

/// Iterative post-order evaluation: expression chains (loop accumulators,
/// checksums) reach depths far beyond the C++ stack, so no recursion.
std::uint64_t eval_impl(const Expr* root, const Assignment& a,
                        NodeMap<std::uint64_t>& memo) {
  if (const std::uint64_t* hit = memo.find(root)) return *hit;
  std::vector<std::pair<const Expr*, bool>> stack;
  stack.emplace_back(root, false);
  while (!stack.empty()) {
    auto [e, expanded] = stack.back();
    stack.pop_back();
    if (memo.contains(e)) continue;
    if (expanded) {
      memo.insert(e, eval_node(e, a, memo));
      continue;
    }
    stack.emplace_back(e, true);
    for (std::size_t i = 0; i < e->num_kids(); ++i) {
      const Expr* k = e->kid(i).get();
      if (!memo.contains(k)) stack.emplace_back(k, false);
    }
  }
  return *memo.find(root);
}

}  // namespace

std::uint64_t evaluate(const ExprRef& e, const Assignment& assignment) {
  NodeMap<std::uint64_t> memo;
  return eval_impl(e.get(), assignment, memo);
}

bool evaluate_bool(const ExprRef& e, const Assignment& assignment) {
  assert(e->width() == 1);
  return evaluate(e, assignment) != 0;
}

std::uint64_t CachingEvaluator::evaluate(const ExprRef& e) {
  return eval_impl(e.get(), *assignment_, memo_);
}

std::size_t expr_cost(const ExprRef& e) { return compiled(e).cost(); }

}  // namespace pbse
