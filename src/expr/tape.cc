#include "expr/tape.h"

#include "expr/node_map.h"

namespace pbse {

Tape::Tape(const ExprRef& root, const VarOf& var_of) {
  // Iterative post-order: chains can be deeper than the C++ stack allows.
  NodeMap<std::uint32_t> slot_of;
  std::vector<std::pair<const Expr*, bool>> stack{{root.get(), false}};
  while (!stack.empty()) {
    auto [e, expanded] = stack.back();
    stack.pop_back();
    if (slot_of.contains(e)) continue;
    if (expanded) {
      Step step;
      step.op = node_op(*e);
      if (e->kind() == ExprKind::kRead) {
        step.kid[0] = var_of(*e);
      } else {
        for (std::size_t i = 0; i < e->num_kids(); ++i)
          step.kid[i] = *slot_of.find(e->kid(i).get());
      }
      slot_of.insert(e, static_cast<std::uint32_t>(steps_.size()));
      steps_.push_back(step);
      continue;
    }
    stack.emplace_back(e, true);
    for (std::size_t i = 0; i < e->num_kids(); ++i) {
      const Expr* kid = e->kid(i).get();
      if (!slot_of.contains(kid)) stack.emplace_back(kid, false);
    }
  }
}

std::uint64_t Tape::value(const std::uint64_t* vars,
                          std::uint64_t* slots) const {
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const Step& s = steps_[i];
    const std::uint64_t x =
        s.op.kind == ExprKind::kRead ? vars[s.kid[0]] : slots[s.kid[0]];
    slots[i] = op_value(s.op, x, slots[s.kid[1]], slots[s.kid[2]]);
  }
  return slots[steps_.size() - 1];
}

URange Tape::interval(const URange* vars, URange* slots) const {
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const Step& s = steps_[i];
    const URange x =
        s.op.kind == ExprKind::kRead ? vars[s.kid[0]] : slots[s.kid[0]];
    slots[i] = op_interval(s.op, x, slots[s.kid[1]]);
  }
  return slots[steps_.size() - 1];
}

}  // namespace pbse
