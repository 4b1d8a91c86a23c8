#include "vm/state.h"

namespace pbse::vm {

std::unique_ptr<ExecutionState> ExecutionState::fork(
    std::uint64_t new_id) const {
  auto child = std::make_unique<ExecutionState>(*this);
  child->id = new_id;
  child->parent_id = id;
  child->depth = depth + 1;
  child->covered_new = false;
  return child;
}

}  // namespace pbse::vm
