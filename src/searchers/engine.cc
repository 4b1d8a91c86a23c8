#include "searchers/engine.h"

#include <algorithm>

namespace pbse::search {

namespace {

/// Instructions run per select() before consulting the searcher again
/// (forks and terminations re-consult immediately).
constexpr std::uint64_t kBatchInstructions = 32;

}  // namespace

std::vector<const vm::ExecutionState*> SymbolicEngine::states() const {
  std::vector<const vm::ExecutionState*> out;
  out.reserve(states_.size());
  for (const auto& [id, s] : states_) out.push_back(s.get());
  std::sort(out.begin(), out.end(),
            [](const vm::ExecutionState* a, const vm::ExecutionState* b) {
              return a->id < b->id;
            });
  return out;
}

void SymbolicEngine::add_state(std::unique_ptr<vm::ExecutionState> state) {
  vm::ExecutionState* raw = state.get();
  states_[state->id] = std::move(state);
  searcher_.update(nullptr, {raw}, {});
}

void SymbolicEngine::after_step(vm::ExecutionState& state) {
  if (state.covered_new) {
    state.insts_since_cov_new = 0;
    state.covered_new = false;
  } else {
    ++state.insts_since_cov_new;
  }
}

std::uint64_t SymbolicEngine::run(const Deadline& deadline,
                                  const std::function<bool()>& extra_stop,
                                  const std::function<bool()>& batch_stop) {
  std::uint64_t executed = 0;
  std::vector<std::unique_ptr<vm::ExecutionState>> forked;
  std::vector<vm::ExecutionState*> added;
  std::vector<vm::ExecutionState*> removed;

  while (!searcher_.empty() && !deadline.expired()) {
    if (extra_stop && extra_stop()) break;
    if (batch_stop && batch_stop()) break;
    vm::ExecutionState* state = searcher_.select();

    forked.clear();
    added.clear();
    removed.clear();

    for (std::uint64_t i = 0; i < kBatchInstructions; ++i) {
      executor_.step(*state, forked);
      ++executed;
      after_step(*state);
      if (state->done() || !forked.empty() || deadline.expired()) break;
      if (extra_stop && extra_stop()) break;
    }

    for (auto& child : forked) {
      after_step(*child);
      added.push_back(child.get());
      states_[child->id] = std::move(child);
    }
    if (state->done()) removed.push_back(state);

    searcher_.update(state, added, removed);
    for (auto* dead : removed) states_.erase(dead->id);
  }
  return executed;
}

}  // namespace pbse::search
