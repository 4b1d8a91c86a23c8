// The symbolic-execution run loop: owns the state population, drives the
// executor one instruction batch at a time, and keeps the searcher
// informed — KLEE's Executor::run() skeleton.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "searchers/searcher.h"
#include "support/vclock.h"
#include "vm/executor.h"

namespace pbse::serialize {
class CampaignCodec;
}

namespace pbse::search {

class SymbolicEngine {
 public:
  SymbolicEngine(vm::Executor& executor, Searcher& searcher)
      : executor_(executor), searcher_(searcher) {}

  /// Transfers a state into the engine (and announces it to the searcher).
  void add_state(std::unique_ptr<vm::ExecutionState> state);

  /// Runs until the deadline expires, no states remain, or a stop callback
  /// fires. `extra_stop` is checked per instruction (a batch may end
  /// early); `batch_stop` is checked ONLY between batches — stopping there
  /// never truncates a batch, so a run sliced at batch_stop points and then
  /// resumed consumes the searcher/RNG streams exactly like an unsliced
  /// run. The server's checkpoint slicing relies on this. Returns
  /// instructions executed.
  std::uint64_t run(const Deadline& deadline,
                    const std::function<bool()>& extra_stop = {},
                    const std::function<bool()>& batch_stop = {});

  std::size_t num_states() const { return states_.size(); }
  /// The live states in id order.
  std::vector<const vm::ExecutionState*> states() const;
  vm::Executor& executor() { return executor_; }

 private:
  friend class pbse::serialize::CampaignCodec;

  void after_step(vm::ExecutionState& state);

  vm::Executor& executor_;
  Searcher& searcher_;
  std::unordered_map<std::uint64_t, std::unique_ptr<vm::ExecutionState>>
      states_;
};

}  // namespace pbse::search
