#include "core/driver.h"

#include "core/seed_select.h"

namespace pbse::core {

KleeRun::KleeRun(const ir::Module& module, const std::string& entry,
                 KleeRunOptions options)
    : options_(options), rng_(options.rng_seed) {
  solver_ = std::make_unique<Solver>(clock_, stats_, options_.solver);
  executor_ = std::make_unique<vm::Executor>(module, *solver_, clock_, stats_,
                                             options_.executor);
  searcher_ = search::make_searcher(options_.searcher, *executor_, rng_);
  engine_ = std::make_unique<search::SymbolicEngine>(*executor_, *searcher_);
  auto input = std::make_shared<Array>("file", options_.sym_file_size);
  engine_->add_state(executor_->make_initial_state(entry, input, {}));
}

void KleeRun::run(VClock::Ticks budget) {
  engine_->run(Deadline(clock_, budget));
}

void KleeRun::run_sliced(VClock::Ticks budget,
                         const std::function<bool()>& batch_stop) {
  engine_->run(Deadline(clock_, budget), {}, batch_stop);
}

PbseTestingResult pbse_testing(
    const ir::Module& module, const std::string& entry,
    const std::vector<std::vector<std::uint8_t>>& seeds, VClock::Ticks budget,
    const PbseOptions& options) {
  PbseTestingResult result;
  result.chosen_seed_index = select_seed(module, entry, seeds);
  result.driver = std::make_unique<PbseDriver>(module, entry, options);
  if (result.driver->prepare(seeds[result.chosen_seed_index]))
    result.driver->run(budget);
  return result;
}

}  // namespace pbse::core
