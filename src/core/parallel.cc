#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "obs/trace.h"

namespace pbse::core {

ParallelCampaignRunner::ParallelCampaignRunner(ParallelOptions options)
    : options_(options) {
  if (options_.share_solver_cache)
    shared_cache_ = std::make_shared<ShardedQueryCache>();
}

std::vector<CampaignOutcome> ParallelCampaignRunner::run(
    const std::vector<Campaign>& campaigns) {
  aggregate_.clear();
  std::vector<CampaignOutcome> outcomes(campaigns.size());
  std::vector<std::exception_ptr> errors(campaigns.size());

  // Runs campaign i, capturing its exception so that every campaign settles
  // before the first error is rethrown.
  const auto run_one = [&](std::size_t i) {
    CampaignContext ctx;
    ctx.index = i;
    ctx.shared_cache = shared_cache_;
    // Every event this thread emits while the body runs carries the
    // campaign's index; the campaign name is the event name.
    obs::CampaignScope scope(static_cast<std::uint32_t>(i));
    const obs::MetricId ev = obs::intern_metric(campaigns[i].name);
    obs::trace_begin(obs::Category::kCampaign, ev, 0);
    const auto start = std::chrono::steady_clock::now();
    try {
      outcomes[i] = campaigns[i].body(ctx);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    obs::trace_end(obs::Category::kCampaign, ev, outcomes[i].ticks);
    outcomes[i].name = campaigns[i].name;
    outcomes[i].wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  };
  // Every thread that runs drain claims the next unclaimed campaign until
  // none is left.
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next++; i < campaigns.size(); i = next++) run_one(i);
  };

  const auto wall_start = std::chrono::steady_clock::now();
  if (options_.jobs <= 1) {
    // Inline: campaign order on the calling thread, with no scheduling
    // nondeterminism and no thread hop for the thread-local interner.
    drain();
  } else {
    // A jthread joins when destroyed, also when starting a later one throws.
    std::vector<std::jthread> threads(
        std::min<std::size_t>(options_.jobs, campaigns.size()));
    for (std::jthread& t : threads) t = std::jthread(drain);
  }
  wall_seconds_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();

  for (const auto& e : errors)
    if (e != nullptr) std::rethrow_exception(e);

  for (const auto& o : outcomes) aggregate_.merge(o.stats);
  aggregate_.add("parallel.campaigns", outcomes.size());
  aggregate_.add("parallel.jobs", options_.jobs == 0 ? 1 : options_.jobs);
  if (shared_cache_ != nullptr) {
    const ShardedQueryCache::Counters c = shared_cache_->counters();
    aggregate_.add("cache.shared_hits", c.hits);
    aggregate_.add("cache.shared_misses", c.misses);
    aggregate_.add("cache.shared_contention", c.contention);
    aggregate_.add("cache.shared_entries", shared_cache_->size());
  }
  return outcomes;
}

}  // namespace pbse::core
