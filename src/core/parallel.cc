#include "core/parallel.h"

#include <chrono>
#include <exception>
#include <mutex>

#include "obs/trace.h"
#include "support/thread_pool.h"

namespace pbse::core {

ParallelCampaignRunner::ParallelCampaignRunner(ParallelOptions options)
    : options_(options) {
  if (options_.share_solver_cache)
    shared_cache_ = std::make_shared<ShardedQueryCache>(options_.cache_shards);
}

std::vector<CampaignOutcome> ParallelCampaignRunner::run(
    const std::vector<Campaign>& campaigns) {
  aggregate_.clear();
  std::vector<CampaignOutcome> outcomes(campaigns.size());
  std::vector<std::exception_ptr> errors(campaigns.size());

  const auto wall_start = std::chrono::steady_clock::now();
  {
    // jobs <= 1 → inline mode: tasks run on this thread at submit() time,
    // in campaign order, with zero scheduling nondeterminism.
    ThreadPool pool(options_.jobs <= 1 ? 0 : options_.jobs);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(campaigns.size());
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
      tasks.push_back([this, &campaigns, &outcomes, &errors, i] {
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
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
      });
    }
    // run_all would re-throw on task failure; errors are captured per
    // campaign above so every campaign settles first.
    pool.run_all(std::move(tasks));
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
