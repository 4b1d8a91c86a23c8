// Fig 1: basic-block distribution over time, concrete vs symbolic
// execution, for readelf, gif2tiff and pngtest.
//
// Reproduces the paper's plotting scheme: blocks are indexed by FIRST
// APPEARANCE in the concrete execution (re-entries keep their index);
// blocks first reached by symbolic execution get fresh indices above the
// concrete maximum. Output: one "series" block per sub-figure with
// `time_ticks block_index` rows (plus a summary of the boxes the paper
// highlights: blocks concrete execution reaches that symbolic execution
// misses within the hour).
#include <unordered_map>

#include "bench_common.h"
#include "concolic/concolic_executor.h"

int main(int argc, char** argv) {
  using namespace pbse;
  using namespace pbse::bench;

  const BenchConfig config = parse_args(argc, argv);
  const int max_rows = config.quick ? 50 : 400;

  for (const char* driver : {"readelf", "gif2tiff", "pngtest"}) {
    ir::Module module = build_by_driver(driver);
    const auto& info = target_by_driver(driver);
    const auto seed = info.seed(6);

    // --- (a) concrete execution ----------------------------------------
    VClock clock;
    Stats stats;
    Solver solver(clock, stats);
    vm::Executor executor(module, solver, clock, stats);
    concolic::ConcolicOptions copts;
    auto concrete = run_concolic(executor, "main", seed, copts);

    std::unordered_map<std::uint32_t, std::uint32_t> index_of;
    std::uint32_t next_index = 0;
    auto index_block = [&](std::uint32_t bb) {
      auto it = index_of.find(bb);
      if (it == index_of.end())
        it = index_of.emplace(bb, next_index++).first;
      return it->second;
    };

    print_header((std::string("Fig 1 concrete: ") + driver).c_str());
    std::printf("seed=%zu bytes, %zu block entries, %llu ticks\n",
                seed.size(), concrete.trace.size(),
                static_cast<unsigned long long>(concrete.ticks_used));
    // Index EVERY entry (first-appearance order), then print a sample.
    for (const auto& [ticks, bb] : concrete.trace) {
      (void)ticks;
      index_block(bb);
    }
    const std::size_t stride =
        std::max<std::size_t>(1, concrete.trace.size() / max_rows);
    for (std::size_t i = 0; i < concrete.trace.size(); i += stride) {
      std::printf("%llu %u\n",
                  static_cast<unsigned long long>(concrete.trace[i].first),
                  index_block(concrete.trace[i].second));
    }
    const std::uint32_t concrete_max = next_index;

    // --- (b) symbolic execution (default searcher, 1h) ------------------
    core::KleeRunOptions options = config.klee_options();
    options.sym_file_size = 1000;
    core::KleeRun run(module, "main", options);
    // Sample the coverage log as the time series.
    run.run(config.hour1);

    print_header((std::string("Fig 1 symbolic: ") + driver).c_str());
    std::uint32_t beyond = 0;
    for (const auto& event : run.executor().coverage_log()) {
      const auto it = index_of.find(event.global_bb);
      const std::uint32_t index =
          it != index_of.end() ? it->second : next_index++;
      if (it == index_of.end()) ++beyond;
      std::printf("%llu %u\n", static_cast<unsigned long long>(event.ticks),
                  index);
    }

    // The paper's "boxes": concretely-reached blocks symbolic misses.
    std::uint32_t missed = 0;
    for (const auto& [bb, idx] : index_of) {
      (void)idx;
      if (idx < concrete_max && !run.executor().covered()[bb]) ++missed;
    }
    std::printf(
        "summary %s: concrete_blocks=%u symbolic_covered=%llu "
        "concrete_blocks_missed_by_symbolic=%u new_blocks_only_symbolic=%u\n",
        driver, concrete_max,
        static_cast<unsigned long long>(run.executor().num_covered()), missed,
        beyond);
  }
  return 0;
}
