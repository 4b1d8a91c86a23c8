// Table I: basic blocks covered by symbolic execution of readelf with each
// KLEE searcher (dfs, bfs, random-state, random-path, covnew, md2u and the
// default interleaved searcher) at four symbolic-file sizes, measured at
// "1h" and "10h" of virtual time — plus the pbSE rows with two seed sizes,
// reporting c-time (concolic) and p-time (phase analysis) like the paper.
//
// Every (searcher, size) cell pair is an independent campaign run through
// ParallelCampaignRunner (--jobs=N), all campaigns optionally sharing the
// sharded solver cache. Each campaign builds its own module inside the
// worker: the expression interner is thread-local, so expressions must be
// created on the thread that uses them.
//
// Expected shape (paper): random-path / default lead the KLEE field;
// random-state, covnew and md2u plateau early; dfs is poor at 1h but
// catches up by 10h; pbSE roughly doubles the best KLEE result.
#include "bench_common.h"
#include <cstdlib>

#include "bench_json.h"

int main(int argc, char** argv) {
  using namespace pbse;
  using namespace pbse::bench;

  const BenchConfig config = parse_args(argc, argv);

  print_header("Table I: BBs covered on readelf, per searcher");
  {
    const ir::Module probe = build_by_driver("readelf");
    std::printf("(module has %u basic blocks; '1h' = %llu ticks; jobs=%u)\n",
                probe.total_blocks(),
                static_cast<unsigned long long>(config.hour1), config.jobs);
  }

  const search::SearcherKind kinds[] = {
      search::SearcherKind::kDefault,     search::SearcherKind::kRandomPath,
      search::SearcherKind::kRandomState, search::SearcherKind::kCovNew,
      search::SearcherKind::kMD2U,        search::SearcherKind::kDFS,
      search::SearcherKind::kBFS,
  };
  const std::uint32_t sizes[] = {10, 100, 1000, 10000};

  std::vector<core::Campaign> campaigns;
  for (const auto kind : kinds) {
    for (const std::uint32_t size : sizes) {
      const std::string name = std::string(search::searcher_kind_name(kind)) +
                               "/sym-" + std::to_string(size);
      campaigns.push_back({name, [kind, size, &config](
                                     const core::CampaignContext& ctx) {
        ir::Module module = build_by_driver("readelf");
        core::KleeRunOptions options = config.klee_options(ctx);
        options.searcher = kind;
        options.sym_file_size = size;
        core::KleeRun run(module, "main", options);
        run.run(config.hour1);
        const std::uint64_t h1 = run.executor().num_covered();
        run.run(config.hour10 - config.hour1);
        core::CampaignOutcome out;
        out.covered = run.executor().num_covered();
        out.ticks = run.clock().now();
        out.bugs = run.executor().bugs().size();
        out.stats = run.stats();
        out.rows = {{std::to_string(h1), std::to_string(out.covered)}};
        return out;
      }});
    }
  }
  for (const unsigned scale : {2u, 12u}) {
    campaigns.push_back({"pbse/seed-scale-" + std::to_string(scale),
                         [scale, &config](const core::CampaignContext& ctx) {
      ir::Module module = build_by_driver("readelf");
      const auto seed = targets::make_melf_seed(scale);
      core::PbseDriver driver(module, "main", config.pbse_options(ctx));
      core::CampaignOutcome out;
      if (!driver.prepare(seed)) return out;
      const std::uint64_t used = driver.clock().now();
      driver.run(config.hour1 > used ? config.hour1 - used : 0);
      const std::uint64_t h1 = driver.executor().num_covered();
      driver.run(config.hour10 - driver.clock().now());
      out.covered = driver.executor().num_covered();
      out.ticks = driver.clock().now();
      out.bugs = driver.executor().bugs().size();
      out.stats = driver.stats();
      out.rows = {{"seed(" + std::to_string(seed.size()) + ")",
                   std::to_string(driver.c_time_ticks()) + "t",
                   std::to_string(driver.p_time_ticks()) + "t",
                   std::to_string(h1), std::to_string(out.covered)}};
      return out;
    }});
  }

  core::ParallelCampaignRunner runner(config.parallel());
  const auto outcomes = runner.run(campaigns);

  // Reassemble the paper's row layout from campaign order: 4 size cells
  // per searcher, then the pbSE rows.
  TextTable table;
  table.header({"searcher", "sym-10 1h", "10h", "sym-100 1h", "10h",
                "sym-1000 1h", "10h", "sym-10000 1h", "10h"});
  std::size_t cursor = 0;
  for (const auto kind : kinds) {
    std::vector<std::string> row{search::searcher_kind_name(kind)};
    for (std::size_t s = 0; s < 4; ++s, ++cursor) {
      const auto& cells = outcomes[cursor].rows;
      row.push_back(cells.empty() ? "-" : cells[0][0]);
      row.push_back(cells.empty() ? "-" : cells[0][1]);
    }
    table.row(std::move(row));
  }
  std::printf("%s", table.render().c_str());

  TextTable pbse_table;
  pbse_table.header({"pbSE", "c-time", "p-time", "1h", "10h"});
  for (; cursor < outcomes.size(); ++cursor)
    if (!outcomes[cursor].rows.empty())
      pbse_table.row(std::vector<std::string>(outcomes[cursor].rows[0]));
  std::printf("%s", pbse_table.render().c_str());

  if (std::getenv("PBSE_DUMP_STATS") != nullptr)
    for (const auto& [name, value] : runner.aggregate_stats().all())
      std::printf("STAT %s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
  write_bench_json("BENCH_pbse.json", "table1_readelf_searchers", config.jobs,
                   config.share_cache, runner, outcomes);
  return 0;
}
