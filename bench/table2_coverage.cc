// Table II: basic blocks covered on readelf, gif2tiff, pngtest and
// dwarfdump by KLEE's two best searchers (random-path, covnew) across four
// symbolic-file sizes at 1h/10h, versus pbSE at 1h/10h, plus the "inc"
// column: pbSE's 10h improvement over the best KLEE cell.
//
// 4 programs × (8 KLEE configurations + 1 pbSE run) = 36 independent
// campaigns, scheduled by ParallelCampaignRunner (--jobs=N). Campaigns on
// the same program issue many structurally identical solver queries, which
// is exactly what the shared sharded cache exploits.
//
// Expected shape (paper): pbSE gains roughly +109% / +134% / +121% / +112%
// on the four programs; we check the factor is ~2x, not the digits.
#include <algorithm>

#include "bench_common.h"
#include "bench_json.h"

int main(int argc, char** argv) {
  using namespace pbse;
  using namespace pbse::bench;

  const BenchConfig config = parse_args(argc, argv);

  print_header("Table II: BBs covered (random-path & covnew vs pbSE)");

  // Per-target concolic seed scale for the pbSE campaigns. Pinned per
  // target rather than a blanket 6: the seed scale sets how much input the
  // seed run drags symbolically, and gif2tiff's LZW decoder blows past the
  // instruction cap at scale >= 2 (concolic blowup), while pngtest's
  // chunk walk saturates at 2. readelf/dwarfdump need 6 to reach their
  // deep section/DIE tables. Changing a scale redefines this benchmark:
  // goldens straddling such a change are different experiments, so
  // cross-change deltas for the retuned targets attribute nothing (see
  // EXPERIMENTS.md, Table II comparability note).
  struct TargetScale {
    const char* driver;
    std::uint32_t seed_scale;
  };
  const TargetScale targets[] = {
      {"readelf", 6}, {"gif2tiff", 1}, {"pngtest", 2}, {"dwarfdump", 6}};
  const search::SearcherKind kinds[] = {search::SearcherKind::kRandomPath,
                                        search::SearcherKind::kCovNew};
  const std::uint32_t sizes[] = {10, 100, 1000, 10000};

  std::vector<core::Campaign> campaigns;
  for (const auto& target : targets) {
    const char* driver = target.driver;
    for (const auto kind : kinds) {
      for (const std::uint32_t size : sizes) {
        const std::string name = std::string(driver) + "/" +
                                 search::searcher_kind_name(kind) + "/sym-" +
                                 std::to_string(size);
        campaigns.push_back({name, [driver, kind, size, &config](
                                       const core::CampaignContext& ctx) {
          ir::Module module = build_by_driver(driver);
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
    const std::uint32_t seed_scale = target.seed_scale;
    campaigns.push_back({std::string(driver) + "/pbse",
                         [driver, seed_scale,
                          &config](const core::CampaignContext& ctx) {
      ir::Module module = build_by_driver(driver);
      const auto& info = target_by_driver(driver);
      const auto seed = info.seed(seed_scale);
      core::PbseDriver pbse_driver(module, "main", config.pbse_options(ctx));
      core::CampaignOutcome out;
      out.rows = {{"0", "0"}};
      if (!pbse_driver.prepare(seed)) return out;
      const std::uint64_t used = pbse_driver.clock().now();
      pbse_driver.run(config.hour1 > used ? config.hour1 - used : 0);
      const std::uint64_t h1 = pbse_driver.executor().num_covered();
      pbse_driver.run(config.hour10 - pbse_driver.clock().now());
      out.covered = pbse_driver.executor().num_covered();
      out.ticks = pbse_driver.clock().now();
      out.bugs = pbse_driver.executor().bugs().size();
      out.stats = pbse_driver.stats();
      out.rows = {{std::to_string(h1), std::to_string(out.covered)}};
      return out;
    }});
  }

  core::ParallelCampaignRunner runner(config.parallel());
  const auto outcomes = runner.run(campaigns);

  // Reassemble rows: per program, 8 KLEE campaigns then the pbSE campaign.
  TextTable table;
  table.header({"program", "rp s10 1h", "10h", "s100 1h", "10h", "s1000 1h",
                "10h", "s10000 1h", "10h", "cn s10 1h", "10h", "s100 1h",
                "10h", "s1000 1h", "10h", "s10000 1h", "10h", "pbSE 1h",
                "10h", "inc"});
  std::size_t cursor = 0;
  for (const auto& target : targets) {
    const char* driver = target.driver;
    ir::Module module = build_by_driver(driver);
    std::vector<std::string> row{std::string(driver) + "(" +
                                 std::to_string(module.total_blocks()) + "bb)"};
    std::uint64_t best_klee = 0;
    for (std::size_t k = 0; k < 8; ++k, ++cursor) {
      const auto& out = outcomes[cursor];
      row.push_back(out.rows.empty() ? "-" : out.rows[0][0]);
      row.push_back(out.rows.empty() ? "-" : out.rows[0][1]);
      best_klee = std::max(best_klee, out.covered);
    }
    const auto& pbse_out = outcomes[cursor++];
    row.push_back(pbse_out.rows.empty() ? "-" : pbse_out.rows[0][0]);
    row.push_back(pbse_out.rows.empty() ? "-" : pbse_out.rows[0][1]);
    const double inc =
        best_klee == 0
            ? 0.0
            : (static_cast<double>(pbse_out.covered) / best_klee) - 1.0;
    row.push_back(fmt_percent(inc));
    table.row(std::move(row));
  }
  std::printf("%s", table.render().c_str());

  write_bench_json("BENCH_table2.json", "table2_coverage", config.jobs,
                   config.share_cache, runner, outcomes);
  return 0;
}
