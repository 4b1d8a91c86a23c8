// Table III: bugs found by pbSE. For every package/driver we run pbSE from
// two seed sizes and report, per discovered bug site: the seed size
// (s-size), the number of trap phases identified (t-p), the phase index in
// which the bug was found (b-p, "seed" when the seed itself tripped it),
// and the real-world CVE the injected bug is an analog of.
//
// Each (target, seed) pair is one campaign; campaigns return their raw bug
// rows and site keys, and cross-seed dedup / CVE assignment happens at
// assembly so the result is identical at any --jobs level.
//
// Expected shape (paper): 21 bugs total — 2 libpng, 5 libtiff, 10
// libdwarf, 4 binutils/readelf; none in tcpdump.
#include <map>
#include <set>

#include "bench_common.h"
#include "bench_json.h"
#include "vm/bugs.h"

int main(int argc, char** argv) {
  using namespace pbse;
  using namespace pbse::bench;

  const BenchConfig config = parse_args(argc, argv);

  print_header("Table III: bugs found by pbSE");

  // The paper tests several seeds per tool; we use two scales. For
  // tiff2rgba the third "seed" is the Fig 5 CIELab-triggering file.
  std::vector<core::Campaign> campaigns;
  std::vector<std::size_t> campaigns_per_target;
  for (const auto& target : targets::all_targets()) {
    std::size_t n = 2;
    if (target.driver == "tiff2rgba") n = 3;
    campaigns_per_target.push_back(n);
    for (std::size_t s = 0; s < n; ++s) {
      const targets::TargetInfo* tptr = &target;
      campaigns.push_back({target.driver + "/seed" + std::to_string(s),
                           [tptr, s, &config](const core::CampaignContext& ctx) {
        ir::Module module = targets::build_target(tptr->source());
        const std::vector<std::uint8_t> seed =
            s == 0 ? tptr->seed(4)
                   : (s == 1 ? tptr->seed(9) : targets::make_mtif_buggy_seed());
        core::PbseDriver driver(module, "main", config.pbse_options(ctx));
        core::CampaignOutcome out;
        if (!driver.prepare(seed)) return out;
        if (config.hour10 > driver.clock().now())
          driver.run(config.hour10 - driver.clock().now());
        out.covered = driver.executor().num_covered();
        out.ticks = driver.clock().now();
        out.stats = driver.stats();
        const auto& bugs = driver.executor().bugs();
        const auto& phases = driver.bug_phases();
        out.bugs = bugs.size();
        for (std::size_t i = 0; i < bugs.size(); ++i) {
          const std::string site =
              bugs[i].function + ":" + std::to_string(bugs[i].line);
          out.rows.push_back(
              {bugs[i].site_key(), std::to_string(seed.size()),
               std::to_string(driver.phases().num_trap_phases),
               phases[i] == ~0u ? "seed" : std::to_string(phases[i]),
               vm::bug_kind_name(bugs[i].kind), site});
        }
        return out;
      }});
    }
  }

  core::ParallelCampaignRunner runner(config.parallel());
  const auto outcomes = runner.run(campaigns);

  TextTable table;
  table.header({"package", "test-driver", "s-size", "t-p", "b-p", "kind",
                "site", "CVE-analog"});

  std::map<std::string, unsigned> per_package;
  unsigned total = 0;
  std::size_t cursor = 0, target_idx = 0;
  for (const auto& target : targets::all_targets()) {
    std::set<std::string> seen_sites;  // dedup across this driver's seeds
    std::size_t cve_cursor = 0;
    bool any = false;
    for (std::size_t s = 0; s < campaigns_per_target[target_idx]; ++s) {
      for (const auto& row : outcomes[cursor + s].rows) {
        if (!seen_sites.insert(row[0]).second) continue;
        const std::string cve = cve_cursor < target.cve_analogs.size()
                                    ? target.cve_analogs[cve_cursor]
                                    : "N";
        ++cve_cursor;
        table.row({target.package, target.driver, row[1], row[2], row[3],
                   row[4], row[5], cve});
        ++per_package[target.package];
        ++total;
        any = true;
      }
    }
    cursor += campaigns_per_target[target_idx];
    ++target_idx;
    if (!any)
      table.row({target.package, target.driver, "-", "-", "-", "(no bugs)",
                 "-", "-"});
  }
  table.separator();
  for (const auto& [pkg, n] : per_package)
    table.row({pkg, "", "", "", "", "total: " + std::to_string(n), "", ""});
  std::printf("%s", table.render().c_str());
  std::printf("total unique bug sites found: %u  (paper: 21)\n", total);

  write_bench_json("BENCH_table3.json", "table3_bugs", config.jobs,
                   config.share_cache, runner, outcomes);
  return 0;
}
