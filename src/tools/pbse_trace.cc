// pbse-trace — offline analysis of engine traces (JSONL, see obs/).
//
//   pbse-trace summarize <trace.jsonl>
//       Per-phase coverage timeline, solver-time breakdown, and the
//       scheduler decision log of one run.
//   pbse-trace diff <old.jsonl> <new.jsonl>
//       Event-count and solver-time deltas between two runs.
//
// Both commands exit nonzero on malformed input, with the first bad line
// number — CI runs `summarize` on a freshly captured trace, so any drift
// between the sink and the reader fails the build.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/trace_reader.h"

namespace {

using pbse::obs::ParsedEvent;

int usage() {
  std::fprintf(stderr,
               "usage: pbse-trace summarize <trace.jsonl>\n"
               "       pbse-trace diff <old.jsonl> <new.jsonl>\n");
  return 2;
}

std::vector<ParsedEvent> load_or_die(const std::string& path) {
  std::vector<ParsedEvent> events;
  std::string error;
  if (!pbse::obs::read_trace_jsonl(path, events, error)) {
    std::fprintf(stderr, "pbse-trace: %s: %s\n", path.c_str(), error.c_str());
    std::exit(1);
  }
  return events;
}

/// Pairs B/E events per (cid, tid, name) and sums the durations per
/// (cat, name). Unbalanced ends are ignored; unbalanced begins contribute
/// nothing (their ends were cut off by the budget).
std::map<std::pair<std::string, std::string>, std::pair<std::uint64_t, std::uint64_t>>
duration_breakdown(const std::vector<ParsedEvent>& events) {
  std::map<std::pair<std::string, std::string>,
           std::pair<std::uint64_t, std::uint64_t>>
      out;  // (cat,name) -> (count, total ticks)
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::string>,
           std::vector<std::uint64_t>>
      open;  // (cid,tid,name) -> begin-ts stack
  for (const auto& e : events) {
    if (e.ph == 'B') {
      open[{e.cid, e.tid, e.name}].push_back(e.ts);
    } else if (e.ph == 'E') {
      auto it = open.find({e.cid, e.tid, e.name});
      if (it == open.end() || it->second.empty()) continue;
      const std::uint64_t begin = it->second.back();
      it->second.pop_back();
      auto& slot = out[{e.cat, e.name}];
      ++slot.first;
      slot.second += e.ts >= begin ? e.ts - begin : 0;
    }
  }
  return out;
}

int cmd_summarize(const std::string& path) {
  std::vector<ParsedEvent> events = load_or_die(path);
  // The sink drains per-thread rings, so the file is only ordered within a
  // thread; all timeline analysis below wants global tick order.
  std::stable_sort(events.begin(), events.end(),
                   [](const ParsedEvent& a, const ParsedEvent& b) {
                     return a.ts < b.ts;
                   });

  std::set<std::uint32_t> campaigns, threads;
  std::uint64_t ts_min = ~std::uint64_t{0}, ts_max = 0;
  for (const auto& e : events) {
    campaigns.insert(e.cid);
    threads.insert(e.tid);
    ts_min = std::min(ts_min, e.ts);
    ts_max = std::max(ts_max, e.ts);
  }
  if (events.empty()) ts_min = 0;
  std::printf("%s: %zu events, %zu campaign(s), %zu thread(s), ticks %" PRIu64
              "..%" PRIu64 "\n",
              path.c_str(), events.size(), campaigns.size(), threads.size(),
              ts_min, ts_max);

  // --- Per-phase coverage timeline -------------------------------------
  // Scheduler turns bracket phase execution; new_cover instants landing
  // inside a campaign's open turn belong to that turn's phase. Coverage
  // hit outside any turn (the concolic seed run) is charged to "seed".
  struct PhaseAgg {
    std::uint64_t turns = 0;
    std::uint64_t ticks = 0;
    std::uint64_t cover = 0;
    std::uint64_t first_cover_ts = ~std::uint64_t{0};
    std::uint64_t last_cover_ts = 0;
  };
  std::map<std::pair<std::uint32_t, std::string>, PhaseAgg> phases;
  std::map<std::uint32_t, std::pair<bool, std::string>> open_turn;  // cid
  std::map<std::uint32_t, std::uint64_t> turn_begin_ts;
  std::uint64_t sched_events = 0;
  for (const auto& e : events) {
    if (e.cat == "sched" && e.name == "turn") {
      ++sched_events;
      const std::string phase = "phase " + std::to_string(e.arg("phase"));
      if (e.ph == 'B') {
        open_turn[e.cid] = {true, phase};
        turn_begin_ts[e.cid] = e.ts;
      } else if (e.ph == 'E') {
        auto& agg = phases[{e.cid, open_turn[e.cid].second}];
        ++agg.turns;
        agg.ticks += e.ts - turn_begin_ts[e.cid];
        open_turn[e.cid].first = false;
      }
    } else if (e.cat == "vm" && e.name == "new_cover") {
      const auto it = open_turn.find(e.cid);
      const std::string phase = (it != open_turn.end() && it->second.first)
                                    ? it->second.second
                                    : std::string("seed");
      auto& agg = phases[{e.cid, phase}];
      ++agg.cover;
      agg.first_cover_ts = std::min(agg.first_cover_ts, e.ts);
      agg.last_cover_ts = std::max(agg.last_cover_ts, e.ts);
    }
  }
  std::printf("\ncoverage timeline (per campaign, per phase):\n");
  std::printf("  %-4s %-10s %6s %10s %7s %12s %12s\n", "cid", "phase",
              "turns", "ticks", "cover", "first-cover", "last-cover");
  for (const auto& [key, agg] : phases) {
    std::printf("  %-4u %-10s %6" PRIu64 " %10" PRIu64 " %7" PRIu64, key.first,
                key.second.c_str(), agg.turns, agg.ticks, agg.cover);
    if (agg.cover != 0)
      std::printf(" %12" PRIu64 " %12" PRIu64 "\n", agg.first_cover_ts,
                  agg.last_cover_ts);
    else
      std::printf(" %12s %12s\n", "-", "-");
  }

  // --- Solver-time breakdown -------------------------------------------
  const auto durations = duration_breakdown(events);
  // Reuse hit classes of the incremental pipeline, cheapest first (see
  // solver.h): exact cache -> domain memo. domain_memo_hits over
  // solver.queries is the reuse rate EXPERIMENTS.md tracks. Unknowns are
  // the query end events whose result arg is 2 (kUnknown): the search
  // budget ran out and the engine treated the branch as infeasible.
  std::uint64_t cache_hits = 0, shared_hits = 0, domain_memo_hits = 0,
                unknowns = 0;
  for (const auto& e : events) {
    if (e.cat != "solver") continue;
    if (e.name == "cache_hit") ++cache_hits;
    if (e.name == "shared_cache_hit") ++shared_hits;
    if (e.name == "domain_memo_hit") ++domain_memo_hits;
    if (e.ph == 'E' && e.name == "query" && e.arg("result") == 2) ++unknowns;
  }
  std::printf("\nsolver breakdown:\n");
  for (const auto& [key, cnt_ticks] : durations) {
    if (key.first != "solver") continue;
    std::printf("  %-12s %8" PRIu64 " calls  %10" PRIu64 " ticks\n",
                key.second.c_str(), cnt_ticks.first, cnt_ticks.second);
  }
  std::printf("  %-12s %8" PRIu64 " hits\n", "cache", cache_hits);
  if (shared_hits != 0)
    std::printf("  %-12s %8" PRIu64 " hits\n", "shared-cache", shared_hits);
  if (domain_memo_hits != 0)
    std::printf("  %-12s %8" PRIu64 " hits (memoized domain prefixes)\n",
                "domain-memo", domain_memo_hits);
  std::printf("  %-12s %8" PRIu64 " results (search budget exhausted)\n",
              "unknown", unknowns);

  // --- Scheduler decision log ------------------------------------------
  constexpr std::size_t kMaxLog = 40;
  std::printf("\nscheduler decisions (%" PRIu64 " turn events):\n",
              sched_events);
  std::size_t printed = 0;
  for (const auto& e : events) {
    if (e.cat != "sched") continue;
    if (printed == kMaxLog) {
      std::printf("  ... (truncated)\n");
      break;
    }
    ++printed;
    if (e.name == "turn" && e.ph == 'B') {
      std::printf("  [%10" PRIu64 "] cid %u: phase %" PRIu64 " turn %" PRIu64
                  " begins\n",
                  e.ts, e.cid, e.arg("phase"), e.arg("turn"));
    } else if (e.name == "turn" && e.ph == 'E') {
      std::printf("  [%10" PRIu64 "] cid %u: turn ends, %" PRIu64
                  " state(s), +%" PRIu64 " cover\n",
                  e.ts, e.cid, e.arg("states"), e.arg("cover"));
    } else if (e.name == "phase_activate") {
      std::printf("  [%10" PRIu64 "] cid %u: phase %" PRIu64
                  " activated with %" PRIu64 " state(s)\n",
                  e.ts, e.cid, e.arg("phase"), e.arg("states"));
    } else if (e.name == "phase_retired") {
      std::printf("  [%10" PRIu64 "] cid %u: phase %" PRIu64
                  " retired (reason %" PRIu64 ")\n",
                  e.ts, e.cid, e.arg("phase"), e.arg("reason"));
    } else {
      std::printf("  [%10" PRIu64 "] cid %u: %s %c\n", e.ts, e.cid,
                  e.name.c_str(), e.ph);
    }
  }
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  const std::vector<ParsedEvent> a = load_or_die(path_a);
  const std::vector<ParsedEvent> b = load_or_die(path_b);

  auto count_by_name = [](const std::vector<ParsedEvent>& events) {
    std::map<std::pair<std::string, std::string>, std::uint64_t> out;
    for (const auto& e : events) ++out[{e.cat, e.name}];
    return out;
  };
  const auto ca = count_by_name(a);
  const auto cb = count_by_name(b);

  std::printf("%s: %zu events  ->  %s: %zu events\n", path_a.c_str(), a.size(),
              path_b.c_str(), b.size());
  std::printf("\nevent-count deltas (cat/name: old -> new):\n");
  std::set<std::pair<std::string, std::string>> keys;
  for (const auto& [k, v] : ca) keys.insert(k);
  for (const auto& [k, v] : cb) keys.insert(k);
  bool any = false;
  for (const auto& k : keys) {
    const std::uint64_t va = ca.count(k) ? ca.at(k) : 0;
    const std::uint64_t vb = cb.count(k) ? cb.at(k) : 0;
    if (va == vb) continue;
    any = true;
    std::printf("  %s/%s: %" PRIu64 " -> %" PRIu64 " (%+" PRId64 ")\n",
                k.first.c_str(), k.second.c_str(), va, vb,
                static_cast<std::int64_t>(vb) - static_cast<std::int64_t>(va));
  }
  if (!any) std::printf("  (identical event counts)\n");

  const auto da = duration_breakdown(a);
  const auto db = duration_breakdown(b);
  std::printf("\nsolver-time deltas (ticks):\n");
  any = false;
  for (const auto& k : keys) {
    if (k.first != "solver") continue;
    const std::uint64_t va = da.count(k) ? da.at(k).second : 0;
    const std::uint64_t vb = db.count(k) ? db.at(k).second : 0;
    if (va == vb) continue;
    any = true;
    std::printf("  %s: %" PRIu64 " -> %" PRIu64 " (%+" PRId64 ")\n",
                k.second.c_str(), va, vb,
                static_cast<std::int64_t>(vb) - static_cast<std::int64_t>(va));
  }
  if (!any) std::printf("  (identical)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "summarize")
    return cmd_summarize(argv[2]);
  if (argc == 4 && std::string(argv[1]) == "diff")
    return cmd_diff(argv[2], argv[3]);
  return usage();
}
