// campaign_bench: runs ONE pass of a named benchmark workload in this
// process and prints the pass as one JSON object on stdout. run.py starts
// one process per pass, so the thread-local expression interner (which
// never shrinks) starts empty and peak RSS describes a single pass. NOTES.md
// describes the workloads, the metrics and the layer each metric belongs to.
//
//   campaign_bench --workload NAME --seed N [--trace] [--spans PATH]
//                  [--check] [--reference] [--tiny]
//
//   --trace      time every call into a layer (spans kept in memory) and
//                report per-layer self time; the spans are written to
//                --spans PATH as JSONL when the pass ends
//   --check      afterwards, replay every reported bug's input concretely
//   --reference  readelf-pbse-served only: run the same campaigns
//                in-process (the results the served loop must reproduce)
//   --tiny       small budgets and seeds (the benchmark's self-test)
//
// Campaigns run serially on one thread, each with a private solver and
// cache, so every deterministic field repeats exactly for a given seed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "concolic/concolic_executor.h"
#include "core/driver.h"
#include "core/pbse.h"
#include "phase/phase_analysis.h"
#include "serialize/campaign_codec.h"
#include "serialize/pbss.h"
#include "server/job.h"
#include "server/protocol.h"
#include "server/slice_runner.h"
#include "solver/solver.h"
#include "targets/targets.h"
#include "vm/executor.h"

namespace pbse::bench {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// The server's default scheduling quantum (SliceContext::slice_ticks). The
/// in-process workloads cut their search at the same tick boundaries, so a
/// slice is the same amount of campaign progress on every workload.
constexpr std::uint64_t kSliceTicks = 50'000;
/// Extra set-ups timed per campaign (build_target + constructor, discarded).
constexpr int kSetupProbes = 3;

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time this thread has used. Campaigns run on one thread, so it is the
/// campaign's own work, without the time other processes on a shared host
/// hold the core.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and CPU time since construction or the last lap().
class Stopwatch {
 public:
  Stopwatch() : wall_(SteadyClock::now()), cpu_(thread_cpu_seconds()) {}

  /// Returns {wall, cpu} seconds since the previous lap and restarts.
  std::pair<double, double> lap() {
    const auto wall = SteadyClock::now();
    const double cpu = thread_cpu_seconds();
    const std::pair<double, double> out{seconds_between(wall_, wall), cpu - cpu_};
    wall_ = wall;
    cpu_ = cpu;
    return out;
  }

 private:
  SteadyClock::time_point wall_;
  double cpu_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool check = false;
  bool reference = false;
  bool tiny = false;
  std::string spans_path;
};

// --- Spans -------------------------------------------------------------------

/// In-memory span recorder. When disabled, begin/end cost one branch.
class SpanLog {
 public:
  SpanLog(bool enabled, SteadyClock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  void set_campaign(std::uint32_t id) { campaign_ = id; }

  void begin(const char* name) {
    if (!enabled_) return;
    const int parent = stack_.empty() ? -1 : stack_.back();
    stack_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back({name, SteadyClock::now(), {}, parent, campaign_});
  }
  void end() {
    if (!enabled_) return;
    spans_[stack_.back()].end = SteadyClock::now();
    stack_.pop_back();
  }

  /// Each span's duration minus the part its children cover, summed by name
  /// over the spans inside a `root` span (the part of the pass that counts
  /// towards wall time).
  std::map<std::string, double> self_seconds(const char* root) const {
    std::vector<double> self(spans_.size());
    std::vector<bool> inside(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[i] = seconds_between(s.start, s.end);
      inside[i] = std::strcmp(s.name, root) == 0 ||
                  (s.parent >= 0 && inside[s.parent]);
      if (s.parent >= 0) self[s.parent] -= self[i];
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (inside[i]) out[spans_[i].name] += self[i];
    return out;
  }

  /// Durations of every span called `name`, in start order.
  std::vector<double> durations(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (std::strcmp(s.name, name) == 0)
        out.push_back(seconds_between(s.start, s.end));
    return out;
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                    "\"end_s\":%.9f,\"parent\":%d,\"campaign\":%u}\n",
                    i, s.name, seconds_between(origin_, s.start),
                    seconds_between(origin_, s.end), s.parent, s.campaign);
      out << line;
    }
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  struct Span {
    const char* name;
    SteadyClock::time_point start, end;
    int parent;
    std::uint32_t campaign;
  };

  bool enabled_;
  SteadyClock::time_point origin_;
  std::uint32_t campaign_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name) : log_(log) { log_.begin(name); }
  ~SpanScope() { log_.end(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
};

// --- Pass state ------------------------------------------------------------------

struct CampaignResult {
  std::string name;
  std::string target;
  std::uint64_t covered = 0;
  std::uint64_t ticks = 0;
  /// Ticks used past the search budget (0 when the campaign stopped early).
  std::uint64_t overrun = 0;
  std::vector<vm::BugReport> bugs;
  std::vector<std::uint8_t> snapshot;
  Stats stats;
};

/// Work counts summed over every prepare() call of the pass.
struct PrepareCounts {
  std::uint64_t calls = 0, instructions = 0, c_ticks = 0, seed_states = 0;
  std::uint64_t bbvs = 0, kmeans_work = 0, p_ticks = 0;
};

struct Pass {
  Options opt;
  SpanLog spans;
  /// Sum of the campaigns' timed sections (set-up to final result), in wall
  /// time and in this thread's CPU time.
  double wall_s = 0;
  double cpu_s = 0;
  /// The same sections cut into segments (a campaign's set-up, its prepare()
  /// call, each slice), in wall and CPU time. Every pass of a workload and
  /// seed cuts the same segments, so run.py can compare them pass by pass.
  std::vector<double> segment_wall_s, segment_cpu_s;
  std::vector<double> setup_s;
  /// One sample per slice: kSliceTicks of search, one run_job_slice call on
  /// the served workload, or one prepare() call on pngtest-prepare.
  std::vector<double> slice_s;
  std::vector<CampaignResult> campaigns;
  PrepareCounts prepare;
  /// Traced only: phase::analyze_phases replayed once per campaign, scaled
  /// by the number of prepare() calls it stands for.
  double phase_replay_s = 0;
  std::uint64_t turns = 0;
  std::uint64_t slices = 0;
  double peak_rss_mb = 0;
  std::vector<std::string> errors;

  explicit Pass(const Options& o)
      : opt(o), spans(o.trace, SteadyClock::now()) {}

  /// Ends a segment at `watch`; returns its CPU time.
  double segment(Stopwatch& watch) {
    const auto [wall, cpu] = watch.lap();
    segment_wall_s.push_back(wall);
    segment_cpu_s.push_back(cpu);
    return cpu;
  }

  /// Tags the spans that follow with the next campaign's id.
  void begin_campaign() {
    spans.set_campaign(static_cast<std::uint32_t>(campaigns.size()));
  }
};

const targets::TargetInfo& target(const std::string& driver) {
  for (const targets::TargetInfo& t : targets::all_targets())
    if (t.driver == driver) return t;
  throw std::runtime_error("unknown target " + driver);
}

void note_prepare(Pass& pass, core::PbseDriver& driver) {
  const concolic::ConcolicResult& c = driver.concolic_result();
  pass.prepare.calls += 1;
  pass.prepare.instructions += c.instructions;
  pass.prepare.c_ticks += driver.c_time_ticks();
  pass.prepare.seed_states += c.seed_states.size();
  pass.prepare.bbvs += c.bbvs.size();
  pass.prepare.kmeans_work += driver.phases().work;
  pass.prepare.p_ticks += driver.p_time_ticks();
}

/// Traced only: times phase::analyze_phases on the campaign's concolic BBVs,
/// outside the campaign's wall time, and checks it reproduces the division
/// prepare() made. prepare() = concolic run + this, so the concolic layer's
/// self time is prepare time minus the replay.
void replay_phases(Pass& pass, core::PbseDriver& driver,
                   const phase::PhaseOptions& options, std::uint64_t prepares) {
  if (!pass.opt.trace) return;
  const auto t0 = SteadyClock::now();
  phase::PhaseAnalysisResult replay;
  {
    SpanScope span(pass.spans, "phase.replay");
    replay = phase::analyze_phases(driver.concolic_result().bbvs, options);
  }
  pass.phase_replay_s +=
      seconds_between(t0, SteadyClock::now()) * static_cast<double>(prepares);
  if (replay.work != driver.phases().work ||
      replay.chosen_k != driver.phases().chosen_k)
    pass.errors.push_back("phase replay differs from prepare()");
}

/// Times kSetupProbes set-ups in CPU time: build_target plus `construct` (a
/// driver or KleeRun constructor, which runs analysis::analyze_module).
void probe_setup(Pass& pass, const targets::TargetInfo& info,
                 const std::function<void(const ir::Module&)>& construct) {
  for (int i = 0; i < kSetupProbes; ++i) {
    const double c0 = thread_cpu_seconds();
    const ir::Module module = targets::build_target(info.source());
    construct(module);
    pass.setup_s.push_back(thread_cpu_seconds() - c0);
  }
}

core::PbseOptions pbse_options(std::uint64_t seed, bool served) {
  core::PbseOptions options;
  options.rng_seed = seed;
  // JobSpec carries no k-means seed, so served campaigns (and their
  // in-process reference) keep the engine default.
  if (!served) options.phase.kmeans_seed = seed;
  return options;
}

void record(Pass& pass, CampaignResult r, vm::Executor& executor,
            std::uint64_t ticks, const Stats& stats) {
  r.covered = executor.num_covered();
  r.ticks = ticks;
  r.bugs = executor.bugs();
  r.stats = stats;
  pass.campaigns.push_back(std::move(r));
}

// --- Workload bodies ----------------------------------------------------------

/// Alg. 1 in-process: set-up, prepare(), then step_turn() cut into
/// kSliceTicks slices exactly where server::run_job_slice cuts a job.
/// `search_budget` 0 stops after prepare() (pngtest-prepare).
void pbse_campaign(Pass& pass, const std::string& driver_name, unsigned scale,
                   const core::PbseOptions& options,
                   std::uint64_t search_budget) {
  const targets::TargetInfo& info = target(driver_name);
  probe_setup(pass, info, [&options](const ir::Module& m) {
    core::PbseDriver probe(m, "main", options);
  });
  pass.begin_campaign();
  CampaignResult r;
  r.name = driver_name + "/seed-scale-" + std::to_string(scale);
  r.target = driver_name;
  const std::vector<std::uint8_t> seed = info.seed(scale);

  std::optional<ir::Module> module;
  std::unique_ptr<core::PbseDriver> driver;
  const auto start = SteadyClock::now();
  const double cpu_start = thread_cpu_seconds();
  Stopwatch watch;
  {
    SpanScope campaign(pass.spans, "campaign");
    {
      SpanScope span(pass.spans, "lang.build");
      module.emplace(targets::build_target(info.source()));
    }
    {
      SpanScope span(pass.spans, "core.construct");
      driver = std::make_unique<core::PbseDriver>(*module, "main", options);
    }
    pass.setup_s.push_back(pass.segment(watch));
    bool prepared = false;
    {
      SpanScope span(pass.spans, "core.prepare");
      prepared = driver->prepare(seed);
    }
    const double prepare_s = pass.segment(watch);
    if (search_budget == 0) pass.slice_s.push_back(prepare_s);
    if (prepared && search_budget > 0) {
      driver->begin_run();
      const std::uint64_t run_end = driver->clock().now() + search_budget;
      const Deadline overall(driver->clock(), search_budget);
      bool more = true;
      while (more && driver->clock().now() < run_end) {
        const std::uint64_t slice_end =
            std::min(run_end, driver->clock().now() + kSliceTicks);
        while (more && driver->clock().now() < slice_end) {
          SpanScope span(pass.spans, "core.turn");
          more = driver->step_turn(overall);
          ++pass.turns;
        }
        pass.slice_s.push_back(pass.segment(watch));
        ++pass.slices;
      }
      if (driver->clock().now() > run_end)
        r.overrun = driver->clock().now() - run_end;
    }
  }
  pass.wall_s += seconds_between(start, SteadyClock::now());
  pass.cpu_s += thread_cpu_seconds() - cpu_start;

  note_prepare(pass, *driver);
  SpanScope epilogue(pass.spans, "epilogue");
  replay_phases(pass, *driver, options.phase, 1);
  {
    SpanScope span(pass.spans, "serialize.encode");
    r.snapshot = serialize::CampaignCodec::snapshot(*driver);
  }
  record(pass, std::move(r), driver->executor(), driver->clock().now(),
         driver->stats());
}

/// KLEE baseline: whole-file symbolic input, run in kSliceTicks slices
/// through KleeRun::run_sliced (tick-identical to one run(budget) call).
void klee_campaign(Pass& pass, search::SearcherKind searcher,
                   std::uint32_t sym_size, std::uint64_t budget) {
  const targets::TargetInfo& info = target("readelf");
  core::KleeRunOptions options;
  options.searcher = searcher;
  options.sym_file_size = sym_size;
  options.rng_seed = pass.opt.seed;
  probe_setup(pass, info, [&options](const ir::Module& m) {
    core::KleeRun probe(m, "main", options);
  });
  pass.begin_campaign();
  CampaignResult r;
  r.name = std::string(search::searcher_kind_name(searcher)) + "/sym-" +
           std::to_string(sym_size);
  r.target = "readelf";

  std::optional<ir::Module> module;
  std::unique_ptr<core::KleeRun> run;
  const auto start = SteadyClock::now();
  const double cpu_start = thread_cpu_seconds();
  Stopwatch watch;
  {
    SpanScope campaign(pass.spans, "campaign");
    {
      SpanScope span(pass.spans, "lang.build");
      module.emplace(targets::build_target(info.source()));
    }
    {
      SpanScope span(pass.spans, "core.construct");
      run = std::make_unique<core::KleeRun>(*module, "main", options);
    }
    pass.setup_s.push_back(pass.segment(watch));
    while (run->clock().now() < budget && run->num_states() > 0) {
      const std::uint64_t slice_end =
          std::min(budget, run->clock().now() + kSliceTicks);
      {
        SpanScope span(pass.spans, "klee.run");
        run->run_sliced(budget - run->clock().now(), [&run, slice_end] {
          return run->clock().now() >= slice_end;
        });
      }
      pass.slice_s.push_back(pass.segment(watch));
      ++pass.slices;
    }
    if (run->clock().now() > budget) r.overrun = run->clock().now() - budget;
  }
  pass.wall_s += seconds_between(start, SteadyClock::now());
  pass.cpu_s += thread_cpu_seconds() - cpu_start;

  SpanScope epilogue(pass.spans, "epilogue");
  {
    SpanScope span(pass.spans, "serialize.encode");
    r.snapshot = serialize::CampaignCodec::snapshot(*run);
  }
  record(pass, std::move(r), run->executor(), run->clock().now(),
         run->stats());
}

server::JobRecord served_job(std::uint64_t seed, unsigned scale,
                             std::uint64_t budget) {
  server::JobRecord rec;
  rec.spec.mode = server::JobMode::kPbse;
  rec.spec.target = "readelf";
  rec.spec.budget_ticks = budget;
  rec.spec.rng_seed = seed;
  rec.spec.seed_scale = scale;
  return rec;
}

/// The traced mirror of server::run_job_slice's pbse path, as public calls:
/// build_target, constructor, prepare, restore, the step_turn loop, then
/// snapshot. run.py checks its final bytes equal the untraced loop's.
bool mirrored_slice(Pass& pass, server::JobRecord& rec,
                    const core::PbseOptions& options) {
  SpanScope slice(pass.spans, "server.slice");
  const targets::TargetInfo& info = target(rec.spec.target);
  std::optional<ir::Module> module;
  {
    SpanScope span(pass.spans, "lang.build");
    module.emplace(targets::build_target(info.source()));
  }
  std::unique_ptr<core::PbseDriver> driver;
  {
    SpanScope span(pass.spans, "core.construct");
    driver = std::make_unique<core::PbseDriver>(*module, "main", options);
  }
  bool prepared = false;
  {
    SpanScope span(pass.spans, "core.prepare");
    prepared = driver->prepare(info.seed(rec.spec.seed_scale));
  }
  note_prepare(pass, *driver);
  bool more = true;
  if (!rec.snapshot.empty()) {
    SpanScope span(pass.spans, "serialize.decode");
    serialize::CampaignCodec::restore(*driver, rec.snapshot);
  } else if (!prepared) {
    more = false;
    rec.run_end_ticks = driver->clock().now();
  } else {
    driver->begin_run();
    rec.run_end_ticks = driver->clock().now() + rec.spec.budget_ticks;
  }
  const std::uint64_t slice_end =
      std::min(rec.run_end_ticks, driver->clock().now() + kSliceTicks);
  const Deadline overall(driver->clock(),
                         rec.run_end_ticks - driver->clock().now());
  while (more && driver->clock().now() < slice_end) {
    SpanScope span(pass.spans, "core.turn");
    more = driver->step_turn(overall);
    ++pass.turns;
  }
  {
    SpanScope span(pass.spans, "serialize.encode");
    rec.snapshot = serialize::CampaignCodec::snapshot(*driver);
  }
  return !more || driver->clock().now() >= rec.run_end_ticks;
}

/// A readelf pbSE campaign driven the way pbse-serve drives it: a loop over
/// server::run_job_slice at the server's slice size (the traced run mirrors
/// it with public calls instead). Afterwards the final snapshot is restored
/// into a fresh campaign to read its bug reports and stats.
void served_campaign(Pass& pass, unsigned scale, std::uint64_t budget) {
  const core::PbseOptions options = pbse_options(pass.opt.seed, true);
  const targets::TargetInfo& info = target("readelf");
  probe_setup(pass, info, [&options](const ir::Module& m) {
    core::PbseDriver probe(m, "main", options);
  });
  pass.begin_campaign();
  CampaignResult r;
  r.name = "readelf/seed-scale-" + std::to_string(scale) + "/served";
  r.target = "readelf";
  server::JobRecord rec = served_job(pass.opt.seed, scale, budget);
  server::SliceContext ctx;
  ctx.slice_ticks = kSliceTicks;
  const std::uint64_t prepares_before = pass.prepare.calls;

  const auto start = SteadyClock::now();
  const double cpu_start = thread_cpu_seconds();
  Stopwatch watch;
  {
    SpanScope campaign(pass.spans, "campaign");
    bool done = false;
    while (!done) {
      done = pass.opt.trace ? mirrored_slice(pass, rec, options)
                            : server::run_job_slice(rec, ctx);
      pass.slice_s.push_back(pass.segment(watch));
      ++pass.slices;
    }
  }
  pass.wall_s += seconds_between(start, SteadyClock::now());
  pass.cpu_s += thread_cpu_seconds() - cpu_start;

  SpanScope epilogue(pass.spans, "epilogue");
  const ir::Module module = targets::build_target(info.source());
  core::PbseDriver driver(module, "main", options);
  driver.prepare(info.seed(scale));
  serialize::CampaignCodec::restore(driver, rec.snapshot);
  replay_phases(pass, driver, options.phase,
                pass.prepare.calls - prepares_before);
  if (rec.run_end_ticks > 0 && driver.clock().now() > rec.run_end_ticks)
    r.overrun = driver.clock().now() - rec.run_end_ticks;
  r.snapshot = rec.snapshot;
  record(pass, std::move(r), driver.executor(), driver.clock().now(),
         driver.stats());
}

// --- Workloads -------------------------------------------------------------------

/// Search budgets in ticks, and the pngtest seed scales. The served
/// campaigns run half the golden table1-quick pbSE rows' 1M ticks, because
/// serving adds 40 to 100% to the in-process time.
struct Budgets {
  std::uint64_t served, klee;
  unsigned png_small, png_large;
};

void run_workload(Pass& pass) {
  const Budgets b = pass.opt.tiny ? Budgets{60'000, 60'000, 1, 2}
                                  : Budgets{500'000, 300'000, 6, 12};
  const std::string& w = pass.opt.workload;
  if (w == "readelf-klee") {
    for (search::SearcherKind kind :
         {search::SearcherKind::kDefault, search::SearcherKind::kRandomPath,
          search::SearcherKind::kMD2U, search::SearcherKind::kBFS})
      klee_campaign(pass, kind, 1000, b.klee);
  } else if (w == "pngtest-prepare") {
    for (unsigned scale : {b.png_small, b.png_large})
      pbse_campaign(pass, "pngtest", scale, pbse_options(pass.opt.seed, false),
                    0);
  } else if (w == "readelf-pbse-served") {
    for (unsigned scale : {2u, 12u}) {
      if (pass.opt.reference)
        pbse_campaign(pass, "readelf", scale, pbse_options(pass.opt.seed, true),
                      b.served);
      else
        served_campaign(pass, scale, b.served);
    }
  } else {
    throw std::runtime_error("unknown workload " + w);
  }
}

// --- Checks ----------------------------------------------------------------------

/// Replays every distinct (site, input) pair concretely, with off-path bug
/// checks off; the report must recur at the same site_key().
std::size_t replay_bugs(Pass& pass) {
  std::set<std::pair<std::string, std::vector<std::uint8_t>>> seen;
  std::size_t replayed = 0;
  for (const CampaignResult& c : pass.campaigns) {
    const ir::Module module = targets::build_target(target(c.target).source());
    for (const vm::BugReport& bug : c.bugs) {
      if (!seen.insert({bug.site_key(), bug.input}).second) continue;
      VClock clock;
      Stats stats;
      Solver solver(clock, stats);
      vm::Executor executor(module, solver, clock, stats);
      concolic::ConcolicOptions options;
      options.record_trace = false;
      options.offpath_bug_checks = false;
      concolic::run_concolic(executor, "main", bug.input, options);
      bool hit = false;
      for (const vm::BugReport& b : executor.bugs())
        hit = hit || b.site_key() == bug.site_key();
      if (!hit)
        pass.errors.push_back(c.name + ": bug " + bug.site_key() +
                              " does not replay");
      ++replayed;
    }
  }
  return replayed;
}

// --- Output ------------------------------------------------------------------------

server::Json number_list(const std::vector<double>& values) {
  server::Json list = server::Json::array();
  for (double v : values) list.push_back(server::Json::number_double(v));
  return list;
}

std::string fnv_hex(const std::vector<std::uint8_t>& bytes) {
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    serialize::fnv1a(bytes.data(), bytes.size())));
  return hex;
}

void print_pass(Pass& pass, std::size_t replayed) {
  using server::Json;
  // Per-layer counts over the campaigns' final stats.
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t ticks = 0, covered = 0, solver_ticks = 0, searched = 0;
  std::uint64_t calls = 0, overrun = 0, snapshot_bytes = 0;
  std::set<std::string> sites;
  Json campaigns = Json::array();
  for (const CampaignResult& c : pass.campaigns) {
    ticks += c.ticks;
    covered += c.covered;
    overrun += c.overrun;
    snapshot_bytes += c.snapshot.size();
    Json bugs = Json::array();
    for (const vm::BugReport& b : c.bugs) {
      sites.insert(b.site_key());
      bugs.push_back(Json::string(b.site_key() + "#" + fnv_hex(b.input)));
    }
    Json campaign = Json::object();
    campaign.set("name", Json::string(c.name));
    campaign.set("covered", Json::number(c.covered));
    campaign.set("ticks", Json::number(c.ticks));
    campaign.set("bugs", std::move(bugs));
    campaign.set("snapshot_bytes", Json::number(c.snapshot.size()));
    campaign.set("snapshot_fnv", Json::string(fnv_hex(c.snapshot)));
    campaigns.push_back(std::move(campaign));

    const Stats& s = c.stats;
    counts["vm.forks"] += s.get("executor.forks");
    counts["vm.static_edge_kills"] += s.get("executor.static_edge_kills");
    counts["vm.subsumed_barren"] += s.get("executor.subsumed_barren");
    counts["vm.fork_unknown"] += s.get("executor.fork_unknown");
    counts["solver.queries"] += s.get("solver.queries");
    counts["solver.search_unknown"] += s.get("solver.search_unknown");
    counts["core.seed_states_activated"] +=
        s.get("pbse.seed_states_activated");
    if (const obs::Histogram* h = s.histogram("solver.query_ticks"))
      solver_ticks += h->sum();
    calls += s.get("solver.queries") + s.get("solver.solve_all");
    searched += s.get("solver.search_sat") + s.get("solver.search_unsat") +
                s.get("solver.search_unknown");
  }
  counts["solver.ticks"] = solver_ticks;
  counts["core.turns"] = pass.turns;
  counts["core.budget_overrun_ticks"] = overrun;
  counts["concolic.instructions"] = pass.prepare.instructions;
  counts["concolic.ticks"] = pass.prepare.c_ticks;
  counts["concolic.seed_states"] = pass.prepare.seed_states;
  counts["phase.bbvs"] = pass.prepare.bbvs;
  counts["phase.kmeans_work"] = pass.prepare.kmeans_work;
  counts["phase.ticks"] = pass.prepare.p_ticks;
  counts["serialize.snapshot_bytes"] = snapshot_bytes;
  counts["server.slices"] =
      pass.opt.workload == "readelf-pbse-served" && !pass.opt.reference
          ? pass.slices
          : 0;

  Json out = Json::object();
  out.set("workload", Json::string(pass.opt.workload));
  out.set("seed", Json::number(pass.opt.seed));
  out.set("wall_s", Json::number_double(pass.wall_s));
  out.set("cpu_s", Json::number_double(pass.cpu_s));
  out.set("ticks", Json::number(ticks));
  out.set("covered", Json::number(covered));
  out.set("peak_rss_mb", Json::number_double(pass.peak_rss_mb));
  Json site_list = Json::array();
  for (const std::string& site : sites) site_list.push_back(Json::string(site));
  out.set("bug_sites", std::move(site_list));
  out.set("setup_s", number_list(pass.setup_s));
  out.set("slice_s", number_list(pass.slice_s));
  out.set("segment_wall_s", number_list(pass.segment_wall_s));
  out.set("segment_cpu_s", number_list(pass.segment_cpu_s));
  out.set("campaigns", std::move(campaigns));
  Json count_obj = Json::object();
  for (const auto& [name, value] : counts)
    count_obj.set(name, Json::number(value));
  out.set("counts", std::move(count_obj));
  out.set("solver_tick_share",
          Json::number_double(ticks == 0 ? 0.0
                                         : static_cast<double>(solver_ticks) /
                                               static_cast<double>(ticks)));
  out.set("solver_presearch_frac",
          Json::number_double(
              calls == 0 ? 0.0
                         : 1.0 - static_cast<double>(std::min(searched, calls)) /
                                     static_cast<double>(calls)));
  if (pass.opt.trace) {
    // Layer self time: the benchmark times prepare() whole, so the concolic
    // layer is prepare's self time minus the phase replay.
    std::map<std::string, double> self = pass.spans.self_seconds("campaign");
    const std::pair<const char*, double> layers[] = {
        {"lang", self["lang.build"]},
        {"core.construct", self["core.construct"]},
        {"concolic", self["core.prepare"] - pass.phase_replay_s},
        {"phase", pass.phase_replay_s},
        {"explore", self["core.turn"] + self["klee.run"]},
        {"serialize", self["serialize.encode"] + self["serialize.decode"]},
        {"server", self["server.slice"]},
        {"bench", self["campaign"]},
    };
    Json layer_obj = Json::object();
    for (const auto& [name, secs] : layers)
      layer_obj.set(name, Json::number_double(secs));
    out.set("layers", std::move(layer_obj));
    out.set("prepare_s", number_list(pass.spans.durations("core.prepare")));
    out.set("turn_s", number_list(pass.spans.durations("core.turn")));
    out.set("encode_s", number_list(pass.spans.durations("serialize.encode")));
    out.set("decode_s", number_list(pass.spans.durations("serialize.decode")));
  }
  out.set("replayed", Json::number(replayed));
  Json errors = Json::array();
  for (const std::string& e : pass.errors) errors.push_back(Json::string(e));
  out.set("errors", std::move(errors));
  std::printf("%s\n", out.dump().c_str());
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return false;
    } else if (a == "--spans" && has_value) {
      opt.spans_path = argv[++i];
    } else if (a == "--trace") {
      opt.trace = true;
    } else if (a == "--check") {
      opt.check = true;
    } else if (a == "--reference") {
      opt.reference = true;
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else {
      return false;
    }
  }
  return !opt.workload.empty();
}

}  // namespace
}  // namespace pbse::bench

int main(int argc, char** argv) {
  using namespace pbse::bench;
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N [--trace] [--spans PATH] "
                 "[--check] [--reference] [--tiny]\n",
                 argv[0]);
    return 2;
  }
  Pass pass(opt);
  try {
    run_workload(pass);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    pass.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    const std::size_t replayed = opt.check ? replay_bugs(pass) : 0;
    if (!opt.spans_path.empty()) pass.spans.write_jsonl(opt.spans_path);
    print_pass(pass, replayed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
  return pass.errors.empty() ? 0 : 3;
}
