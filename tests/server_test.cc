// pbse-serve: wire protocol, work-stealing scheduler, and daemon.
//
// The load-bearing properties:
//  * a job run in slices by the scheduler produces the SAME final campaign
//    snapshot, byte for byte, as an uninterrupted in-process run (slicing
//    cuts only at batch/turn boundaries — see tests/serialize_test.cc for
//    why that preserves the RNG stream);
//  * a job resumed from a mid-run checkpoint (the crash-recovery path)
//    finishes identically to one that was never interrupted;
//  * work stealing migrates jobs between workers without changing results
//    (jobs are pure snapshot bytes between slices);
//  * a slice that continues its thread's resident campaign leaves the same
//    record as one that restores the campaign from the record's bytes, and
//    any other record takes the restoring path.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "core/driver.h"
#include "core/pbse.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "serialize/campaign_codec.h"
#include "serialize/frame.h"
#include "serialize/pbss.h"
#include "server/client.h"
#include "server/job.h"
#include "server/protocol.h"
#include "server/scheduler.h"
#include "server/server.h"
#include "server/slice_runner.h"
#include "server/worker_pool.h"
#include "targets/targets.h"

namespace pbse::server {
namespace {

// --- Json / protocol --------------------------------------------------------

TEST(Protocol, JsonRoundTrip) {
  Json obj = Json::object();
  obj.set("name", Json::string("hello \"world\"\n"));
  obj.set("count", Json::number(12345678901234ull));
  obj.set("flag", Json::boolean(true));
  obj.set("nothing", Json::null());
  Json arr = Json::array();
  arr.push_back(Json::number(1));
  arr.push_back(Json::string("two"));
  obj.set("items", std::move(arr));

  Json back = parse_json(obj.dump());
  EXPECT_EQ(back.get_string("name", ""), "hello \"world\"\n");
  EXPECT_EQ(back.get_u64("count", 0), 12345678901234ull);
  EXPECT_TRUE(back.get_bool("flag", false));
  EXPECT_TRUE(back.get("nothing").is_null());
  ASSERT_EQ(back.get("items").items().size(), 2u);
  EXPECT_EQ(back.get("items").items()[1].as_string(), "two");
  // Canonical writer: object keys are sorted, so dump() is stable.
  EXPECT_EQ(back.dump(), obj.dump());
}

TEST(Protocol, JsonRejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), JsonError);
  EXPECT_THROW(parse_json("[1,2"), JsonError);
  EXPECT_THROW(parse_json("\"unterminated"), JsonError);
  EXPECT_THROW(parse_json("trueX"), JsonError);
  EXPECT_THROW(parse_json("{} trailing"), JsonError);
  EXPECT_THROW(parse_json(""), JsonError);
}

// Job ids and tick budgets are read with as_u64(), so it must refuse every
// number that is not exactly a u64 instead of casting it; and every number
// must dump as text a JSON reader accepts.
TEST(Protocol, JsonNumbersReadAsU64OnlyWhenExact) {
  for (const char* text :
       {"1e300", "-1", "1.5", "1e20", "18446744073709551616.0"})
    EXPECT_THROW(parse_json(text).as_u64(), JsonError) << text;
  EXPECT_EQ(parse_json("18446744073709551615").as_u64(),
            18446744073709551615ull);
  EXPECT_EQ(parse_json("3.0").as_u64(), 3u);
  EXPECT_EQ(Json::number(18446744073709551615ull).dump(),
            "18446744073709551615");
  EXPECT_EQ(Json::number_double(std::nan("")).dump(), "null");
  // Nesting is capped, so one message cannot exhaust the parser's stack.
  EXPECT_NO_THROW(parse_json(std::string(200, '[') + std::string(200, ']')));
  EXPECT_THROW(parse_json(std::string(100'000, '[')), JsonError);
}

TEST(Protocol, FramingRoundTripsOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Json msg = Json::object();
  msg.set("cmd", Json::string("ping"));
  msg.set("n", Json::number(42));
  send_message(fds[0], msg);
  Json got;
  ASSERT_TRUE(recv_message(fds[1], got));
  EXPECT_EQ(got.get_string("cmd", ""), "ping");
  EXPECT_EQ(got.get_u64("n", 0), 42u);
  // Clean EOF at a frame boundary is "no more messages", not an error.
  ::close(fds[0]);
  EXPECT_FALSE(recv_message(fds[1], got));
  ::close(fds[1]);
}

/// Writes `body` behind a JSON-lane length prefix, bypassing the encoder.
void write_raw_message(int fd, const std::string& body) {
  const auto n = static_cast<std::uint32_t>(body.size());
  const unsigned char hdr[4] = {
      static_cast<unsigned char>(n), static_cast<unsigned char>(n >> 8),
      static_cast<unsigned char>(n >> 16), static_cast<unsigned char>(n >> 24)};
  ASSERT_EQ(::write(fd, hdr, 4), 4);
  ASSERT_EQ(::write(fd, body.data(), body.size()),
            static_cast<ssize_t>(body.size()));
}

TEST(Protocol, MalformedBodyIsAProtocolError) {
  // Server::handle_client catches only ProtocolError around recv_message,
  // so a body that is not JSON must surface as exactly that type.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  write_raw_message(fds[0], "{\"cmd\":");
  Json got;
  EXPECT_THROW(recv_message(fds[1], got), ProtocolError);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Protocol, OversizedFrameLengthIsRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A corrupt length prefix must fail fast, not attempt a huge allocation.
  unsigned char hdr[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  ASSERT_EQ(::write(fds[0], hdr, 4), 4);
  Json got;
  EXPECT_THROW(recv_message(fds[1], got), ProtocolError);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Protocol, JobSpecRoundTripAndValidation) {
  JobSpec spec;
  spec.mode = JobMode::kKlee;
  spec.target = "gif2tiff";
  spec.budget_ticks = 123456;
  spec.rng_seed = 7;
  spec.searcher = search::SearcherKind::kRandomPath;
  spec.sym_size = 321;
  spec.seed_scale = 9;
  spec.slice_ticks = 1000;
  JobSpec back = JobSpec::from_json(parse_json(spec.to_json().dump()));
  EXPECT_EQ(back.mode, JobMode::kKlee);
  EXPECT_EQ(back.target, "gif2tiff");
  EXPECT_EQ(back.budget_ticks, 123456u);
  EXPECT_EQ(back.rng_seed, 7u);
  EXPECT_EQ(back.searcher, search::SearcherKind::kRandomPath);
  EXPECT_EQ(back.sym_size, 321u);
  EXPECT_EQ(back.seed_scale, 9u);
  EXPECT_EQ(back.slice_ticks, 1000u);

  Json bad_mode = spec.to_json();
  bad_mode.set("mode", Json::string("fuzz"));
  EXPECT_THROW(JobSpec::from_json(bad_mode), ProtocolError);
  Json bad_searcher = spec.to_json();
  bad_searcher.set("searcher", Json::string("astar"));
  EXPECT_THROW(JobSpec::from_json(bad_searcher), ProtocolError);
  Json no_target = spec.to_json();
  no_target.set("target", Json::string(""));
  EXPECT_THROW(JobSpec::from_json(no_target), ProtocolError);
  Json zero_budget = spec.to_json();
  zero_budget.set("budget_ticks", Json::number(std::uint64_t{0}));
  EXPECT_THROW(JobSpec::from_json(zero_budget), ProtocolError);
}

// --- Scheduler ---------------------------------------------------------------

/// Event sink safe to fill from worker threads. Inspect only after
/// Scheduler::stop() has joined the workers.
struct EventLog {
  std::mutex mu;
  std::vector<JobEvent> events;
  Scheduler::EventFn fn() {
    return [this](const JobEvent& ev) {
      std::lock_guard<std::mutex> lock(mu);
      events.push_back(ev);
    };
  }
};

core::KleeRunOptions klee_options_for(const JobSpec& spec) {
  core::KleeRunOptions options;
  options.searcher = spec.searcher;
  options.sym_file_size = spec.sym_size;
  options.rng_seed = spec.rng_seed;
  return options;
}

TEST(Scheduler, SlicedKleeJobMatchesMonolithicRun) {
  JobSpec spec;
  spec.mode = JobMode::kKlee;
  spec.target = "readelf";
  spec.budget_ticks = 120'000;
  spec.sym_size = 100;
  spec.slice_ticks = 30'000;  // forces >= 4 slices

  SchedulerOptions options;
  options.workers = 1;
  EventLog log;
  Scheduler scheduler(options, log.fn());
  std::uint64_t id = scheduler.submit(spec);
  scheduler.wait_idle();
  scheduler.stop();

  JobRecord rec;
  ASSERT_TRUE(scheduler.query(id, rec));
  ASSERT_EQ(rec.state, JobState::kDone) << rec.error;

  // Uninterrupted reference run with identical construction.
  const ir::Module module = targets::build_target(targets::readelf_source());
  core::KleeRun golden(module, "main", klee_options_for(spec));
  golden.run(spec.budget_ticks);

  EXPECT_EQ(rec.progress.ticks, golden.clock().now());
  EXPECT_EQ(rec.progress.covered, golden.executor().num_covered());
  EXPECT_EQ(rec.progress.bugs, golden.executor().bugs().size());
  // The strong form: the sliced job's final campaign image is bit-identical.
  EXPECT_EQ(rec.snapshot, serialize::CampaignCodec::snapshot(golden));

  // Multiple slices really happened, each streaming a metrics event.
  std::size_t metrics = 0;
  for (const JobEvent& ev : log.events)
    if (ev.kind == JobEvent::Kind::kMetrics) ++metrics;
  EXPECT_GE(metrics, 4u);
}

TEST(Scheduler, SlicedPbseJobMatchesMonolithicRun) {
  JobSpec spec;
  spec.mode = JobMode::kPbse;
  spec.target = "readelf";
  spec.budget_ticks = 200'000;
  spec.seed_scale = 4;
  spec.slice_ticks = 60'000;

  SchedulerOptions options;
  options.workers = 1;
  EventLog log;
  Scheduler scheduler(options, log.fn());
  std::uint64_t id = scheduler.submit(spec);
  scheduler.wait_idle();
  scheduler.stop();

  JobRecord rec;
  ASSERT_TRUE(scheduler.query(id, rec));
  ASSERT_EQ(rec.state, JobState::kDone) << rec.error;

  const ir::Module module = targets::build_target(targets::readelf_source());
  core::PbseOptions pbse_options;
  pbse_options.phase_searcher = spec.searcher;
  pbse_options.rng_seed = spec.rng_seed;
  core::PbseDriver golden(module, "main", pbse_options);
  ASSERT_TRUE(golden.prepare(targets::make_melf_seed(spec.seed_scale)));
  golden.run(spec.budget_ticks);

  EXPECT_EQ(rec.progress.ticks, golden.clock().now());
  EXPECT_EQ(rec.progress.covered, golden.executor().num_covered());
  EXPECT_EQ(rec.progress.bugs, golden.executor().bugs().size());
  EXPECT_EQ(rec.snapshot, serialize::CampaignCodec::snapshot(golden));
}

TEST(Scheduler, ResumeFromMidCheckpointMatchesUninterrupted) {
  JobSpec spec;
  spec.mode = JobMode::kPbse;
  spec.target = "readelf";
  spec.budget_ticks = 200'000;
  spec.seed_scale = 4;
  spec.slice_ticks = 50'000;

  SchedulerOptions options;
  options.workers = 1;

  // Uninterrupted pass; keep the first mid-run checkpoint (what the server
  // would have had on disk when a crash hit).
  EventLog log;
  Scheduler first(options, log.fn());
  std::uint64_t id = first.submit(spec);
  first.wait_idle();
  first.stop();
  JobRecord final_rec;
  ASSERT_TRUE(first.query(id, final_rec));
  ASSERT_EQ(final_rec.state, JobState::kDone) << final_rec.error;

  const JobEvent* mid = nullptr;
  for (const JobEvent& ev : log.events) {
    if (ev.kind == JobEvent::Kind::kCheckpoint &&
        ev.record.state == JobState::kCheckpointed) {
      mid = &ev;
      break;
    }
  }
  ASSERT_NE(mid, nullptr) << "job finished without a mid-run checkpoint";

  // Recovery pass: round-trip the record through its persisted form (the
  // binary wire form a job-<id>.pbsf checkpoint holds), resubmit into a
  // FRESH scheduler, finish.
  JobRecord recovered = JobRecord::wire_decode(mid->record.wire_encode());
  EXPECT_EQ(recovered.snapshot, mid->record.snapshot);
  EXPECT_GT(recovered.run_end_ticks, 0u);

  EventLog log2;
  Scheduler second(options, log2.fn());
  second.resubmit(std::move(recovered));
  second.wait_idle();
  second.stop();

  JobRecord resumed;
  ASSERT_TRUE(second.query(id, resumed));
  ASSERT_EQ(resumed.state, JobState::kDone) << resumed.error;
  EXPECT_EQ(resumed.progress.ticks, final_rec.progress.ticks);
  EXPECT_EQ(resumed.progress.covered, final_rec.progress.covered);
  EXPECT_EQ(resumed.progress.bugs, final_rec.progress.bugs);
  EXPECT_EQ(resumed.snapshot, final_rec.snapshot);  // bit-identical campaign
}

TEST(Scheduler, WorkStealingMigratesJobsAndPreservesResults) {
  // Worker 0's deque gets the even job ids, worker 1's the odd ones. Odd
  // jobs are tiny, so worker 1 drains its deque and must steal the large
  // even jobs to keep busy.
  SchedulerOptions options;
  options.workers = 2;
  EventLog log;
  Scheduler scheduler(options, log.fn());

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    JobSpec spec;
    spec.mode = JobMode::kKlee;
    spec.target = "readelf";
    spec.sym_size = 100;
    bool odd = (i % 2) == 0;  // ids start at 1: submissions 0,2,4 -> odd ids
    spec.budget_ticks = odd ? 20'000 : 120'000;
    spec.slice_ticks = 10'000;
    ids.push_back(scheduler.submit(spec));
  }
  scheduler.wait_idle();
  const std::uint64_t steals = scheduler.steals();
  scheduler.stop();

  EXPECT_GE(steals, 1u) << "no job ever migrated between workers";
  for (std::uint64_t id : ids) {
    JobRecord rec;
    ASSERT_TRUE(scheduler.query(id, rec));
    EXPECT_EQ(rec.state, JobState::kDone) << rec.error;
  }

  // Stealing must not change results: every large job, wherever its slices
  // ran, matches the monolithic reference.
  const ir::Module module = targets::build_target(targets::readelf_source());
  JobSpec big;
  big.mode = JobMode::kKlee;
  big.target = "readelf";
  big.sym_size = 100;
  big.budget_ticks = 120'000;
  core::KleeRun golden(module, "main", klee_options_for(big));
  golden.run(big.budget_ticks);
  const auto golden_snap = serialize::CampaignCodec::snapshot(golden);
  for (std::uint64_t id : ids) {
    JobRecord rec;
    ASSERT_TRUE(scheduler.query(id, rec));
    if (rec.spec.budget_ticks == big.budget_ticks) {
      EXPECT_EQ(rec.snapshot, golden_snap) << "job " << id;
    }
  }
}

TEST(Scheduler, UnknownTargetFailsTheJobLoudly) {
  SchedulerOptions options;
  options.workers = 1;
  EventLog log;
  Scheduler scheduler(options, log.fn());
  JobSpec spec;
  spec.target = "no-such-target";
  std::uint64_t id = scheduler.submit(spec);
  scheduler.wait_idle();
  scheduler.stop();
  JobRecord rec;
  ASSERT_TRUE(scheduler.query(id, rec));
  EXPECT_EQ(rec.state, JobState::kFailed);
  EXPECT_NE(rec.error.find("unknown target"), std::string::npos) << rec.error;
}

// --- Server end to end -------------------------------------------------------

struct TempServerDir {
  std::string dir;
  explicit TempServerDir(const std::string& name)
      : dir(name + "-" + std::to_string(::getpid())) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~TempServerDir() { std::filesystem::remove_all(dir); }
  std::string path(const std::string& leaf) const { return dir + "/" + leaf; }
};

TEST(Server, EndToEndSubmitWaitStatusShutdown) {
  TempServerDir tmp("srv_e2e");
  ServerOptions options;
  options.socket_path = tmp.path("serve.sock");
  options.state_dir = tmp.path("state");
  options.scheduler.workers = 2;

  Server server(options);
  server.start();
  std::thread loop([&server] { server.serve_forever(); });

  JobSpec spec;
  spec.mode = JobMode::kKlee;
  spec.target = "readelf";
  spec.budget_ticks = 60'000;
  spec.sym_size = 100;
  spec.slice_ticks = 20'000;

  {
    Client client = Client::connect_unix(options.socket_path);
    Json ping = Json::object();
    ping.set("cmd", Json::string("ping"));
    EXPECT_TRUE(client.request(ping).get_bool("ok", false));

    std::uint64_t id = client.submit(spec);
    EXPECT_GT(id, 0u);
    Json done = client.wait(id);
    EXPECT_EQ(done.get_string("event", ""), "done");

    // Streamed progress must match a local reference run.
    const ir::Module module = targets::build_target(targets::readelf_source());
    core::KleeRun golden(module, "main", klee_options_for(spec));
    golden.run(spec.budget_ticks);
    EXPECT_EQ(done.get("progress").get_u64("covered", 0),
              golden.executor().num_covered());
    EXPECT_EQ(done.get("progress").get_u64("ticks", 0), golden.clock().now());

    // status and list see the terminal record.
    Json status = Json::object();
    status.set("cmd", Json::string("status"));
    status.set("job", Json::number(id));
    Json resp = client.request(status);
    ASSERT_TRUE(resp.get_bool("ok", false));
    EXPECT_EQ(resp.get("record").get_string("state", ""), "done");

    Json list = Json::object();
    list.set("cmd", Json::string("list"));
    EXPECT_EQ(client.request(list).get("jobs").items().size(), 1u);

    // wait() on an already-terminal job returns immediately.
    Json again = client.wait(id);
    EXPECT_EQ(again.get_string("event", ""), "done");

    // The job's checkpoint made it to the state directory as one pbsf
    // frame holding metadata and snapshot together.
    EXPECT_TRUE(std::filesystem::exists(
        options.state_dir + "/job-" + std::to_string(id) + ".pbsf"));

    Json bye = Json::object();
    bye.set("cmd", Json::string("shutdown"));
    EXPECT_TRUE(client.request(bye).get_bool("ok", false));
  }
  loop.join();
}

// One bad client message costs that client its connection or an ok:false
// reply, never the daemon.
TEST(Server, SurvivesMalformedRequests) {
  TempServerDir tmp("srv_malformed");
  ServerOptions options;
  options.socket_path = tmp.path("serve.sock");
  options.state_dir = tmp.path("state");
  options.scheduler.workers = 1;
  Server server(options);
  server.start();
  std::thread loop([&server] { server.serve_forever(); });

  Json ping = Json::object();
  ping.set("cmd", Json::string("ping"));
  Client bystander = Client::connect_unix(options.socket_path);
  EXPECT_TRUE(bystander.request(ping).get_bool("ok", false));

  {
    // A body that is not JSON: the daemon closes this connection, alone.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    timeval tv{10, 0};  // fail rather than hang if the daemon never answers
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    write_raw_message(fd, "not json");
    char byte = 0;
    EXPECT_EQ(::read(fd, &byte, 1), 0) << "expected EOF, not a reply";
    ::close(fd);
  }
  EXPECT_TRUE(bystander.request(ping).get_bool("ok", false));

  Client client = Client::connect_unix(options.socket_path);
  for (double job : {1e300, -1.0, 1.5}) {
    Json status = Json::object();
    status.set("cmd", Json::string("status"));
    status.set("job", Json::number_double(job));
    const Json resp = client.request(status);
    EXPECT_FALSE(resp.get_bool("ok", true)) << job;
    // Refused for its type, not looked up as some truncated id.
    EXPECT_NE(resp.get_string("error", ""), "no such job") << job;
  }
  EXPECT_FALSE(client.request(Json::array()).get_bool("ok", true));
  JobSpec spec;
  Json bad_spec = spec.to_json();
  bad_spec.set("budget_ticks", Json::number_double(1e300));
  Json submit = Json::object();
  submit.set("cmd", Json::string("submit"));
  submit.set("spec", std::move(bad_spec));
  EXPECT_FALSE(client.request(submit).get_bool("ok", true));
  EXPECT_TRUE(client.request(ping).get_bool("ok", false));

  Json bye = Json::object();
  bye.set("cmd", Json::string("shutdown"));
  EXPECT_TRUE(client.request(bye).get_bool("ok", false));
  loop.join();
}

TEST(Server, RecoversInterruptedJobFromStateDir) {
  // Forge the on-disk aftermath of a crash mid-slice — a job-<id>.pbsf
  // JobRecord frame with state "running" — and check the daemon recovers
  // it, finishes it, and re-persists its final checkpoint.
  JobSpec spec;
  spec.mode = JobMode::kPbse;
  spec.target = "readelf";
  spec.budget_ticks = 200'000;
  spec.seed_scale = 4;
  spec.slice_ticks = 50'000;

  SchedulerOptions sched_options;
  sched_options.workers = 1;
  EventLog log;
  Scheduler reference(sched_options, log.fn());
  std::uint64_t id = reference.submit(spec);
  reference.wait_idle();
  reference.stop();
  JobRecord final_rec;
  ASSERT_TRUE(reference.query(id, final_rec));
  ASSERT_EQ(final_rec.state, JobState::kDone) << final_rec.error;

  const JobEvent* mid = nullptr;
  for (const JobEvent& ev : log.events) {
    if (ev.kind == JobEvent::Kind::kCheckpoint &&
        ev.record.state == JobState::kCheckpointed) {
      mid = &ev;
      break;
    }
  }
  ASSERT_NE(mid, nullptr);

  TempServerDir tmp("srv_recover");
  ServerOptions options;
  options.socket_path = tmp.path("serve.sock");
  options.state_dir = tmp.path("state");
  options.scheduler.workers = 1;
  std::filesystem::create_directories(options.state_dir);

  JobRecord crashed = mid->record;
  crashed.state = JobState::kRunning;  // died mid-slice
  const std::string checkpoint =
      options.state_dir + "/job-" + std::to_string(id) + ".pbsf";
  serialize::write_file_atomic(
      checkpoint, serialize::encode_frame(serialize::FrameKind::kJobRecord,
                                          crashed.wire_encode()));

  Server server(options);
  server.start();
  EXPECT_EQ(server.recovered_jobs(), 1u);
  std::thread loop([&server] { server.serve_forever(); });
  {
    Client client = Client::connect_unix(options.socket_path);
    Json done = client.wait(id);
    EXPECT_EQ(done.get_string("event", ""), "done");
    EXPECT_EQ(done.get("progress").get_u64("ticks", 0),
              final_rec.progress.ticks);
    EXPECT_EQ(done.get("progress").get_u64("covered", 0),
              final_rec.progress.covered);
    EXPECT_EQ(done.get("progress").get_u64("bugs", 0),
              final_rec.progress.bugs);

    // The re-persisted final checkpoint replaced the crashed one and its
    // snapshot matches the uninterrupted run's.
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(serialize::decode_frame(serialize::read_file(checkpoint), payload),
              serialize::FrameKind::kJobRecord);
    const JobRecord persisted = JobRecord::wire_decode(payload);
    EXPECT_EQ(persisted.state, JobState::kDone);
    EXPECT_EQ(persisted.snapshot, final_rec.snapshot);

    Json bye = Json::object();
    bye.set("cmd", Json::string("shutdown"));
    client.request(bye);
  }
  loop.join();
}

// --- Worker tier (pbsf frames, endpoints, death recovery) -------------------

JobSpec small_pbse_spec() {
  JobSpec spec;
  spec.mode = JobMode::kPbse;
  spec.target = "readelf";
  spec.budget_ticks = 120'000;
  spec.seed_scale = 4;
  spec.slice_ticks = 30'000;
  return spec;
}

/// Final snapshot of `spec` run start-to-finish on one inline worker — the
/// byte-identity reference every execution tier is compared against.
JobRecord reference_record(const JobSpec& spec) {
  SchedulerOptions options;
  options.workers = 1;
  EventLog log;
  Scheduler scheduler(options, log.fn());
  std::uint64_t id = scheduler.submit(spec);
  scheduler.wait_idle();
  scheduler.stop();
  JobRecord rec;
  EXPECT_TRUE(scheduler.query(id, rec));
  EXPECT_EQ(rec.state, JobState::kDone) << rec.error;
  return rec;
}

TEST(JobWire, RecordRoundTripAndCorruption) {
  JobRecord rec;
  rec.id = 42;
  rec.spec = small_pbse_spec();
  rec.state = JobState::kCheckpointed;
  rec.progress.ticks = 111;
  rec.progress.covered = 22;
  rec.progress.bugs = 3;
  rec.progress.test_cases = 4;
  rec.progress.states = 5;
  rec.error = "not really";
  rec.run_end_ticks = 999'999;
  rec.requeues = 2;
  rec.counters["solver.queries"] = 17;
  rec.counters["executor.forks"] = 5;
  rec.snapshot = {0x50, 0x42, 0x53, 0x53, 0x00, 0xFF, 0x7E};

  const auto wire = rec.wire_encode();
  JobRecord back = JobRecord::wire_decode(wire);
  EXPECT_EQ(back.id, rec.id);
  EXPECT_EQ(back.spec.to_json().dump(), rec.spec.to_json().dump());
  EXPECT_EQ(back.state, rec.state);
  EXPECT_EQ(back.progress.ticks, rec.progress.ticks);
  EXPECT_EQ(back.progress.covered, rec.progress.covered);
  EXPECT_EQ(back.progress.bugs, rec.progress.bugs);
  EXPECT_EQ(back.progress.test_cases, rec.progress.test_cases);
  EXPECT_EQ(back.progress.states, rec.progress.states);
  EXPECT_EQ(back.error, rec.error);
  EXPECT_EQ(back.run_end_ticks, rec.run_end_ticks);
  EXPECT_EQ(back.requeues, rec.requeues);
  EXPECT_EQ(back.counters, rec.counters);
  EXPECT_EQ(back.snapshot, rec.snapshot);

  auto truncated = wire;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(JobRecord::wire_decode(truncated), serialize::SnapshotError);
  auto trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW(JobRecord::wire_decode(trailing), serialize::SnapshotError);
}

// --- Resident campaigns (slice_runner.cc) ------------------------------------

JobSpec small_klee_spec() {
  JobSpec spec;
  spec.mode = JobMode::kKlee;
  spec.target = "readelf";
  spec.budget_ticks = 120'000;
  spec.sym_size = 100;
  spec.slice_ticks = 30'000;
  return spec;
}

/// A pbSE turn runs on past its slice while it covers new code, so a
/// pbSE slice holds one turn or more; this job takes at least four.
JobSpec sliced_pbse_spec() {
  JobSpec spec = small_pbse_spec();
  spec.budget_ticks = 600'000;
  spec.slice_ticks = 10'000;
  return spec;
}

SliceContext context_for(const JobSpec& spec) {
  SliceContext ctx;
  ctx.slice_ticks = spec.slice_ticks;
  return ctx;
}

/// The job of `spec` run to the end, one record per slice. With `cold`,
/// every slice runs on a fresh thread, which holds no resident campaign.
std::vector<JobRecord> records_per_slice(const JobSpec& spec, bool cold) {
  JobRecord rec;
  rec.id = 1;
  rec.spec = spec;
  const SliceContext ctx = context_for(spec);
  std::vector<JobRecord> out;
  bool done = false;
  while (!done && out.size() < 64) {
    auto slice = [&] {
      try {
        done = run_job_slice(rec, ctx);
      } catch (const std::exception& e) {
        ADD_FAILURE() << e.what();
        done = true;
      }
    };
    if (cold)
      std::thread(slice).join();
    else
      slice();
    out.push_back(rec);
  }
  EXPECT_TRUE(done) << "slicing must terminate";
  return out;
}

TEST(SliceRunner, ResidentSlicesMatchColdSlices) {
  // On one thread every slice after the first continues the resident
  // campaign; on a fresh thread per slice every slice restores the record.
  // Both must leave the same record after every slice.
  for (const JobSpec& spec : {small_klee_spec(), sliced_pbse_spec()}) {
    SCOPED_TRACE(job_mode_name(spec.mode));
    const std::vector<JobRecord> warm = records_per_slice(spec, false);
    const std::vector<JobRecord> cold = records_per_slice(spec, true);
    ASSERT_GE(warm.size(), 4u);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
      SCOPED_TRACE("slice " + std::to_string(i + 1));
      EXPECT_EQ(warm[i].snapshot, cold[i].snapshot);
      EXPECT_EQ(warm[i].progress.to_json().dump(),
                cold[i].progress.to_json().dump());
      EXPECT_EQ(warm[i].counters, cold[i].counters);
      EXPECT_EQ(warm[i].run_end_ticks, cold[i].run_end_ticks);
    }
  }
}

TEST(SliceRunner, StaleRecordTakesTheColdPath) {
  // A thread that ran slices 1 and 2 is handed the record as it was after
  // slice 1 (a requeued slice, an older checkpoint): it must re-run slice
  // 2, not continue its resident into slice 3.
  for (const JobSpec& spec : {small_klee_spec(), sliced_pbse_spec()}) {
    SCOPED_TRACE(job_mode_name(spec.mode));
    JobRecord rec;
    rec.id = 1;
    rec.spec = spec;
    const SliceContext ctx = context_for(spec);
    ASSERT_FALSE(run_job_slice(rec, ctx));
    JobRecord stale = rec;
    ASSERT_FALSE(run_job_slice(rec, ctx));
    run_job_slice(stale, ctx);
    EXPECT_EQ(stale.snapshot, rec.snapshot);
    EXPECT_EQ(stale.progress.to_json().dump(), rec.progress.to_json().dump());
    EXPECT_EQ(stale.counters, rec.counters);
  }
}

TEST(SliceRunner, ConcolicRunsOncePerJob) {
  // Algorithm 1 runs the concolic step once per campaign; a job whose
  // slices all run on one thread must not repeat it per slice.
  JobRecord rec;
  rec.id = 1;
  rec.spec = sliced_pbse_spec();
  const SliceContext ctx = context_for(rec.spec);
  obs::Tracer::instance().start(std::make_unique<obs::MemorySink>());
  std::size_t slices = 0;
  bool done = false;
  while (!done && slices < 64) {
    done = run_job_slice(rec, ctx);
    ++slices;
  }
  auto sink = obs::Tracer::instance().stop();
  const obs::MetricId concolic_run = obs::intern_metric("concolic_run");
  std::size_t runs = 0;
  for (const obs::TraceEvent& ev :
       static_cast<obs::MemorySink*>(sink.get())->events())
    if (ev.name == concolic_run && ev.phase == obs::EventPhase::kBegin) ++runs;
  EXPECT_TRUE(done);
  EXPECT_GE(slices, 4u);
  EXPECT_EQ(runs, 1u);
}

TEST(SliceRunner, ReleasedResidentIsRebuiltCold) {
  // release_resident() (what an idle scheduler thread calls) frees the
  // campaign: the job's next slice on the same thread builds it again,
  // concolic step included.
  JobRecord rec;
  rec.id = 1;
  rec.spec = sliced_pbse_spec();
  const SliceContext ctx = context_for(rec.spec);
  obs::Tracer::instance().start(std::make_unique<obs::MemorySink>());
  EXPECT_FALSE(run_job_slice(rec, ctx));
  EXPECT_FALSE(run_job_slice(rec, ctx));  // continues the resident
  release_resident();
  run_job_slice(rec, ctx);
  auto sink = obs::Tracer::instance().stop();
  const obs::MetricId concolic_run = obs::intern_metric("concolic_run");
  std::size_t runs = 0;
  for (const obs::TraceEvent& ev :
       static_cast<obs::MemorySink*>(sink.get())->events())
    runs += ev.name == concolic_run && ev.phase == obs::EventPhase::kBegin;
  EXPECT_EQ(runs, 2u);
}

TEST(Scheduler, SlicesOfAJobStayOnTheThreadThatHoldsIt) {
  // One job, two inline workers: the idle worker must not take the job
  // while its owner emits the slice's events, or the two alternate and
  // every slice rebuilds the campaign cold. The event callback sleeps on
  // kCheckpoint, as a daemon that persists the record would.
  for (const JobSpec& spec : {small_klee_spec(), sliced_pbse_spec()}) {
    SCOPED_TRACE(job_mode_name(spec.mode));
    SchedulerOptions options;
    options.workers = 2;
    EventLog log;
    Scheduler::EventFn record = log.fn();
    obs::Tracer::instance().start(std::make_unique<obs::MemorySink>());
    Scheduler scheduler(options, [&record](const JobEvent& ev) {
      record(ev);
      if (ev.kind == JobEvent::Kind::kCheckpoint)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
    const std::uint64_t id = scheduler.submit(spec);
    scheduler.wait_idle();
    scheduler.stop();
    auto sink = obs::Tracer::instance().stop();

    JobRecord rec;
    ASSERT_TRUE(scheduler.query(id, rec));
    ASSERT_EQ(rec.state, JobState::kDone) << rec.error;
    std::vector<unsigned> workers;
    for (const JobEvent& ev : log.events)
      if (ev.kind == JobEvent::Kind::kMetrics) workers.push_back(ev.worker);
    ASSERT_GE(workers.size(), 4u);
    for (unsigned w : workers) EXPECT_EQ(w, workers.front());
    if (spec.mode == JobMode::kPbse) {
      const obs::MetricId concolic_run = obs::intern_metric("concolic_run");
      std::size_t runs = 0;
      for (const obs::TraceEvent& ev :
           static_cast<obs::MemorySink*>(sink.get())->events())
        runs += ev.name == concolic_run && ev.phase == obs::EventPhase::kBegin;
      EXPECT_EQ(runs, 1u);
    }
  }
}

/// Runs the slice in-process — an external endpoint without the transport,
/// isolating the scheduler's endpoint plumbing from socket mechanics.
class InlineEndpoint : public SliceEndpoint {
 public:
  std::string describe() const override { return "fake:inline"; }
  SliceOutcome run_slice(JobRecord& rec, std::uint64_t slice_ticks,
                         bool static_analysis, bool& done,
                         std::string& error) override {
    SliceContext ctx;
    ctx.slice_ticks = slice_ticks;
    ctx.static_analysis = static_analysis;
    try {
      done = run_job_slice(rec, ctx);
    } catch (const std::exception& e) {
      error = e.what();
      return SliceOutcome::kJobFailed;
    }
    return SliceOutcome::kOk;
  }
};

/// Simulates a worker that is dead on arrival (kill -9 between slices):
/// every assignment is lost.
class DeadOnArrivalEndpoint : public SliceEndpoint {
 public:
  std::string describe() const override { return "fake:doa"; }
  SliceOutcome run_slice(JobRecord&, std::uint64_t, bool, bool&,
                         std::string&) override {
    return SliceOutcome::kEndpointDead;
  }
};

TEST(WorkerTier, ZeroWorkerSchedulerRunsViaExternalEndpoint) {
  // Farm-daemon shape: no inline workers at construction, jobs queue
  // unassigned until an external worker registers.
  SchedulerOptions options;
  options.workers = 0;
  EventLog log;
  Scheduler scheduler(options, log.fn());
  const JobSpec spec = small_pbse_spec();
  std::uint64_t id = scheduler.submit(spec);
  EXPECT_EQ(scheduler.num_slots(), 0u);

  scheduler.add_external_worker(std::make_unique<InlineEndpoint>());
  scheduler.wait_idle();
  scheduler.stop();

  JobRecord rec;
  ASSERT_TRUE(scheduler.query(id, rec));
  ASSERT_EQ(rec.state, JobState::kDone) << rec.error;
  EXPECT_EQ(rec.snapshot, reference_record(spec).snapshot);
}

TEST(WorkerTier, DeadEndpointRequeuesAndChargesCountersOnce) {
  // Deterministic death ordering: slot 0 — the ONLY slot — dies on the
  // job's first assignment (nobody can steal it first). Once the requeue
  // is observed, a healthy endpoint registers, steals the job off the dead
  // slot's deque, and must finish it byte-identical to an undisturbed run
  // — with its counters charged to the fleet exactly once.
  SchedulerOptions options;
  options.workers = 0;
  EventLog log;
  Scheduler scheduler(options, log.fn());
  scheduler.add_external_worker(std::make_unique<DeadOnArrivalEndpoint>());

  const JobSpec spec = small_pbse_spec();
  std::uint64_t id = scheduler.submit(spec);
  for (int i = 0; i < 5000 && scheduler.requeues() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(scheduler.requeues(), 1u) << "doomed slot never died";
  ASSERT_EQ(scheduler.live_workers(), 0u);

  scheduler.add_external_worker(std::make_unique<InlineEndpoint>());
  scheduler.wait_idle();
  scheduler.stop();

  JobRecord rec;
  ASSERT_TRUE(scheduler.query(id, rec));
  ASSERT_EQ(rec.state, JobState::kDone) << rec.error;
  EXPECT_EQ(rec.requeues, 1u);
  EXPECT_EQ(scheduler.requeues(), 1u);

  bool saw_requeued = false;
  for (const JobEvent& ev : log.events)
    saw_requeued |= ev.kind == JobEvent::Kind::kRequeued;
  EXPECT_TRUE(saw_requeued);

  const JobRecord golden = reference_record(spec);
  EXPECT_EQ(rec.snapshot, golden.snapshot);

  // The double-counting regression (satellite of the worker tier): the
  // fleet-wide aggregate equals the job's own cumulative counters — the
  // lost assignment charged nothing, the re-run charged once. All deltas
  // landed on the surviving slot.
  EXPECT_EQ(scheduler.aggregate_counters(), golden.counters);
  EXPECT_TRUE(scheduler.worker_counters(0).empty());
  EXPECT_EQ(scheduler.worker_counters(1), golden.counters);
}

TEST(WorkerTier, RequeueLimitFailsTheJob) {
  // Every slot is dead on arrival: the job bounces max_requeues times and
  // is then declared poisoned instead of ping-ponging forever.
  SchedulerOptions options;
  options.workers = 0;
  options.max_requeues = 3;
  EventLog log;
  Scheduler scheduler(options, log.fn());
  for (int i = 0; i < 5; ++i)
    scheduler.add_external_worker(std::make_unique<DeadOnArrivalEndpoint>());

  std::uint64_t id = scheduler.submit(small_pbse_spec());
  scheduler.wait_idle();
  scheduler.stop();

  JobRecord rec;
  ASSERT_TRUE(scheduler.query(id, rec));
  EXPECT_EQ(rec.state, JobState::kFailed);
  EXPECT_NE(rec.error.find("requeue limit"), std::string::npos) << rec.error;
  EXPECT_EQ(rec.requeues, options.max_requeues + 1);
}

TEST(WorkerTier, SocketEndpointDeclaresSilentWorkerDead) {
  // A peer that accepts the assignment but never heartbeats must be
  // declared dead after ~3 missed intervals, not block the slot forever.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EndpointOptions options;
  options.heartbeat_ms = 50;
  SocketEndpoint endpoint(fds[0], "test:silent", options);

  JobRecord rec;
  rec.id = 1;
  rec.spec = small_pbse_spec();
  bool done = false;
  std::string error;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(endpoint.run_slice(rec, 10'000, true, done, error),
            SliceOutcome::kEndpointDead);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(waited.count(), 100);   // not instant: it really waited
  EXPECT_LE(waited.count(), 5000);  // but bounded by the heartbeat window
  ::close(fds[1]);
}

TEST(WorkerTier, SocketEndpointSurvivesSlowButBeatingWorker) {
  // The inverse: frames count as liveness, so a worker that heartbeats
  // while computing past several windows is NOT killed, and its eventual
  // result is accepted and applied.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EndpointOptions options;
  options.heartbeat_ms = 60;
  std::atomic<std::uint64_t> frame_bytes{0};
  SocketEndpoint endpoint(fds[0], "test:slow", options, &frame_bytes);

  std::thread worker([fd = fds[1]] {
    Json msg;
    std::vector<std::uint8_t> framed;
    ASSERT_EQ(recv_wire(fd, msg, framed), WireKind::kFrame);
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(serialize::decode_frame(framed, payload),
              serialize::FrameKind::kJobAssign);
    JobRecord rec;
    std::uint64_t slice_ticks = 0;
    bool static_analysis = true;
    decode_assign_payload(payload, rec, slice_ticks, static_analysis);

    // Beat from a side thread while computing — the same shape as the
    // real pbse-worker's HeartbeatThread. The slice (first-run concolic +
    // phase analysis) takes well past several 180 ms windows.
    std::atomic<bool> computing{true};
    std::thread beater([fd, &computing] {
      const auto beat =
          serialize::encode_frame(serialize::FrameKind::kHeartbeat, {});
      while (computing.load()) {
        send_frame_bytes(fd, beat);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
      }
    });
    SliceContext ctx;
    ctx.slice_ticks = slice_ticks;
    ctx.static_analysis = static_analysis;
    SliceResult result;
    result.done = run_job_slice(rec, ctx);
    result.peak_rss_kb = 1234;
    result.record = std::move(rec);
    computing.store(false);
    beater.join();
    // Force at least one full window of beat-only waiting so the test
    // fails if heartbeats stop refreshing the deadline.
    const auto beat =
        serialize::encode_frame(serialize::FrameKind::kHeartbeat, {});
    for (int i = 0; i < 8; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      send_frame_bytes(fd, beat);
    }
    send_frame_bytes(fd, serialize::encode_frame(
                             serialize::FrameKind::kJobResult,
                             encode_result_payload(result)));
    ::close(fd);
  });

  JobRecord rec;
  rec.id = 1;
  rec.spec = small_pbse_spec();
  bool done = false;
  std::string error;
  EXPECT_EQ(endpoint.run_slice(rec, 30'000, true, done, error),
            SliceOutcome::kOk)
      << error;
  EXPECT_GT(rec.progress.ticks, 0u);
  EXPECT_FALSE(rec.snapshot.empty());
  EXPECT_GT(frame_bytes.load(), rec.snapshot.size());  // assign + result
  worker.join();
}

std::string sibling_worker_exe() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = 0;
  std::filesystem::path exe(buf);
  // Test binaries live in <build>/tests; the tools in <build>/src/tools.
  auto candidate = exe.parent_path().parent_path() / "src/tools/pbse-worker";
  return std::filesystem::exists(candidate) ? candidate.string()
                                            : std::string();
}

TEST(WorkerTier, ProcessWorkersProduceIdenticalSnapshot) {
  const std::string worker_exe = sibling_worker_exe();
  if (worker_exe.empty())
    GTEST_SKIP() << "pbse-worker binary not found next to the test tree";

  // Zero inline workers: every slice crosses a process boundary as pbsf
  // frames, runs in a pbse-worker with its own interner and caches, and
  // the final image must STILL be byte-identical to the inline run.
  SchedulerOptions sched_options;
  sched_options.workers = 0;
  EventLog log;
  Scheduler scheduler(sched_options, log.fn());

  WorkerPoolOptions pool_options;
  pool_options.processes = 2;
  pool_options.worker_exe = worker_exe;
  pool_options.endpoint.heartbeat_ms = 500;
  WorkerPool pool(pool_options, scheduler);
  pool.start();
  EXPECT_EQ(pool.alive(), 2u);

  const JobSpec spec = small_pbse_spec();
  std::uint64_t id = scheduler.submit(spec);
  scheduler.wait_idle();
  scheduler.stop();

  JobRecord rec;
  ASSERT_TRUE(scheduler.query(id, rec));
  ASSERT_EQ(rec.state, JobState::kDone) << rec.error;
  EXPECT_EQ(rec.snapshot, reference_record(spec).snapshot);
  EXPECT_GT(scheduler.frame_bytes(), 0u);
  EXPECT_GT(pool.peak_worker_rss_kb(), 0u);
}

TEST(Server, RecoversPbsfCheckpoint) {
  // Forge a crash aftermath in the CURRENT layout: one job-<id>.pbsf frame
  // with a mid-run snapshot, daemon restarted on top of it. Klee mode cuts
  // slices at batch boundaries, guaranteeing a mid-run checkpoint exists
  // (a pbse turn can swallow this whole budget in one slice).
  JobSpec spec;
  spec.mode = JobMode::kKlee;
  spec.target = "readelf";
  spec.budget_ticks = 120'000;
  spec.sym_size = 100;
  spec.slice_ticks = 30'000;
  SchedulerOptions sched_options;
  sched_options.workers = 1;
  EventLog log;
  Scheduler reference(sched_options, log.fn());
  std::uint64_t id = reference.submit(spec);
  reference.wait_idle();
  reference.stop();
  JobRecord final_rec;
  ASSERT_TRUE(reference.query(id, final_rec));
  ASSERT_EQ(final_rec.state, JobState::kDone) << final_rec.error;

  const JobEvent* mid = nullptr;
  for (const JobEvent& ev : log.events) {
    if (ev.kind == JobEvent::Kind::kCheckpoint &&
        ev.record.state == JobState::kCheckpointed) {
      mid = &ev;
      break;
    }
  }
  ASSERT_NE(mid, nullptr);

  TempServerDir tmp("srv_pbsf_recover");
  ServerOptions options;
  options.socket_path = tmp.path("serve.sock");
  options.state_dir = tmp.path("state");
  options.scheduler.workers = 1;
  std::filesystem::create_directories(options.state_dir);

  JobRecord crashed = mid->record;
  crashed.state = JobState::kRunning;  // died mid-slice
  serialize::write_file_atomic(
      options.state_dir + "/job-" + std::to_string(id) + ".pbsf",
      serialize::encode_frame(serialize::FrameKind::kJobRecord,
                              crashed.wire_encode()));

  Server server(options);
  server.start();
  EXPECT_EQ(server.recovered_jobs(), 1u);
  std::thread loop([&server] { server.serve_forever(); });
  {
    Client client = Client::connect_unix(options.socket_path);
    Json done = client.wait(id);
    EXPECT_EQ(done.get_string("event", ""), "done");

    // fetch moves the full record as a binary frame; the recovered job's
    // final snapshot is byte-identical to the uninterrupted run's.
    JobRecord fetched = client.fetch(id);
    EXPECT_EQ(fetched.snapshot, final_rec.snapshot);

    Json bye = Json::object();
    bye.set("cmd", Json::string("shutdown"));
    client.request(bye);
  }
  loop.join();
}

}  // namespace
}  // namespace pbse::server
