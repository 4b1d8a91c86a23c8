// Process-isolated execution tier for pbse-serve (DESIGN.md §13).
//
// SocketEndpoint drives ONE worker over a byte stream speaking pbsf
// frames (serialize/frame.h over the protocol.h binary lane): ship a
// kJobAssign carrying the wire-encoded JobRecord (raw pbss bytes inside —
// no JSON detour), then block in poll() until the kJobResult arrives,
// policing liveness the whole time. A worker that stops heartbeating, hits
// the slice wall-deadline, or closes the socket is declared dead
// (SliceOutcome::kEndpointDead) and the scheduler re-queues the job from
// its last completed snapshot.
//
// WorkerPool spawns N local pbse-worker processes, each on its own
// socketpair, and registers a SocketEndpoint per process with the
// scheduler. Workers share NOTHING with the daemon — no interner, no
// allocator, no solver caches — so per-worker memory is bounded (RLIMIT_AS
// via --max-rss-mb) and a bad slice kills one process, not the campaign
// fleet. The same SocketEndpoint class serves TCP-registered remote
// workers: the daemon cannot tell a socketpair child from a worker three
// hosts away.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/scheduler.h"
#include "support/subprocess.h"

namespace pbse::server {

// --- pbsf payload codecs (shared by the daemon and pbse-worker) -----------

/// kJobAssign payload: slice parameters + the wire-encoded record.
std::vector<std::uint8_t> encode_assign_payload(const JobRecord& rec,
                                                std::uint64_t slice_ticks);
void decode_assign_payload(const std::vector<std::uint8_t>& payload,
                           JobRecord& rec, std::uint64_t& slice_ticks);

/// kJobResult payload.
struct SliceResult {
  bool job_failed = false;  // the slice threw; `error` holds the diagnostic
  bool done = false;        // job finished its budget
  std::uint64_t peak_rss_kb = 0;  // worker-side getrusage ru_maxrss
  std::string error;
  JobRecord record;
};
std::vector<std::uint8_t> encode_result_payload(const SliceResult& result);
SliceResult decode_result_payload(const std::vector<std::uint8_t>& payload);

struct EndpointOptions {
  /// Expected heartbeat interval. The endpoint declares a worker dead
  /// after 3 missed intervals with no frame of any kind.
  std::uint64_t heartbeat_ms = 2000;
  /// Hard wall-clock cap on one slice, heartbeats or not (0 = none);
  /// catches livelocked workers that still beat.
  std::uint64_t slice_deadline_ms = 0;
};

class SocketEndpoint : public SliceEndpoint {
 public:
  /// Takes ownership of `fd`. `frame_bytes` (optional) accumulates assign
  /// + result payload bytes; `peak_rss_kb` (optional) tracks the largest
  /// worker-reported slice RSS.
  SocketEndpoint(int fd, std::string name, EndpointOptions options,
                 std::atomic<std::uint64_t>* frame_bytes = nullptr,
                 std::atomic<std::uint64_t>* peak_rss_kb = nullptr);
  ~SocketEndpoint() override;

  std::string describe() const override { return name_; }
  SliceOutcome run_slice(JobRecord& rec, std::uint64_t slice_ticks,
                         bool& done, std::string& error) override;

 private:
  int fd_ = -1;
  std::string name_;
  EndpointOptions options_;
  std::atomic<std::uint64_t>* frame_bytes_;
  std::atomic<std::uint64_t>* peak_rss_kb_;
};

struct WorkerPoolOptions {
  unsigned processes = 0;
  EndpointOptions endpoint;
  /// RLIMIT_AS for each worker, in MB (0 = unlimited).
  std::uint64_t max_rss_mb = 0;
  /// Path to the pbse-worker executable; empty = sibling of the running
  /// binary (/proc/self/exe's directory).
  std::string worker_exe;
};

class WorkerPool {
 public:
  /// Does not spawn yet; call start(). The scheduler must outlive the pool.
  WorkerPool(WorkerPoolOptions options, Scheduler& scheduler);
  ~WorkerPool();

  /// Spawns options.processes workers and registers their endpoints.
  void start();

  /// Reaps exited workers and spawns replacements up to the configured
  /// count. Called from the server's poll loop; returns how many workers
  /// were (re)spawned.
  unsigned respawn_dead();

  unsigned alive();
  unsigned spawned_total() const { return spawned_total_; }
  std::uint64_t peak_worker_rss_kb() const { return peak_rss_kb_; }

 private:
  void spawn_one();

  WorkerPoolOptions options_;
  Scheduler& scheduler_;
  std::mutex mu_;
  std::vector<support::Subprocess> procs_;
  unsigned spawned_total_ = 0;
  std::atomic<std::uint64_t> peak_rss_kb_{0};
};

/// Resolves the pbse-worker executable next to the current binary.
std::string default_worker_exe();

}  // namespace pbse::server
