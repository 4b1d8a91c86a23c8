// pbse-serve: the campaign daemon.
//
// One poll()-driven thread owns all sockets and the filesystem; the
// Scheduler's workers run campaign slices and report back through an
// event queue + self-pipe (workers never block on clients, the poll loop
// never blocks on campaigns).
//
// Crash recovery contract (exercised by scripts/server_smoke.sh with a
// literal kill -9): every checkpoint is ONE atomic job-<id>.pbsf file — a
// pbsf kJobRecord frame holding the metadata and the raw pbss snapshot
// together (no JSON detour, no two-file ordering dance). On startup the
// state directory is scanned; any job not yet done resumes
// from its last persisted snapshot — losing at most the slice that was in
// flight — and finishes with coverage bit-identical to an uninterrupted
// run (snapshot restore is tick- and RNG-exact, see
// tests/serialize_test.cc).
//
// Execution tiers (DESIGN.md §13): slices run on inline scheduler threads
// (workers), on local pbse-worker processes (worker_processes, spawned and
// respawned by a WorkerPool), and on remote pbse-worker processes that
// register over TCP with a worker_hello — all three produce byte-identical
// final snapshots for the same job.
//
// Protocol (see protocol.h for framing): requests are objects with "cmd":
//   ping                          -> {"ok":true,"pong":true}
//   submit {spec...}              -> {"ok":true,"job":<id>}
//   status {"job":id}             -> {"ok":true,"record":{...}}
//   list                          -> {"ok":true,"jobs":[{...}]}
//   wait {"job":id}               -> streamed {"event":...} frames ending
//                                    with "done"/"failed"; with
//                                    {"snapshots":true} every checkpoint
//                                    event is followed by a binary
//                                    kJobRecord frame
//   fetch {"job":id}              -> {"ok":true} + one binary kJobRecord
//                                    frame (record + raw snapshot bytes)
//   pool                          -> {"ok":true, worker/steal/requeue/
//                                    frame-byte counters}
//   worker_hello                  -> {"ok":true}; the connection leaves
//                                    the client set and becomes a slice
//                                    endpoint farming pbsf job frames
//   shutdown                      -> {"ok":true}; daemon drains and exits
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/job.h"
#include "server/scheduler.h"
#include "server/worker_pool.h"

namespace pbse::server {

struct ServerOptions {
  /// Unix-domain socket path (always on; removed + rebound at startup).
  std::string socket_path = "pbse-serve.sock";
  /// Optional TCP listener on tcp_bind:<port> (0 = off).
  std::uint16_t tcp_port = 0;
  /// TCP bind address. Default loopback; bind a real interface to accept
  /// remote pbse-worker registrations (no auth layer — deploy behind a
  /// private network).
  std::string tcp_bind = "127.0.0.1";
  /// Directory for job-<id>.pbsf state (created if absent).
  std::string state_dir = "pbse-serve-state";
  SchedulerOptions scheduler;
  /// Local pbse-worker processes to spawn (0 = inline threads only).
  unsigned worker_processes = 0;
  /// Liveness/deadline policy for process and remote workers.
  EndpointOptions endpoint;
  /// RLIMIT_AS per local worker process, MB (0 = unlimited).
  std::uint64_t worker_rss_mb = 0;
  /// pbse-worker executable override (default: sibling of pbse-serve).
  std::string worker_exe;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds sockets, recovers persisted jobs, starts workers. Throws
  /// std::runtime_error on bind/listen failure.
  void start();

  /// Runs the poll loop until a shutdown command (or request_stop()).
  void serve_forever();

  /// Thread-safe (and signal-unsafe-free) stop request; serve_forever
  /// returns after the current poll round.
  void request_stop();

  /// Blocks until the scheduler has no queued or running jobs, then stops
  /// the poll loop (`--oneshot`: drain recovered jobs and exit).
  void request_stop_when_idle();

  /// Jobs re-queued from the state directory during start() — the smoke
  /// test asserts recovery actually resumed something.
  std::size_t recovered_jobs() const { return recovered_jobs_; }

 private:
  struct Client {
    int fd = -1;
    /// Job ids this client is wait()ing on.
    std::vector<std::uint64_t> waits;
    /// Checkpoint events also ship the record as a binary frame.
    bool wants_snapshots = false;
  };

  void bind_sockets();
  void recover_state_dir();
  void on_scheduler_event(const JobEvent& ev);
  void drain_events();
  void persist_checkpoint(const JobRecord& rec);
  void accept_client(int listen_fd);
  void handle_client(Client& client);
  Json handle_request(Client& client, const Json& req);
  void adopt_worker(Client& client);
  void forward_event(const JobEvent& ev);
  Json event_json(const JobEvent& ev) const;

  ServerOptions options_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<WorkerPool> pool_;  // after scheduler_: killed first

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::vector<Client> clients_;
  std::atomic<bool> running_{false};
  std::size_t recovered_jobs_ = 0;
  unsigned remote_workers_ = 0;
  /// Largest slice RSS reported by a TCP-registered worker (local process
  /// workers are tracked by the pool).
  std::atomic<std::uint64_t> remote_peak_rss_kb_{0};

  std::mutex events_mu_;
  std::deque<JobEvent> events_;
};

}  // namespace pbse::server
