#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "serialize/frame.h"
#include "serialize/pbss.h"

namespace pbse::server {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::string job_pbsf_path(const std::string& dir, std::uint64_t id) {
  return dir + "/job-" + std::to_string(id) + ".pbsf";
}

const char* event_kind_name(JobEvent::Kind kind) {
  switch (kind) {
    case JobEvent::Kind::kStarted: return "job_started";
    case JobEvent::Kind::kMetrics: return "metrics";
    case JobEvent::Kind::kCheckpoint: return "checkpoint";
    case JobEvent::Kind::kRequeued: return "requeued";
    case JobEvent::Kind::kDone: return "done";
    case JobEvent::Kind::kFailed: return "failed";
  }
  return "?";
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server() {
  if (scheduler_) scheduler_->stop();
  for (Client& c : clients_)
    if (c.fd >= 0) ::close(c.fd);
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
}

void Server::start() {
  std::filesystem::create_directories(options_.state_dir);
  if (::pipe(wake_pipe_) != 0) sys_fail("pipe");
  // Both ends non-blocking: the poll loop drains opportunistically, and a
  // full pipe must never stall a worker (wakeups are best-effort).
  ::fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
  ::fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);
  bind_sockets();
  scheduler_ = std::make_unique<Scheduler>(
      options_.scheduler, [this](const JobEvent& ev) { on_scheduler_event(ev); });
  if (options_.worker_processes > 0) {
    WorkerPoolOptions po;
    po.processes = options_.worker_processes;
    po.endpoint = options_.endpoint;
    po.max_rss_mb = options_.worker_rss_mb;
    po.worker_exe = options_.worker_exe;
    pool_ = std::make_unique<WorkerPool>(std::move(po), *scheduler_);
    pool_->start();
  }
  recover_state_dir();
  running_ = true;
}

void Server::bind_sockets() {
  // Unix-domain listener. A stale socket file from a crashed daemon must
  // not block restart — recovery-on-restart is the whole point.
  ::unlink(options_.socket_path.c_str());
  unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (unix_fd_ < 0) sys_fail("socket(AF_UNIX)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long: " + options_.socket_path);
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    sys_fail("bind " + options_.socket_path);
  if (::listen(unix_fd_, 16) != 0) sys_fail("listen " + options_.socket_path);

  if (options_.tcp_port != 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) sys_fail("socket(AF_INET)");
    int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in in{};
    in.sin_family = AF_INET;
    in.sin_port = htons(options_.tcp_port);
    // Loopback by default; --tcp-bind=0.0.0.0 (or an interface address)
    // opens the listener to remote pbse-worker registration. No auth layer.
    if (::inet_pton(AF_INET, options_.tcp_bind.c_str(), &in.sin_addr) != 1)
      throw std::runtime_error("bad --tcp-bind address: " + options_.tcp_bind);
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&in), sizeof(in)) != 0)
      sys_fail("bind " + options_.tcp_bind + ":" +
               std::to_string(options_.tcp_port));
    if (::listen(tcp_fd_, 16) != 0) sys_fail("listen tcp");
  }
}

void Server::recover_state_dir() {
  namespace fs = std::filesystem;
  std::vector<std::uint64_t> ids;
  for (const auto& entry : fs::directory_iterator(options_.state_dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("job-", 0) != 0 || name.size() < 10) continue;
    if (name.substr(name.size() - 5) == ".pbsf")
      ids.push_back(std::strtoull(name.c_str() + 4, nullptr, 10));
  }
  std::sort(ids.begin(), ids.end());
  for (std::uint64_t id : ids) {
    try {
      const std::string pbsf = job_pbsf_path(options_.state_dir, id);
      std::vector<std::uint8_t> payload;
      if (serialize::decode_frame(serialize::read_file(pbsf), payload) !=
          serialize::FrameKind::kJobRecord)
        throw std::runtime_error("not a job-record frame: " + pbsf);
      JobRecord rec = JobRecord::wire_decode(payload);
      bool resumes = rec.state != JobState::kDone && rec.state != JobState::kFailed;
      scheduler_->resubmit(std::move(rec));
      if (resumes) ++recovered_jobs_;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pbse-serve: skipping unrecoverable job %llu: %s\n",
                   static_cast<unsigned long long>(id), e.what());
    }
  }
}

void Server::request_stop() {
  running_ = false;
  char b = 'q';
  if (wake_pipe_[1] >= 0 && ::write(wake_pipe_[1], &b, 1) < 0) {
    // Poll loop will notice running_ on its next timeout round.
  }
}

void Server::request_stop_when_idle() {
  if (scheduler_) scheduler_->wait_idle();
  request_stop();
}

void Server::on_scheduler_event(const JobEvent& ev) {
  {
    std::lock_guard<std::mutex> lock(events_mu_);
    events_.push_back(ev);
  }
  char b = 'e';
  if (::write(wake_pipe_[1], &b, 1) < 0) {
    // Wakeup is best-effort; the poll timeout drains the queue regardless.
  }
}

void Server::persist_checkpoint(const JobRecord& rec) {
  // One atomic pbsf frame holds metadata and raw snapshot bytes together —
  // no JSON/base64 detour and no two-file ordering hazard.
  serialize::write_file_atomic(
      job_pbsf_path(options_.state_dir, rec.id),
      serialize::encode_frame(serialize::FrameKind::kJobRecord,
                              rec.wire_encode()));
}

Json Server::event_json(const JobEvent& ev) const {
  Json j = Json::object();
  j.set("event", Json::string(event_kind_name(ev.kind)));
  j.set("job", Json::number(ev.record.id));
  j.set("state", Json::string(job_state_name(ev.record.state)));
  j.set("progress", ev.record.progress.to_json());
  j.set("worker", Json::number(ev.worker));
  j.set("stolen", Json::boolean(ev.stolen));
  if (ev.record.requeues > 0)
    j.set("requeues", Json::number(ev.record.requeues));
  if (ev.kind == JobEvent::Kind::kMetrics) {
    // Fleet-wide solver counters. Each slot is charged the delta of one
    // completed slice exactly once (scheduler.cc), so these never
    // double-count work from slices a dead worker lost.
    Json counters = Json::object();
    for (const auto& [name, value] : scheduler_->aggregate_counters())
      counters.set(name, Json::number(value));
    j.set("counters", std::move(counters));
  }
  if (!ev.record.error.empty())
    j.set("error", Json::string(ev.record.error));
  return j;
}

void Server::forward_event(const JobEvent& ev) {
  bool terminal = ev.kind == JobEvent::Kind::kDone ||
                  ev.kind == JobEvent::Kind::kFailed;
  const Json ev_js = event_json(ev);
  for (Client& c : clients_) {
    auto it = std::find(c.waits.begin(), c.waits.end(), ev.record.id);
    if (it == c.waits.end()) continue;
    try {
      send_message(c.fd, ev_js);
      // Snapshot subscribers get the checkpointed record as a raw pbsf
      // frame right behind the JSON event — same bytes the state dir holds.
      if (c.wants_snapshots && ev.kind == JobEvent::Kind::kCheckpoint)
        send_frame_bytes(c.fd,
                         serialize::encode_frame(
                             serialize::FrameKind::kJobRecord,
                             ev.record.wire_encode()));
    } catch (const ProtocolError&) {
      // Client went away; the poll loop reaps the fd.
    }
    if (terminal) c.waits.erase(it);
  }
}

void Server::drain_events() {
  while (true) {
    JobEvent ev;
    {
      std::lock_guard<std::mutex> lock(events_mu_);
      if (events_.empty()) return;
      ev = std::move(events_.front());
      events_.pop_front();
    }
    if (ev.kind == JobEvent::Kind::kCheckpoint ||
        ev.kind == JobEvent::Kind::kDone ||
        ev.kind == JobEvent::Kind::kFailed) {
      try {
        persist_checkpoint(ev.record);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "pbse-serve: checkpoint of job %llu failed: %s\n",
                     static_cast<unsigned long long>(ev.record.id), e.what());
      }
    }
    forward_event(ev);
  }
}

void Server::accept_client(int listen_fd) {
  int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return;
  Client c;
  c.fd = fd;
  clients_.push_back(c);
}

Json Server::handle_request(Client& client, const Json& req) {
  std::string cmd = req.get_string("cmd", "");
  Json resp = Json::object();
  if (cmd == "ping") {
    resp.set("ok", Json::boolean(true));
    resp.set("pong", Json::boolean(true));
    return resp;
  }
  if (cmd == "submit") {
    JobSpec spec = JobSpec::from_json(req.get("spec"));
    std::uint64_t id = scheduler_->submit(std::move(spec));
    resp.set("ok", Json::boolean(true));
    resp.set("job", Json::number(id));
    return resp;
  }
  if (cmd == "status") {
    JobRecord rec;
    if (!scheduler_->query(req.get_u64("job", 0), rec))
      throw ProtocolError("no such job");
    resp.set("ok", Json::boolean(true));
    resp.set("record", rec.meta_json());
    return resp;
  }
  if (cmd == "list") {
    Json jobs = Json::array();
    for (std::uint64_t id : scheduler_->job_ids()) {
      JobRecord rec;
      if (scheduler_->query(id, rec)) jobs.push_back(rec.meta_json());
    }
    resp.set("ok", Json::boolean(true));
    resp.set("jobs", std::move(jobs));
    return resp;
  }
  if (cmd == "wait") {
    std::uint64_t id = req.get_u64("job", 0);
    JobRecord rec;
    if (!scheduler_->query(id, rec)) throw ProtocolError("no such job");
    resp.set("ok", Json::boolean(true));
    resp.set("record", rec.meta_json());
    if (rec.state == JobState::kDone || rec.state == JobState::kFailed) {
      // Already terminal: the ack above carries the final record; no
      // subscription, no event stream.
      resp.set("already_done", Json::boolean(true));
    } else {
      client.waits.push_back(id);
      if (req.get_bool("snapshots", false)) client.wants_snapshots = true;
    }
    return resp;
  }
  if (cmd == "pool") {
    resp.set("ok", Json::boolean(true));
    resp.set("worker_processes",
             Json::number(pool_ ? pool_->spawned_total() : 0));
    resp.set("workers_alive", Json::number(pool_ ? pool_->alive() : 0));
    resp.set("remote_workers", Json::number(remote_workers_));
    resp.set("slots", Json::number(scheduler_->num_slots()));
    resp.set("live_slots", Json::number(scheduler_->live_workers()));
    resp.set("steals", Json::number(scheduler_->steals()));
    resp.set("jobs_requeued", Json::number(scheduler_->requeues()));
    resp.set("frame_bytes", Json::number(scheduler_->frame_bytes()));
    std::uint64_t rss = remote_peak_rss_kb_.load();
    if (pool_) rss = std::max(rss, pool_->peak_worker_rss_kb());
    resp.set("peak_worker_rss_kb", Json::number(rss));
    Json counters = Json::object();
    for (const auto& [name, value] : scheduler_->aggregate_counters())
      counters.set(name, Json::number(value));
    resp.set("counters", std::move(counters));
    return resp;
  }
  if (cmd == "shutdown") {
    resp.set("ok", Json::boolean(true));
    running_ = false;
    return resp;
  }
  throw ProtocolError("unknown command '" + cmd + "'");
}

void Server::adopt_worker(Client& client) {
  // The fd leaves the client set WITHOUT being closed and becomes a slice
  // endpoint: from here on this connection speaks pbsf frames only. The
  // daemon cannot tell this worker from a socketpair child of the pool.
  const int fd = client.fd;
  client.fd = -1;
  const unsigned n = ++remote_workers_;
  auto endpoint = std::make_unique<SocketEndpoint>(
      fd, "tcp:" + std::to_string(n), options_.endpoint,
      &scheduler_->frame_bytes_counter(), &remote_peak_rss_kb_);
  scheduler_->add_external_worker(std::move(endpoint));
}

void Server::handle_client(Client& client) {
  Json req;
  bool alive = false;
  try {
    alive = recv_message(client.fd, req);
  } catch (const ProtocolError&) {
    alive = false;
  }
  if (!alive) {
    ::close(client.fd);
    client.fd = -1;
    return;
  }
  const std::string cmd = req.get_string("cmd", "");
  Json resp;
  try {
    if (cmd == "worker_hello") {
      resp = Json::object();
      resp.set("ok", Json::boolean(true));
      send_message(client.fd, resp);
      adopt_worker(client);
      return;
    }
    if (cmd == "fetch") {
      JobRecord rec;
      if (!scheduler_->query(req.get_u64("job", 0), rec))
        throw ProtocolError("no such job");
      resp = Json::object();
      resp.set("ok", Json::boolean(true));
      send_message(client.fd, resp);
      // Ack first so refusals stay pure JSON, then the record — snapshot
      // bytes included — as one binary frame.
      send_frame_bytes(client.fd,
                       serialize::encode_frame(
                           serialize::FrameKind::kJobRecord,
                           rec.wire_encode()));
      return;
    }
    resp = handle_request(client, req);
  } catch (const std::exception& e) {
    // A transport failure mid-reply (worker_hello/fetch send paths), an
    // application refusal and a request field of the wrong type all look
    // the same here; answering a dead fd below is harmless and reaps it.
    resp = Json::object();
    resp.set("ok", Json::boolean(false));
    resp.set("error", Json::string(e.what()));
  }
  if (client.fd < 0) return;  // detached by worker_hello
  try {
    send_message(client.fd, resp);
  } catch (const ProtocolError&) {
    ::close(client.fd);
    client.fd = -1;
  }
}

void Server::serve_forever() {
  while (running_) {
    std::vector<pollfd> fds;
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({unix_fd_, POLLIN, 0});
    if (tcp_fd_ >= 0) fds.push_back({tcp_fd_, POLLIN, 0});
    std::size_t first_client = fds.size();
    for (Client& c : clients_) fds.push_back({c.fd, POLLIN, 0});

    int rc = ::poll(fds.data(), fds.size(), 200);
    if (rc < 0 && errno != EINTR) sys_fail("poll");

    if (fds[0].revents & POLLIN) {
      char buf[64];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) == sizeof(buf)) {
      }
    }
    drain_events();
    // Crashed / OOM-killed / kill -9'd local workers respawn here; their
    // lost slice is already back on a queue via the scheduler's
    // endpoint-death path, so the replacement has work waiting.
    if (pool_) pool_->respawn_dead();
    if (fds[1].revents & POLLIN) accept_client(unix_fd_);
    if (tcp_fd_ >= 0 && (fds[2].revents & POLLIN)) accept_client(tcp_fd_);
    for (std::size_t i = first_client; i < fds.size(); ++i) {
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
        handle_client(clients_[i - first_client]);
    }
    clients_.erase(std::remove_if(clients_.begin(), clients_.end(),
                                  [](const Client& c) { return c.fd < 0; }),
                   clients_.end());
  }
  // Drain: let in-flight slices finish and persist their checkpoints so a
  // clean shutdown is always resumable.
  scheduler_->stop();
  drain_events();
}

}  // namespace pbse::server
