#include "server/worker_pool.h"

#include <errno.h>
#include <limits.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <stdexcept>

#include "serialize/frame.h"

namespace pbse::server {

namespace {

std::uint64_t monotonic_ms() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1'000'000;
}

}  // namespace

std::vector<std::uint8_t> encode_assign_payload(const JobRecord& rec,
                                                std::uint64_t slice_ticks) {
  serialize::Encoder enc;
  enc.u64(slice_ticks);
  enc.blob(rec.wire_encode());
  return enc.data();
}

void decode_assign_payload(const std::vector<std::uint8_t>& payload,
                           JobRecord& rec, std::uint64_t& slice_ticks) {
  serialize::Decoder dec(payload);
  slice_ticks = dec.u64();
  rec = JobRecord::wire_decode(dec.blob());
  if (!dec.done())
    throw serialize::SnapshotError("pbsf: trailing bytes in job assignment");
}

std::vector<std::uint8_t> encode_result_payload(const SliceResult& result) {
  serialize::Encoder enc;
  enc.u8(result.job_failed ? 1 : 0);
  enc.u8(result.done ? 1 : 0);
  enc.u64(result.peak_rss_kb);
  enc.str(result.error);
  enc.blob(result.record.wire_encode());
  return enc.data();
}

SliceResult decode_result_payload(const std::vector<std::uint8_t>& payload) {
  serialize::Decoder dec(payload);
  SliceResult result;
  result.job_failed = dec.u8() != 0;
  result.done = dec.u8() != 0;
  result.peak_rss_kb = dec.u64();
  result.error = dec.str();
  result.record = JobRecord::wire_decode(dec.blob());
  if (!dec.done())
    throw serialize::SnapshotError("pbsf: trailing bytes in slice result");
  return result;
}

// --- SocketEndpoint -------------------------------------------------------

SocketEndpoint::SocketEndpoint(int fd, std::string name,
                               EndpointOptions options,
                               std::atomic<std::uint64_t>* frame_bytes,
                               std::atomic<std::uint64_t>* peak_rss_kb)
    : fd_(fd),
      name_(std::move(name)),
      options_(options),
      frame_bytes_(frame_bytes),
      peak_rss_kb_(peak_rss_kb) {
  if (options_.heartbeat_ms == 0) options_.heartbeat_ms = 2000;
  // A worker that dies mid-frame-body must not hang the slot thread
  // forever: cap every blocking read at the liveness window.
  struct timeval tv;
  const std::uint64_t window = options_.heartbeat_ms * 3;
  tv.tv_sec = static_cast<time_t>(window / 1000);
  tv.tv_usec = static_cast<suseconds_t>((window % 1000) * 1000);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

SocketEndpoint::~SocketEndpoint() {
  if (fd_ >= 0) ::close(fd_);
}

SliceOutcome SocketEndpoint::run_slice(JobRecord& rec,
                                       std::uint64_t slice_ticks,
                                       bool& done, std::string& error) {
  if (fd_ < 0) {
    error = "endpoint already closed";
    return SliceOutcome::kEndpointDead;
  }
  const std::vector<std::uint8_t> payload =
      encode_assign_payload(rec, slice_ticks);
  try {
    send_frame_bytes(
        fd_, serialize::encode_frame(serialize::FrameKind::kJobAssign,
                                     payload));
  } catch (const std::exception& e) {
    error = std::string("assign failed: ") + e.what();
    ::close(fd_);
    fd_ = -1;
    return SliceOutcome::kEndpointDead;
  }
  if (frame_bytes_) *frame_bytes_ += payload.size();

  const std::uint64_t hb_window = options_.heartbeat_ms * 3;
  const std::uint64_t start = monotonic_ms();
  std::uint64_t hb_due = start + hb_window;
  const std::uint64_t wall_due =
      options_.slice_deadline_ms
          ? start + options_.slice_deadline_ms
          : UINT64_MAX;

  while (true) {
    const std::uint64_t now = monotonic_ms();
    if (now >= hb_due) {
      error = "heartbeat timeout (" + std::to_string(hb_window) + " ms)";
      break;
    }
    if (now >= wall_due) {
      error = "slice deadline exceeded (" +
              std::to_string(options_.slice_deadline_ms) + " ms)";
      break;
    }
    const std::uint64_t wait = std::min(hb_due, wall_due) - now;
    struct pollfd pfd = {fd_, POLLIN, 0};
    int r = ::poll(&pfd, 1,
                   static_cast<int>(std::min<std::uint64_t>(wait, INT_MAX)));
    if (r < 0) {
      if (errno == EINTR) continue;
      error = std::string("poll failed: ") + ::strerror(errno);
      break;
    }
    if (r == 0) continue;  // next iteration applies the deadline check

    Json msg;
    std::vector<std::uint8_t> framed;
    try {
      const WireKind kind = recv_wire(fd_, msg, framed);
      if (kind == WireKind::kEof) {
        error = "worker closed connection mid-slice";
        break;
      }
      if (kind == WireKind::kJson) {
        error = "unexpected JSON frame from worker";
        break;
      }
      std::vector<std::uint8_t> body;
      const serialize::FrameKind fkind = serialize::decode_frame(framed, body);
      if (fkind == serialize::FrameKind::kHeartbeat) {
        hb_due = monotonic_ms() + hb_window;
        continue;
      }
      if (fkind != serialize::FrameKind::kJobResult) {
        error = "unexpected frame kind from worker";
        break;
      }
      SliceResult result = decode_result_payload(body);
      if (frame_bytes_) *frame_bytes_ += body.size();
      if (peak_rss_kb_) {
        std::uint64_t prev = peak_rss_kb_->load();
        while (result.peak_rss_kb > prev &&
               !peak_rss_kb_->compare_exchange_weak(prev, result.peak_rss_kb))
          ;
      }
      if (result.job_failed) {
        error = result.error;
        done = true;
        return SliceOutcome::kJobFailed;
      }
      rec = std::move(result.record);
      done = result.done;
      return SliceOutcome::kOk;
    } catch (const std::exception& e) {
      error = std::string("worker transport error: ") + e.what();
      break;
    }
  }
  ::close(fd_);
  fd_ = -1;
  return SliceOutcome::kEndpointDead;
}

// --- WorkerPool -----------------------------------------------------------

std::string default_worker_exe() {
  char buf[PATH_MAX];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "pbse-worker";
  buf[n] = '\0';
  std::string path(buf);
  std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return "pbse-worker";
  return path.substr(0, slash + 1) + "pbse-worker";
}

WorkerPool::WorkerPool(WorkerPoolOptions options, Scheduler& scheduler)
    : options_(std::move(options)), scheduler_(scheduler) {
  if (options_.worker_exe.empty()) options_.worker_exe = default_worker_exe();
}

WorkerPool::~WorkerPool() {
  std::lock_guard<std::mutex> lock(mu_);
  // Workers are stateless between slices (every snapshot lives in the
  // daemon), so a hard kill loses nothing.
  for (support::Subprocess& p : procs_)
    if (p.valid()) p.signal(SIGKILL);
  for (support::Subprocess& p : procs_) p.wait();
}

void WorkerPool::spawn_one() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
    throw std::runtime_error(std::string("socketpair failed: ") +
                             ::strerror(errno));
  std::vector<std::string> argv = {
      options_.worker_exe,
      "--connect-fd=3",
      "--heartbeat-ms=" + std::to_string(options_.endpoint.heartbeat_ms),
  };
  if (options_.max_rss_mb)
    argv.push_back("--max-rss-mb=" + std::to_string(options_.max_rss_mb));
  support::Subprocess proc;
  try {
    proc = support::Subprocess::spawn(argv, {{sv[1], 3}});
  } catch (...) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw;
  }
  ::close(sv[1]);
  auto endpoint = std::make_unique<SocketEndpoint>(
      sv[0], "proc:" + std::to_string(proc.pid()), options_.endpoint,
      &scheduler_.frame_bytes_counter(), &peak_rss_kb_);
  scheduler_.add_external_worker(std::move(endpoint));
  procs_.push_back(std::move(proc));
  ++spawned_total_;
}

void WorkerPool::start() {
  std::lock_guard<std::mutex> lock(mu_);
  for (unsigned i = 0; i < options_.processes; ++i) spawn_one();
}

unsigned WorkerPool::alive() {
  std::lock_guard<std::mutex> lock(mu_);
  unsigned n = 0;
  for (support::Subprocess& p : procs_)
    if (p.alive()) ++n;
  return n;
}

unsigned WorkerPool::respawn_dead() {
  std::lock_guard<std::mutex> lock(mu_);
  unsigned live = 0;
  for (support::Subprocess& p : procs_)
    if (p.alive()) ++live;
  unsigned spawned = 0;
  while (live + spawned < options_.processes) {
    spawn_one();
    ++spawned;
  }
  return spawned;
}

}  // namespace pbse::server
