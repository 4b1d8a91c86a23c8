// pbse-worker: process-isolated slice executor (DESIGN.md §13).
//
// Speaks pbsf frames over one socket: receives kJobAssign (a wire-encoded
// JobRecord with raw pbss bytes inside), materializes the campaign in ITS
// OWN address space — own interner, own allocator, own solver caches —
// runs the slice via the same run_job_slice the daemon's inline workers
// use, and ships back a kJobResult. While a slice computes, a sidecar
// thread emits kHeartbeat beacons so the daemon can tell "slow" from
// "dead". Between slices the worker keeps at most its last slice's
// campaign resident, to continue it if the job's next slice comes back
// here (slice_runner.h); every result carries the full checkpoint, which
// is why killing one loses at most the slice in flight.
//
// Attachment modes:
//   --connect-fd=N      inherited fd (local WorkerPool child over a
//                       socketpair; no handshake needed)
//   --connect=HOST:PORT TCP to a daemon's listener, introduced by a
//                       worker_hello JSON message (remote slice farming)
#include <errno.h>
#include <sys/resource.h>
#include <unistd.h>

#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serialize/frame.h"
#include "server/client.h"
#include "server/slice_runner.h"
#include "server/worker_pool.h"
#include "support/argparse.h"

namespace {

using pbse::server::Json;

int usage() {
  std::fprintf(
      stderr,
      "usage: pbse-worker (--connect-fd=N | --connect=HOST:PORT) [options]\n"
      "  --connect-fd=N    speak pbsf frames on inherited fd N\n"
      "  --connect=H:P     register with a daemon over TCP\n"
      "  --heartbeat-ms=N  beacon interval while a slice runs "
      "(default 2000)\n"
      "  --max-rss-mb=N    RLIMIT_AS cap for this process\n");
  return 2;
}

std::uint64_t peak_rss_kb() {
  struct rusage ru;
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // KB on Linux
}

/// Emits kHeartbeat on `fd` every `interval_ms` until stopped; every write
/// shares `write_mu` with the result sender so frames never interleave.
class HeartbeatThread {
 public:
  HeartbeatThread(int fd, std::mutex& write_mu, std::uint64_t interval_ms)
      : fd_(fd), write_mu_(write_mu), interval_ms_(interval_ms) {
    thread_ = std::thread([this] { main(); });
  }
  ~HeartbeatThread() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void main() {
    static const std::vector<std::uint8_t> kBeat = pbse::serialize::encode_frame(
        pbse::serialize::FrameKind::kHeartbeat, {});
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                       [this] { return stop_; }))
        return;
      lock.unlock();
      try {
        std::lock_guard<std::mutex> wlock(write_mu_);
        pbse::server::send_frame_bytes(fd_, kBeat);
      } catch (const std::exception&) {
        // The daemon is gone; the main loop will notice on its next read.
      }
      lock.lock();
    }
  }

  int fd_;
  std::mutex& write_mu_;
  std::uint64_t interval_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  // The daemon hanging up mid-write is the normal end of a farm worker's
  // life; report it as an error path, don't die of SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  int connect_fd = -1;
  std::string connect_host;
  std::uint16_t connect_port = 0;
  std::uint64_t heartbeat_ms = 2000;
  std::uint64_t max_rss_mb = 0;
  std::string error;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--connect-fd=")) {
      std::uint64_t fd = 0;
      if (!pbse::support::parse_u64_flag("--connect-fd", v, 0, fd, error) ||
          fd > INT32_MAX) {
        std::fprintf(stderr, "pbse-worker: %s\n",
                     error.empty() ? "--connect-fd out of range"
                                   : error.c_str());
        return usage();
      }
      connect_fd = static_cast<int>(fd);
    } else if (const char* v = value_of("--connect=")) {
      const std::string hp = v;
      const std::size_t colon = hp.find_last_of(':');
      std::uint64_t port = 0;
      if (colon == std::string::npos || colon == 0 ||
          !pbse::support::parse_u64_flag("--connect port", hp.substr(colon + 1),
                                         1, port, error) ||
          port > 65535) {
        std::fprintf(stderr, "pbse-worker: bad --connect (want HOST:PORT)\n");
        return usage();
      }
      connect_host = hp.substr(0, colon);
      connect_port = static_cast<std::uint16_t>(port);
    } else if (const char* v = value_of("--heartbeat-ms=")) {
      if (!pbse::support::parse_u64_flag("--heartbeat-ms", v, 1, heartbeat_ms,
                                         error)) {
        std::fprintf(stderr, "pbse-worker: %s\n", error.c_str());
        return usage();
      }
    } else if (const char* v = value_of("--max-rss-mb=")) {
      if (!pbse::support::parse_u64_flag("--max-rss-mb", v, 1, max_rss_mb,
                                         error)) {
        std::fprintf(stderr, "pbse-worker: %s\n", error.c_str());
        return usage();
      }
    } else {
      std::fprintf(stderr, "pbse-worker: unknown flag '%s'\n", arg.c_str());
      return usage();
    }
  }
  if ((connect_fd < 0) == connect_host.empty()) {
    std::fprintf(stderr,
                 "pbse-worker: need exactly one of --connect-fd/--connect\n");
    return usage();
  }

  if (max_rss_mb != 0) {
    struct rlimit rl;
    rl.rlim_cur = rl.rlim_max =
        static_cast<rlim_t>(max_rss_mb) * 1024 * 1024;
    if (::setrlimit(RLIMIT_AS, &rl) != 0)
      std::fprintf(stderr, "pbse-worker: setrlimit(RLIMIT_AS) failed: %s\n",
                   ::strerror(errno));
  }

  int fd = connect_fd;
  try {
    if (fd < 0) {
      fd = pbse::server::connect_tcp_fd(connect_host, connect_port);
      // Introduce ourselves on the shared listener; the daemon detaches
      // this connection from its client set and hands it to the scheduler.
      Json hello = Json::object();
      hello.set("cmd", Json::string("worker_hello"));
      pbse::server::send_message(fd, hello);
      Json reply;
      if (!pbse::server::recv_message(fd, reply) ||
          !reply.get_bool("ok", false)) {
        std::fprintf(stderr, "pbse-worker: daemon rejected worker_hello\n");
        return 1;
      }
    }

    std::mutex write_mu;
    Json msg;
    std::vector<std::uint8_t> framed;
    pbse::server::WireKind wk;
    while ((wk = pbse::server::recv_wire(fd, msg, framed)) !=
           pbse::server::WireKind::kEof) {
      if (wk != pbse::server::WireKind::kFrame) continue;  // stray JSON
      std::vector<std::uint8_t> payload;
      const pbse::serialize::FrameKind kind =
          pbse::serialize::decode_frame(framed, payload);
      framed.clear();
      if (kind != pbse::serialize::FrameKind::kJobAssign) continue;

      pbse::server::JobRecord rec;
      std::uint64_t slice_ticks = 0;
      pbse::server::decode_assign_payload(payload, rec, slice_ticks);

      pbse::server::SliceResult result;
      {
        HeartbeatThread beat(fd, write_mu, heartbeat_ms);
        pbse::server::SliceContext ctx;
        ctx.slice_ticks = slice_ticks;
        try {
          result.done = pbse::server::run_job_slice(rec, ctx);
        } catch (const std::exception& e) {
          result.job_failed = true;
          result.error = e.what();
        }
        result.record = std::move(rec);
      }
      result.peak_rss_kb = peak_rss_kb();

      const std::vector<std::uint8_t> body =
          pbse::server::encode_result_payload(result);
      std::lock_guard<std::mutex> wlock(write_mu);
      pbse::server::send_frame_bytes(
          fd, pbse::serialize::encode_frame(
                  pbse::serialize::FrameKind::kJobResult, body));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbse-worker: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
