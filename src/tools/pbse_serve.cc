// pbse-serve: campaign daemon. Accepts jobs over a Unix (or TCP) socket,
// runs them on a work-stealing scheduler across inline threads, local
// pbse-worker processes, and TCP-registered remote workers, checkpoints to
// the state directory, and resumes interrupted jobs on restart. See
// DESIGN.md §11 and §13.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "server/server.h"
#include "support/argparse.h"

namespace {

pbse::server::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server) g_server->request_stop();
}

int usage() {
  std::fprintf(
      stderr,
      "usage: pbse-serve [options]\n"
      "  --socket=PATH     unix socket to listen on (default "
      "pbse-serve.sock)\n"
      "  --tcp-port=N      also listen on <tcp-bind>:N (default off)\n"
      "  --tcp-bind=ADDR   TCP bind address (default 127.0.0.1; use\n"
      "                    0.0.0.0 to accept remote workers)\n"
      "  --state-dir=DIR   checkpoint directory (default pbse-serve-state)\n"
      "  --workers=N       inline scheduler worker threads (default 2;\n"
      "                    defaults to 0 when --worker-processes is set)\n"
      "  --worker-processes=N  local pbse-worker processes (default 0)\n"
      "  --heartbeat-ms=N  worker heartbeat interval; dead after 3 missed\n"
      "                    beats (default 2000)\n"
      "  --slice-deadline-ms=N  wall-clock cap per slice, heartbeats or\n"
      "                    not (default 0 = none)\n"
      "  --max-requeues=N  give up on a job after N lost slices "
      "(default 3)\n"
      "  --worker-rss-mb=N RLIMIT_AS per worker process (default off)\n"
      "  --worker-exe=PATH pbse-worker binary (default: sibling)\n"
      "  --oneshot         exit once every queued job is done (smoke tests)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pbse::server::ServerOptions options;
  bool oneshot = false;
  bool explicit_workers = false;
  std::string error;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--socket=")) {
      options.socket_path = v;
    } else if (const char* v = value_of("--state-dir=")) {
      options.state_dir = v;
    } else if (const char* v = value_of("--tcp-port=")) {
      std::uint64_t port = 0;
      if (!pbse::support::parse_u64_flag("--tcp-port", v, 1, port, error) ||
          port > 65535) {
        std::fprintf(stderr, "pbse-serve: %s\n",
                     error.empty() ? "--tcp-port out of range" : error.c_str());
        return usage();
      }
      options.tcp_port = static_cast<std::uint16_t>(port);
    } else if (const char* v = value_of("--tcp-bind=")) {
      options.tcp_bind = v;
    } else if (const char* v = value_of("--workers=")) {
      std::uint64_t workers = 0;
      if (!pbse::support::parse_u64_flag("--workers", v, 0, workers, error) ||
          workers > 1024) {
        std::fprintf(stderr, "pbse-serve: %s\n",
                     error.empty() ? "--workers out of range" : error.c_str());
        return usage();
      }
      options.scheduler.workers = static_cast<unsigned>(workers);
      explicit_workers = true;
    } else if (const char* v = value_of("--worker-processes=")) {
      std::uint64_t n = 0;
      if (!pbse::support::parse_u64_flag("--worker-processes", v, 1, n,
                                         error) ||
          n > 1024) {
        std::fprintf(stderr, "pbse-serve: %s\n",
                     error.empty() ? "--worker-processes out of range"
                                   : error.c_str());
        return usage();
      }
      options.worker_processes = static_cast<unsigned>(n);
    } else if (const char* v = value_of("--heartbeat-ms=")) {
      if (!pbse::support::parse_u64_flag("--heartbeat-ms", v, 1,
                                         options.endpoint.heartbeat_ms,
                                         error)) {
        std::fprintf(stderr, "pbse-serve: %s\n", error.c_str());
        return usage();
      }
    } else if (const char* v = value_of("--slice-deadline-ms=")) {
      if (!pbse::support::parse_u64_flag("--slice-deadline-ms", v, 1,
                                         options.endpoint.slice_deadline_ms,
                                         error)) {
        std::fprintf(stderr, "pbse-serve: %s\n", error.c_str());
        return usage();
      }
    } else if (const char* v = value_of("--max-requeues=")) {
      if (!pbse::support::parse_positive_count(
              "--max-requeues", v, options.scheduler.max_requeues, error)) {
        std::fprintf(stderr, "pbse-serve: %s\n", error.c_str());
        return usage();
      }
    } else if (const char* v = value_of("--worker-rss-mb=")) {
      if (!pbse::support::parse_u64_flag("--worker-rss-mb", v, 1,
                                         options.worker_rss_mb, error)) {
        std::fprintf(stderr, "pbse-serve: %s\n", error.c_str());
        return usage();
      }
    } else if (const char* v = value_of("--worker-exe=")) {
      options.worker_exe = v;
    } else if (arg == "--oneshot") {
      oneshot = true;
    } else {
      std::fprintf(stderr, "pbse-serve: unknown flag '%s'\n", arg.c_str());
      return usage();
    }
  }

  // With a process pool the inline tier defaults off: every slice runs
  // isolated unless --workers asked for a mixed fleet explicitly.
  if (options.worker_processes > 0 && !explicit_workers)
    options.scheduler.workers = 0;
  if (options.scheduler.workers == 0 && options.worker_processes == 0 &&
      options.tcp_port == 0) {
    std::fprintf(stderr,
                 "pbse-serve: --workers=0 needs --worker-processes or a "
                 "--tcp-port for remote workers\n");
    return usage();
  }

  try {
    pbse::server::Server server(options);
    g_server = &server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    // A worker or client dying mid-write must not take the daemon with it.
    std::signal(SIGPIPE, SIG_IGN);
    server.start();
    std::printf(
        "pbse-serve: listening on %s (%u workers, %u worker processes, "
        "%zu jobs recovered)\n",
        options.socket_path.c_str(), options.scheduler.workers,
        options.worker_processes, server.recovered_jobs());
    std::fflush(stdout);
    if (oneshot) {
      // Oneshot still serves the socket (a client may stream events); a
      // watcher thread flips running_ once the scheduler drains.
      std::thread waiter([&server] { server.request_stop_when_idle(); });
      server.serve_forever();
      waiter.join();
    } else {
      server.serve_forever();
    }
    g_server = nullptr;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbse-serve: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
