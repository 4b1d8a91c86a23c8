// pbse-client: command-line client for pbse-serve.
//
//   pbse-client --socket=PATH submit <target> [--mode=pbse|klee]
//       [--budget=TICKS] [--searcher=NAME] [--sym-size=N]
//       [--seed-scale=N] [--rng-seed=N] [--slice=TICKS] [--wait]
//   pbse-client --socket=PATH status <job-id>
//   pbse-client --socket=PATH list
//   pbse-client --socket=PATH wait <job-id>
//   pbse-client --socket=PATH ping
//   pbse-client --socket=PATH pool
//   pbse-client --socket=PATH fetch <job-id> --out=FILE
//   pbse-client --host=H --tcp-port=N workers --remote-workers=N
//   pbse-client --socket=PATH shutdown
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "serialize/pbss.h"
#include "server/client.h"
#include "server/job.h"
#include "server/worker_pool.h"
#include "support/argparse.h"
#include "support/subprocess.h"

namespace {

using pbse::server::Client;
using pbse::server::JobSpec;
using pbse::server::Json;

int usage() {
  std::fprintf(
      stderr,
      "usage: pbse-client [--socket=PATH | [--host=H] --tcp-port=N] "
      "<ping|submit|status|list|wait|pool|fetch|workers|"
      "shutdown> [args]\n"
      "  submit <target> [--mode=pbse|klee] [--budget=TICKS]\n"
      "         [--searcher=NAME] [--sym-size=N] [--seed-scale=N]\n"
      "         [--rng-seed=N] [--slice=TICKS] [--wait]\n"
      "  status <job-id>\n"
      "  wait   <job-id>\n"
      "  pool                 worker fleet / steal / requeue counters\n"
      "  fetch <job-id> --out=FILE\n"
      "                       write the job's pbss snapshot (binary frame\n"
      "                       transfer, no JSON re-encoding)\n"
      "  workers --remote-workers=N [--heartbeat-ms=MS] [--worker-exe=P]\n"
      "                       attach N pbse-worker processes to a remote\n"
      "                       daemon (requires --host/--tcp-port); blocks\n"
      "                       until the daemon hangs up\n");
  return 2;
}

void print_progress(const Json& progress) {
  std::printf("ticks=%llu covered=%llu bugs=%llu tests=%llu\n",
              static_cast<unsigned long long>(progress.get_u64("ticks", 0)),
              static_cast<unsigned long long>(progress.get_u64("covered", 0)),
              static_cast<unsigned long long>(progress.get_u64("bugs", 0)),
              static_cast<unsigned long long>(
                  progress.get_u64("test_cases", 0)));
}

int wait_and_report(Client& client, std::uint64_t job) {
  Json final_ev = client.wait(job);
  std::printf("job %llu %s: ", static_cast<unsigned long long>(job),
              final_ev.get_string("event", "?").c_str());
  print_progress(final_ev.get("progress"));
  if (final_ev.has("error"))
    std::fprintf(stderr, "error: %s\n",
                 final_ev.get_string("error", "").c_str());
  return final_ev.get_string("event", "") == "done" ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "pbse-serve.sock";
  std::string host = "127.0.0.1";
  std::uint16_t tcp_port = 0;
  std::vector<std::string> rest;
  std::string error;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
    } else if (arg.rfind("--host=", 0) == 0) {
      host = arg.substr(7);
    } else if (arg.rfind("--tcp-port=", 0) == 0) {
      std::uint64_t port = 0;
      if (!pbse::support::parse_u64_flag("--tcp-port", arg.substr(11), 1, port,
                                         error) ||
          port > 65535) {
        std::fprintf(stderr, "pbse-client: %s\n",
                     error.empty() ? "--tcp-port out of range" : error.c_str());
        return usage();
      }
      tcp_port = static_cast<std::uint16_t>(port);
    } else {
      rest.push_back(arg);
    }
  }
  if (rest.empty()) return usage();
  const std::string cmd = rest[0];

  try {
    if (cmd == "workers") {
      // Slice farming from this host: spawn N pbse-worker processes that
      // register with the remote daemon and block until they exit (the
      // daemon hanging up is the normal way a farm winds down).
      if (tcp_port == 0) {
        std::fprintf(stderr, "pbse-client: workers needs --tcp-port\n");
        return 2;
      }
      std::uint64_t n = 1;
      std::uint64_t heartbeat_ms = 2000;
      std::string worker_exe = pbse::server::default_worker_exe();
      for (std::size_t i = 1; i < rest.size(); ++i) {
        const std::string& arg = rest[i];
        if (arg.rfind("--remote-workers=", 0) == 0) {
          if (!pbse::support::parse_u64_flag("--remote-workers",
                                             arg.substr(17), 1, n, error) ||
              n > 1024) {
            std::fprintf(stderr, "pbse-client: %s\n",
                         error.empty() ? "--remote-workers out of range"
                                       : error.c_str());
            return 2;
          }
        } else if (arg.rfind("--heartbeat-ms=", 0) == 0) {
          if (!pbse::support::parse_u64_flag("--heartbeat-ms", arg.substr(15),
                                             1, heartbeat_ms, error)) {
            std::fprintf(stderr, "pbse-client: %s\n", error.c_str());
            return 2;
          }
        } else if (arg.rfind("--worker-exe=", 0) == 0) {
          worker_exe = arg.substr(13);
        } else {
          std::fprintf(stderr, "pbse-client: unknown flag '%s'\n",
                       arg.c_str());
          return usage();
        }
      }
      std::vector<pbse::support::Subprocess> procs;
      for (std::uint64_t i = 0; i < n; ++i) {
        procs.push_back(pbse::support::Subprocess::spawn(
            {worker_exe,
             "--connect=" + host + ":" + std::to_string(tcp_port),
             "--heartbeat-ms=" + std::to_string(heartbeat_ms)},
            {}));
      }
      std::printf("pbse-client: %llu workers attached to %s:%u\n",
                  static_cast<unsigned long long>(n), host.c_str(), tcp_port);
      std::fflush(stdout);
      int rc = 0;
      for (auto& p : procs)
        if (p.wait() != 0) rc = 1;
      return rc;
    }

    Client client = tcp_port != 0 ? Client::connect_tcp(host, tcp_port)
                                  : Client::connect_unix(socket_path);

    if (cmd == "ping" || cmd == "shutdown" || cmd == "pool") {
      Json req = Json::object();
      req.set("cmd", Json::string(cmd));
      Json resp = client.request(req);
      std::printf("%s\n", resp.dump().c_str());
      return resp.get_bool("ok", false) ? 0 : 1;
    }

    if (cmd == "fetch") {
      if (rest.size() < 2) return usage();
      std::uint64_t job = 0;
      if (!pbse::support::parse_u64(rest[1], job)) {
        std::fprintf(stderr, "pbse-client: '%s' is not a job id\n",
                     rest[1].c_str());
        return 2;
      }
      std::string out;
      for (std::size_t i = 2; i < rest.size(); ++i) {
        if (rest[i].rfind("--out=", 0) == 0) {
          out = rest[i].substr(6);
        } else {
          std::fprintf(stderr, "pbse-client: unknown flag '%s'\n",
                       rest[i].c_str());
          return usage();
        }
      }
      if (out.empty()) {
        std::fprintf(stderr, "pbse-client: fetch needs --out=FILE\n");
        return 2;
      }
      pbse::server::JobRecord rec = client.fetch(job);
      if (rec.snapshot.empty()) {
        std::fprintf(stderr, "pbse-client: job %llu has no snapshot yet\n",
                     static_cast<unsigned long long>(job));
        return 1;
      }
      pbse::serialize::write_file_atomic(out, rec.snapshot);
      std::printf("job %llu snapshot: %zu bytes -> %s\n",
                  static_cast<unsigned long long>(job), rec.snapshot.size(),
                  out.c_str());
      return 0;
    }

    if (cmd == "list") {
      Json req = Json::object();
      req.set("cmd", Json::string("list"));
      Json resp = client.request(req);
      if (!resp.get_bool("ok", false)) {
        std::fprintf(stderr, "pbse-client: %s\n",
                     resp.get_string("error", "list failed").c_str());
        return 1;
      }
      for (const Json& rec : resp.get("jobs").items()) {
        std::printf("job %llu [%s] %s/%s ",
                    static_cast<unsigned long long>(rec.get_u64("id", 0)),
                    rec.get_string("state", "?").c_str(),
                    rec.get("spec").get_string("mode", "?").c_str(),
                    rec.get("spec").get_string("target", "?").c_str());
        print_progress(rec.get("progress"));
      }
      return 0;
    }

    if (cmd == "status" || cmd == "wait") {
      if (rest.size() < 2) return usage();
      std::uint64_t job = 0;
      if (!pbse::support::parse_u64(rest[1], job)) {
        std::fprintf(stderr, "pbse-client: '%s' is not a job id\n",
                     rest[1].c_str());
        return 2;
      }
      if (cmd == "wait") return wait_and_report(client, job);
      Json req = Json::object();
      req.set("cmd", Json::string("status"));
      req.set("job", Json::number(job));
      Json resp = client.request(req);
      if (!resp.get_bool("ok", false)) {
        std::fprintf(stderr, "pbse-client: %s\n",
                     resp.get_string("error", "status failed").c_str());
        return 1;
      }
      std::printf("%s\n", resp.get("record").dump().c_str());
      return 0;
    }

    if (cmd == "submit") {
      if (rest.size() < 2) return usage();
      JobSpec spec;
      spec.target = rest[1];
      bool wait_after = false;
      for (std::size_t i = 2; i < rest.size(); ++i) {
        const std::string& arg = rest[i];
        auto value_of = [&arg](const char* prefix) -> const char* {
          const std::size_t n = std::strlen(prefix);
          return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
        };
        if (const char* v = value_of("--mode=")) {
          if (!pbse::server::parse_job_mode(v, spec.mode)) {
            std::fprintf(stderr, "pbse-client: unknown mode '%s'\n", v);
            return 2;
          }
        } else if (const char* v = value_of("--budget=")) {
          if (!pbse::support::parse_u64_flag("--budget", v, 1,
                                             spec.budget_ticks, error)) {
            std::fprintf(stderr, "pbse-client: %s\n", error.c_str());
            return 2;
          }
        } else if (const char* v = value_of("--searcher=")) {
          if (!pbse::search::parse_searcher_kind(v, spec.searcher)) {
            std::fprintf(stderr, "pbse-client: unknown searcher '%s'\n", v);
            return 2;
          }
        } else if (const char* v = value_of("--sym-size=")) {
          unsigned n = 0;
          if (!pbse::support::parse_positive_count("--sym-size", v, n, error)) {
            std::fprintf(stderr, "pbse-client: %s\n", error.c_str());
            return 2;
          }
          spec.sym_size = n;
        } else if (const char* v = value_of("--seed-scale=")) {
          unsigned n = 0;
          if (!pbse::support::parse_positive_count("--seed-scale", v, n,
                                                   error)) {
            std::fprintf(stderr, "pbse-client: %s\n", error.c_str());
            return 2;
          }
          spec.seed_scale = n;
        } else if (const char* v = value_of("--rng-seed=")) {
          if (!pbse::support::parse_u64_flag("--rng-seed", v, 0, spec.rng_seed,
                                             error)) {
            std::fprintf(stderr, "pbse-client: %s\n", error.c_str());
            return 2;
          }
        } else if (const char* v = value_of("--slice=")) {
          if (!pbse::support::parse_u64_flag("--slice", v, 1, spec.slice_ticks,
                                             error)) {
            std::fprintf(stderr, "pbse-client: %s\n", error.c_str());
            return 2;
          }
        } else if (arg == "--wait") {
          wait_after = true;
        } else {
          std::fprintf(stderr, "pbse-client: unknown flag '%s'\n", arg.c_str());
          return usage();
        }
      }
      std::uint64_t id = client.submit(spec);
      std::printf("job %llu submitted\n", static_cast<unsigned long long>(id));
      if (wait_after) return wait_and_report(client, id);
      return 0;
    }

    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbse-client: %s\n", e.what());
    return 1;
  }
}
