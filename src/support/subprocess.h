// Minimal fork/exec subprocess management for the worker pool.
//
// Deliberately tiny: spawn with an argv and a set of inherited fds
// (everything else is close-on-exec or closed in the child), poll
// liveness without blocking, signal, and reap. No shells, no pipes-as-
// streams — the worker protocol runs over a socketpair the caller creates
// and passes down as an inherited fd.
#pragma once

#include <sys/types.h>

#include <string>
#include <utility>
#include <vector>

namespace pbse::support {

class Subprocess {
 public:
  Subprocess() = default;
  ~Subprocess();

  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;

  /// Forks and execs argv[0] with the given argv. Each {parent_fd,
  /// child_fd} pair is dup2'd into the child at child_fd; the parent's
  /// copy stays open in the parent. Throws std::runtime_error when the
  /// fork fails (an exec failure surfaces as exit status 127).
  static Subprocess spawn(const std::vector<std::string>& argv,
                          const std::vector<std::pair<int, int>>& pass_fds);

  pid_t pid() const { return pid_; }
  bool valid() const { return pid_ > 0; }

  /// Non-blocking: true while the child has not exited (reaps on exit).
  bool alive();
  /// Sends `sig`; returns false if the child is already gone.
  bool signal(int sig);
  /// Blocks until exit, reaps, returns the raw waitpid status (-1 if the
  /// child was never started or already reaped).
  int wait();

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  int status_ = -1;
};

}  // namespace pbse::support
