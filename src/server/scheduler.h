// Work-stealing job scheduler for pbse-serve (DESIGN.md §11, §13).
//
// Topology: N slots, each driven by its own long-running thread. A slot is
// either INLINE (endpoint == nullptr: the slot thread materializes the
// campaign and runs the slice itself, PR 8 behavior) or EXTERNAL (the slot
// thread ships slices to a worker process / remote host through a
// SliceEndpoint and blocks on the result). Each slot owns a deque of job
// ids:
//
//   * the owner pushes/pops at the BACK (LIFO — a job it just checkpointed
//     is still resident on the slot's thread or worker process, which
//     continues it instead of rebuilding it; slice_runner.h). The owner
//     re-queues a job only after the slice's events, and wakes a thief
//     only when an older job waits in front of it: a woken thief takes
//     that older job, not the one the owner is about to continue. A slot
//     thread that finds no work drops its resident campaign before it
//     sleeps.
//   * thieves steal from the FRONT (FIFO — the victim's oldest, coldest
//     job), one job per raid, picking victims round-robin from a shared
//     cursor.
//
// The unit of scheduling is a SLICE, not a whole campaign. Between slices
// a job is pure data (spec + pbss snapshot + run_end_ticks), which is what
// makes both stealing and process/host migration sound — expression
// interning is thread-local, so a campaign object must never cross
// threads, but its snapshot can cross machines. Slicing cuts only at
// batch (klee) / turn (pbse) boundaries, so a job's final snapshot is
// BYTE-identical no matter how many workers ran it, where they ran, or how
// often it migrated.
//
// Worker death (crash, kill -9, partition — detected by the endpoint via
// heartbeat timeout or transport EOF) marks the slot dead, re-queues the
// in-flight job from its last completed snapshot (losing at most one
// slice, the PR 8 crash-recovery bound), drains the dead slot's deque to a
// live slot, and charges the job's counters NOTHING for the lost slice:
// counter deltas are applied exactly once, when a slice RESULT is
// accepted.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/job.h"

namespace pbse::server {

struct SchedulerOptions {
  unsigned workers = 2;
  /// Static pre-analysis (DESIGN.md §12) for every job this daemon runs.
  /// Daemon-global: a checkpoint written with the flag on must be resumed
  /// with it on (and vice versa) or the tick streams diverge.
  bool static_analysis = true;
  /// A job re-queued this many times by worker deaths is declared
  /// poisoned and fails instead of re-queueing forever.
  unsigned max_requeues = 3;
};

/// How one remotely executed slice ended.
enum class SliceOutcome : std::uint8_t {
  kOk = 0,            // record updated, slice result applied
  kJobFailed = 1,     // the job itself threw; error holds the diagnostic
  kEndpointDead = 2,  // worker crash / timeout / EOF; job must re-queue
};

/// Transport-side executor of one slice on a worker that is NOT an inline
/// thread of this process (a local worker process or a remote host).
/// Implementations live in worker_pool.{h,cc}; the scheduler only needs
/// this seam — which is also what the death-recovery unit tests fake.
class SliceEndpoint {
 public:
  virtual ~SliceEndpoint() = default;
  virtual std::string describe() const = 0;
  /// Ships `rec`, blocks for the result (policing liveness), applies it to
  /// `rec` on success. `done` is the job-finished flag on kOk.
  virtual SliceOutcome run_slice(JobRecord& rec, std::uint64_t slice_ticks,
                                 bool static_analysis, bool& done,
                                 std::string& error) = 0;
};

/// One scheduler event, delivered on the slot thread that produced it.
struct JobEvent {
  enum class Kind : std::uint8_t {
    kStarted,      // first slice began
    kMetrics,      // a slice finished; progress updated
    kCheckpoint,   // a checkpoint should be / was persisted
    kDone,
    kFailed,
    kRequeued,     // worker died mid-slice; job back in a queue
  };
  Kind kind;
  JobRecord record;  // copy, safe to use on any thread
  unsigned worker = 0;
  bool stolen = false;  // this slice ran on a worker that stole the job
};

class Scheduler {
 public:
  using EventFn = std::function<void(const JobEvent&)>;

  /// `on_event` is invoked from slot threads; it must be thread-safe.
  /// Every completed slice emits kCheckpoint; the callback is responsible
  /// for persisting the record (the scheduler itself is filesystem-free
  /// and fully unit-testable). `workers` may be 0 when every slice will
  /// run on external workers added later.
  Scheduler(SchedulerOptions options, EventFn on_event);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Registers and enqueues a fresh job. Returns its id.
  std::uint64_t submit(JobSpec spec);

  /// Re-registers a job recovered from disk (crash recovery): it resumes
  /// from rec.snapshot if present, from scratch otherwise. Keeps rec.id and
  /// bumps the id counter past it.
  void resubmit(JobRecord rec);

  /// Adds a slot driven by an external worker (process or remote host) and
  /// starts its thread. Returns the slot index. Thread-safe; callable
  /// while jobs are in flight (a remote worker may register mid-campaign).
  unsigned add_external_worker(std::unique_ptr<SliceEndpoint> endpoint);

  /// Snapshot of a job's record (copy); false if unknown id.
  bool query(std::uint64_t id, JobRecord& out) const;
  std::vector<std::uint64_t> job_ids() const;

  /// Blocks until every queued job has reached kDone/kFailed.
  void wait_idle();

  /// Stops workers after their current slice; queued jobs stay queued
  /// (their state is preserved for a later resubmit).
  void stop();

  /// Total slices executed by workers other than the job's previous one —
  /// the smoke test asserts stealing actually happens under load.
  std::uint64_t steals() const { return steals_; }
  /// Total jobs re-queued after a worker death.
  std::uint64_t requeues() const { return requeues_; }
  /// Slots whose endpoint (or thread) is still alive.
  unsigned live_workers() const;
  unsigned num_slots() const;

  /// Campaign counters charged to one worker slot: the sum of the per-
  /// slice deltas of every slice RESULT that slot delivered. A slice lost
  /// to a worker death is charged nowhere, so summing over slots equals
  /// summing each job's cumulative counters exactly once (the
  /// double-counting regression test locks this in).
  std::map<std::string, std::uint64_t> worker_counters(unsigned slot) const;
  /// Sum over all slots.
  std::map<std::string, std::uint64_t> aggregate_counters() const;

  /// Payload bytes moved through external endpoints (assign + result
  /// frames; heartbeats excluded so the count is deterministic).
  std::uint64_t frame_bytes() const { return frame_bytes_; }
  std::atomic<std::uint64_t>& frame_bytes_counter() { return frame_bytes_; }

 private:
  struct Slot {
    std::deque<std::uint64_t> jobs;
    std::unique_ptr<SliceEndpoint> endpoint;  // null = inline execution
    std::thread thread;
    bool alive = true;
    std::map<std::string, std::uint64_t> counters;
  };

  void worker_main(unsigned me);
  bool next_job(unsigned me, std::uint64_t& id, bool& stolen);
  /// Returns false when the slot died executing this slice.
  bool run_slice(unsigned me, std::uint64_t id, bool stolen);
  void retire_slot(unsigned me);  // requires mu_
  void emit(JobEvent::Kind kind, const JobRecord& rec, unsigned worker,
            bool stolen);

  SchedulerOptions options_;
  EventFn on_event_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::map<std::uint64_t, JobRecord> jobs_;
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Jobs submitted while no slot existed yet (workers=0 farm daemon
  /// waiting for remote registrations); drained by the first comer.
  std::deque<std::uint64_t> unassigned_;
  std::uint64_t next_id_ = 1;
  std::uint64_t inflight_ = 0;  // queued + running
  std::uint64_t next_victim_ = 0;
  std::uint64_t steals_ = 0;
  std::atomic<std::uint64_t> requeues_{0};
  std::atomic<std::uint64_t> frame_bytes_{0};
  bool stopping_ = false;
};

}  // namespace pbse::server
