#include "server/scheduler.h"

#include <algorithm>

#include "server/slice_runner.h"

namespace pbse::server {

Scheduler::Scheduler(SchedulerOptions options, EventFn on_event)
    : options_(options), on_event_(std::move(on_event)) {
  for (unsigned i = 0; i < options_.workers; ++i) {
    auto slot = std::make_unique<Slot>();
    slots_.push_back(std::move(slot));
  }
  for (unsigned i = 0; i < options_.workers; ++i)
    slots_[i]->thread = std::thread([this, i] { worker_main(i); });
}

Scheduler::~Scheduler() { stop(); }

std::uint64_t Scheduler::submit(JobSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  JobRecord rec;
  rec.id = next_id_++;
  rec.spec = std::move(spec);
  std::uint64_t id = rec.id;
  jobs_.emplace(id, std::move(rec));
  if (slots_.empty())
    unassigned_.push_back(id);  // a future worker picks it up
  else
    slots_[id % slots_.size()]->jobs.push_back(id);
  ++inflight_;
  work_cv_.notify_one();
  return id;
}

void Scheduler::resubmit(JobRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  next_id_ = std::max(next_id_, rec.id + 1);
  std::uint64_t id = rec.id;
  // A job persisted as "running" died mid-slice; its snapshot is the last
  // completed slice, so resuming it re-executes only the lost slice.
  if (rec.state == JobState::kRunning || rec.state == JobState::kCheckpointed)
    rec.state = JobState::kQueued;
  bool enqueue = rec.state == JobState::kQueued;
  jobs_[id] = std::move(rec);
  if (enqueue) {
    if (slots_.empty())
      unassigned_.push_back(id);
    else
      slots_[id % slots_.size()]->jobs.push_back(id);
    ++inflight_;
    work_cv_.notify_one();
  }
}

unsigned Scheduler::add_external_worker(
    std::unique_ptr<SliceEndpoint> endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_)
    throw ProtocolError("scheduler is stopping; cannot add workers");
  auto slot = std::make_unique<Slot>();
  slot->endpoint = std::move(endpoint);
  const unsigned idx = static_cast<unsigned>(slots_.size());
  slots_.push_back(std::move(slot));
  slots_[idx]->thread = std::thread([this, idx] { worker_main(idx); });
  // The new slot starts with an empty deque; queued work reaches it by
  // stealing, so make sure it wakes up and raids.
  work_cv_.notify_all();
  return idx;
}

bool Scheduler::query(std::uint64_t id, JobRecord& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  out = it->second;
  return true;
}

std::vector<std::uint64_t> Scheduler::job_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> ids;
  ids.reserve(jobs_.size());
  for (const auto& [id, rec] : jobs_) ids.push_back(id);
  return ids;
}

void Scheduler::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return inflight_ == 0; });
}

void Scheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& slot : slots_)
    if (slot->thread.joinable()) slot->thread.join();
}

unsigned Scheduler::live_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  unsigned n = 0;
  for (const auto& slot : slots_)
    if (slot->alive) ++n;
  return n;
}

unsigned Scheduler::num_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<unsigned>(slots_.size());
}

std::map<std::string, std::uint64_t> Scheduler::worker_counters(
    unsigned slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot >= slots_.size()) return {};
  return slots_[slot]->counters;
}

std::map<std::string, std::uint64_t> Scheduler::aggregate_counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& slot : slots_)
    for (const auto& [name, value] : slot->counters) out[name] += value;
  return out;
}

void Scheduler::emit(JobEvent::Kind kind, const JobRecord& rec,
                     unsigned worker, bool stolen) {
  if (!on_event_) return;
  JobEvent ev;
  ev.kind = kind;
  ev.record = rec;
  ev.worker = worker;
  ev.stolen = stolen;
  on_event_(ev);
}

bool Scheduler::next_job(unsigned me, std::uint64_t& id, bool& stolen) {
  std::unique_lock<std::mutex> lock(mu_);
  bool released = false;
  while (true) {
    if (!slots_[me]->alive) return false;
    if (!slots_[me]->jobs.empty()) {
      id = slots_[me]->jobs.back();
      slots_[me]->jobs.pop_back();
      stolen = false;
      return true;
    }
    if (!unassigned_.empty()) {
      // Work submitted before any slot existed (workers=0 farm daemon).
      id = unassigned_.front();
      unassigned_.pop_front();
      stolen = false;
      return true;
    }
    // Raid: dead slots' deques are fair game (that is how work stranded by
    // a worker death drains), live victims lose their coldest jobs first.
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      std::size_t victim = (next_victim_ + k) % slots_.size();
      if (victim == me || slots_[victim]->jobs.empty()) continue;
      auto& from = slots_[victim]->jobs;
      id = from.front();
      from.pop_front();
      next_victim_ = victim + 1;
      ++steals_;
      stolen = true;
      return true;
    }
    if (stopping_) return false;
    if (!released) {
      // Going idle: the job this thread's resident campaign belongs to has
      // finished or runs elsewhere, so nothing can continue it. Free it
      // outside the lock, then look for work again.
      released = true;
      lock.unlock();
      release_resident();
      lock.lock();
      continue;
    }
    work_cv_.wait(lock);
  }
}

void Scheduler::worker_main(unsigned me) {
  std::uint64_t id = 0;
  bool stolen = false;
  while (next_job(me, id, stolen)) {
    if (!run_slice(me, id, stolen)) break;  // slot died with this slice
  }
}

void Scheduler::retire_slot(unsigned me) {
  slots_[me]->alive = false;
  // Anything still queued here is reachable by thieves, but only if one is
  // awake to raid.
  if (!slots_[me]->jobs.empty()) work_cv_.notify_all();
}

bool Scheduler::run_slice(unsigned me, std::uint64_t id, bool stolen) {
  JobRecord rec;
  bool first_slice = false;
  Slot* self = nullptr;  // Slot storage is stable; slots_ itself is not
  {
    std::lock_guard<std::mutex> lock(mu_);
    self = slots_[me].get();
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return true;
    first_slice = it->second.state == JobState::kQueued &&
                  it->second.snapshot.empty() &&
                  it->second.run_end_ticks == 0;
    it->second.state = JobState::kRunning;
    rec = it->second;
  }
  if (first_slice) emit(JobEvent::Kind::kStarted, rec, me, stolen);

  std::uint64_t slice = rec.spec.slice_ticks != 0 ? rec.spec.slice_ticks
                                                  : kDefaultSliceTicks;
  bool done = false;
  SliceEndpoint* endpoint = self->endpoint.get();
  if (endpoint) {
    std::string error;
    switch (endpoint->run_slice(rec, slice, options_.static_analysis, done,
                                error)) {
      case SliceOutcome::kOk:
        rec.state = done ? JobState::kDone : JobState::kCheckpointed;
        break;
      case SliceOutcome::kJobFailed:
        rec.state = JobState::kFailed;
        rec.error = error;
        done = true;
        break;
      case SliceOutcome::kEndpointDead: {
        // The slice is LOST: the stored record still holds the last
        // completed snapshot and counters, so nothing from this attempt is
        // applied or charged — re-queueing re-executes at most one slice.
        JobRecord after;
        bool failed = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          retire_slot(me);
          auto it = jobs_.find(id);
          if (it != jobs_.end()) {
            JobRecord& stored = it->second;
            stored.requeues += 1;
            ++requeues_;
            if (stored.requeues > options_.max_requeues) {
              stored.state = JobState::kFailed;
              stored.error = "worker died mid-slice (" + error +
                             "); requeue limit " +
                             std::to_string(options_.max_requeues) +
                             " reached";
              failed = true;
              if (inflight_ > 0) --inflight_;
              if (inflight_ == 0) idle_cv_.notify_all();
            } else {
              stored.state = JobState::kQueued;
              // Prefer a live slot's deque; fall back to our own (dead)
              // deque, which stays stealable.
              std::size_t target = me;
              for (std::size_t k = 0; k < slots_.size(); ++k)
                if (k != me && slots_[k]->alive) {
                  target = k;
                  break;
                }
              slots_[target]->jobs.push_back(id);
              work_cv_.notify_all();
            }
            after = stored;
          }
        }
        if (after.id != 0)
          emit(failed ? JobEvent::Kind::kFailed : JobEvent::Kind::kRequeued,
               after, me, stolen);
        if (failed) emit(JobEvent::Kind::kCheckpoint, after, me, stolen);
        return false;
      }
    }
  } else {
    SliceContext ctx;
    ctx.slice_ticks = slice;
    ctx.static_analysis = options_.static_analysis;
    try {
      done = run_job_slice(rec, ctx);
      rec.state = done ? JobState::kDone : JobState::kCheckpointed;
    } catch (const std::exception& e) {
      rec.state = JobState::kFailed;
      rec.error = e.what();
      done = true;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Charge this slice's counter DELTA to the executing slot exactly
    // once: cumulative-now minus the stored record's cumulative-at-last-
    // completed-slice. Lost slices never reach this point.
    auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      for (const auto& [name, value] : rec.counters) {
        std::uint64_t prev = 0;
        auto pit = it->second.counters.find(name);
        if (pit != it->second.counters.end()) prev = pit->second;
        if (value > prev) self->counters[name] += value - prev;
      }
    }
    if (done && inflight_ > 0) --inflight_;
    jobs_[id] = rec;
    if (done && inflight_ == 0) idle_cv_.notify_all();
  }

  emit(JobEvent::Kind::kMetrics, rec, me, stolen);
  emit(JobEvent::Kind::kCheckpoint, rec, me, stolen);
  if (rec.state == JobState::kDone) emit(JobEvent::Kind::kDone, rec, me, stolen);
  if (rec.state == JobState::kFailed)
    emit(JobEvent::Kind::kFailed, rec, me, stolen);

  if (!done) {
    // Re-queue at our own back, after the events: the job's campaign is
    // resident on this thread or worker process, and a thief that took it
    // while we emitted would rebuild it cold. We pop the back next, so
    // wake a thief only when an older job waits at the front.
    std::lock_guard<std::mutex> lock(mu_);
    self->jobs.push_back(id);
    if (self->jobs.size() > 1) work_cv_.notify_one();
  }
  return true;
}

}  // namespace pbse::server
