#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace neurfill::serve {
namespace {

// EMA smoothing for the per-job wall-time estimate that drives the
// predicted-wait admission model.
constexpr double kMeanAlpha = 0.2;

std::string format_job_id(std::uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "j%06llu",
                static_cast<unsigned long long>(n));
  return buf;
}

}  // namespace

double retry_delay_s(int failures, double base_s, double cap_s) {
  if (failures <= 0) return 0.0;
  // 2^(failures-1), saturating well before the cap can overflow.
  double delay = base_s;
  for (int i = 1; i < failures && delay < cap_s; ++i) delay *= 2.0;
  return std::min(delay, cap_s);
}

bool is_recoverable(ErrorCode code) {
  switch (code) {
    case ErrorCode::kIo:
    case ErrorCode::kNonConverged:
    case ErrorCode::kNumericPoison:
    case ErrorCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

Scheduler::Scheduler(SchedulerOptions options, ExecuteFn execute,
                     PersistFn persist, SnapshotPathFn snapshot_path)
    : opts_(options),
      execute_(std::move(execute)),
      persist_(std::move(persist)),
      snapshot_path_(std::move(snapshot_path)) {}

void Scheduler::persist_or_warn(const JobRecord& rec) {
  Expected<void> ok = persist_(rec);
  if (!ok.ok())
    LOG_WARN("serve.scheduler: journal write for job %s failed (%s); "
             "continuing with reduced resume granularity",
             rec.id.c_str(), ok.error().to_string().c_str());
}

[[nodiscard]] Expected<std::string> Scheduler::submit(JobSpec spec) {
  std::lock_guard<std::mutex> lock(m_);
  if (draining_ || stop_) {
    NF_COUNTER_ADD("serve.jobs_rejected", 1);
    return Error(ErrorCode::kOverloaded, "serve.admission",
                 "daemon is draining; not accepting jobs");
  }
  if (spec.design.empty() || spec.out.empty())
    return Error(ErrorCode::kInvalidArgument, "serve.admission",
                 "job spec requires non-empty 'design' and 'out' paths");
  if (!(spec.window_um > 0.0))
    return Error(ErrorCode::kInvalidArgument, "serve.admission",
                 "job spec 'window' must be positive");
  if (queue_.size() >= opts_.queue_capacity) {
    NF_COUNTER_ADD("serve.jobs_rejected", 1);
    return Error(ErrorCode::kOverloaded, "serve.admission",
                 "queue full (" + std::to_string(queue_.size()) + "/" +
                     std::to_string(opts_.queue_capacity) + " jobs waiting)");
  }
  if (records_.size() >= opts_.max_records) {
    NF_COUNTER_ADD("serve.jobs_rejected", 1);
    return Error(ErrorCode::kQueueFull, "serve.admission",
                 "job table full (" + std::to_string(records_.size()) +
                     " records); reap completed jobs first");
  }
  // Load shedding: reject now what the backlog estimate already dooms,
  // instead of queueing it to time out a deadline later.
  const double backlog = static_cast<double>(queue_.size()) +
                         (running_id_.empty() ? 0.0 : 1.0);
  const double predicted_wait_s = backlog * mean_job_s_;
  if (spec.deadline_s > 0.0 && predicted_wait_s > spec.deadline_s) {
    NF_COUNTER_ADD("serve.jobs_rejected", 1);
    return Error(ErrorCode::kOverloaded, "serve.admission",
                 "predicted queue wait " + std::to_string(predicted_wait_s) +
                     "s exceeds the job deadline " +
                     std::to_string(spec.deadline_s) + "s");
  }
  if (opts_.admit_wait_cap_s > 0.0 &&
      predicted_wait_s > opts_.admit_wait_cap_s) {
    NF_COUNTER_ADD("serve.jobs_rejected", 1);
    return Error(ErrorCode::kOverloaded, "serve.admission",
                 "predicted queue wait " + std::to_string(predicted_wait_s) +
                     "s exceeds the admission cap " +
                     std::to_string(opts_.admit_wait_cap_s) + "s");
  }

  Entry e;
  e.rec.id = format_job_id(next_id_);
  e.rec.spec = std::move(spec);
  if (e.rec.spec.max_attempts <= 0)
    e.rec.spec.max_attempts = opts_.default_max_attempts;
  e.rec.state = JobState::kQueued;
  if (e.rec.spec.deadline_s > 0.0)
    e.deadline = Deadline::after_seconds(e.rec.spec.deadline_s);

  // Write-ahead: the job is accepted only once its record is durable.
  Expected<void> journaled = persist_(e.rec);
  if (!journaled.ok()) {
    NF_COUNTER_ADD("serve.jobs_rejected", 1);
    return Error(journaled.error().code, "serve.admission",
                 "cannot journal job before admission: " +
                     journaled.error().to_string());
  }
  ++next_id_;
  const std::string id = e.rec.id;
  queue_.push_back(id);
  records_.emplace(id, std::move(e));
  NF_COUNTER_ADD("serve.jobs_accepted", 1);
  NF_GAUGE_SET("serve.queue_depth", queue_.size());
  cv_.notify_all();
  return id;
}

void Scheduler::restore(JobRecord rec) {
  std::lock_guard<std::mutex> lock(m_);
  // Ids are "j%06u"; keep the counter ahead of everything recovered.
  if (rec.id.size() > 1 && rec.id[0] == 'j') {
    const std::uint64_t n = std::strtoull(rec.id.c_str() + 1, nullptr, 10);
    next_id_ = std::max(next_id_, n + 1);
  }
  Entry e;
  // A record persisted as running means the previous daemon died mid
  // attempt: re-queue it, and let the solve resume from its snapshot.
  if (rec.state == JobState::kRunning) {
    rec.state = JobState::kQueued;
    persist_or_warn(rec);
  }
  const bool runnable = rec.state == JobState::kQueued;
  if (runnable && rec.spec.deadline_s > 0.0)
    e.deadline = Deadline::after_seconds(rec.spec.deadline_s);
  const std::string id = rec.id;
  e.rec = std::move(rec);
  records_.insert_or_assign(id, std::move(e));
  if (runnable) {
    queue_.push_back(id);
    NF_GAUGE_SET("serve.queue_depth", queue_.size());
    cv_.notify_all();
  }
}

bool Scheduler::cancel(const std::string& id) {
  std::lock_guard<std::mutex> lock(m_);
  auto it = records_.find(id);
  if (it == records_.end() || it->second.rec.state != JobState::kQueued)
    return false;
  queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
  it->second.rec.state = JobState::kCancelled;
  persist_or_warn(it->second.rec);
  NF_GAUGE_SET("serve.queue_depth", queue_.size());
  return true;
}

bool Scheduler::find(const std::string& id, JobRecord* out) const {
  std::lock_guard<std::mutex> lock(m_);
  auto it = records_.find(id);
  if (it == records_.end()) return false;
  *out = it->second.rec;
  return true;
}

void Scheduler::begin_drain() {
  std::lock_guard<std::mutex> lock(m_);
  draining_ = true;
  cv_.notify_all();
}

bool Scheduler::draining() const {
  std::lock_guard<std::mutex> lock(m_);
  return draining_;
}

void Scheduler::interrupt_running() {
  interrupt_.store(true, std::memory_order_relaxed);
}

void Scheduler::stop() {
  std::lock_guard<std::mutex> lock(m_);
  stop_ = true;
  cv_.notify_all();
}

Scheduler::Stats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(m_);
  Stats s;
  s.queued = queue_.size();
  s.records = records_.size();
  s.running = !running_id_.empty();
  s.draining = draining_;
  return s;
}

bool Scheduler::next_runnable(std::string* id, double* wait_s) {
  *wait_s = std::numeric_limits<double>::infinity();
  for (const std::string& cand : queue_) {
    auto it = records_.find(cand);
    if (it == records_.end()) continue;
    const Deadline& due = it->second.retry_due;
    if (due.is_infinite() || due.expired()) {
      *id = cand;
      return true;
    }
    *wait_s = std::min(*wait_s, due.remaining_seconds());
  }
  return false;
}

void Scheduler::finish_attempt(Entry& e, const Expected<JobOutcome>& result) {
  // Called with the lock held, after the (unlocked) execute returned.
  if (result.ok()) {
    e.rec.state = JobState::kCompleted;
    e.rec.outcome = *result;
    persist_or_warn(e.rec);
    NF_COUNTER_ADD("serve.jobs_completed", 1);
    return;
  }
  const Error& err = result.error();
  if (err.code == ErrorCode::kInterrupted) {
    // Drain checkpoint: the solve wrote its snapshot and stopped.  The job
    // goes back to the durable queue with no attempt consumed, and the
    // restarted daemon resumes it bitwise (docs/serving.md).
    if (!e.rec.attempts.empty()) e.rec.attempts.pop_back();
    e.rec.state = JobState::kQueued;
    persist_or_warn(e.rec);
    queue_.push_front(e.rec.id);
    return;
  }
  const int failures = static_cast<int>(e.rec.attempts.size());
  if (is_recoverable(err.code) && failures < e.rec.spec.max_attempts) {
    e.rec.state = JobState::kQueued;
    persist_or_warn(e.rec);
    e.retry_due = Deadline::after_seconds(
        retry_delay_s(failures, opts_.backoff_base_s, opts_.backoff_cap_s));
    queue_.push_back(e.rec.id);
    NF_COUNTER_ADD("serve.jobs_retried", 1);
    return;
  }
  e.rec.state = JobState::kFailed;
  if (is_recoverable(err.code)) {
    e.rec.final_error =
        Error(ErrorCode::kRetryExhausted, "serve.scheduler",
              std::to_string(failures) + " attempts failed; last: " +
                  err.to_string())
            .to_string();
  } else {
    e.rec.final_error = err.to_string();
  }
  persist_or_warn(e.rec);
  NF_COUNTER_ADD("serve.jobs_failed", 1);
}

void Scheduler::run_worker() {
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    if (stop_) return;
    // Drain parks the worker before it can start (or re-start) anything:
    // the in-flight job already got its chance to finish or checkpoint,
    // and every queued job — including one just re-queued by an
    // interrupt-checkpoint — stays durably journaled for the next start.
    if (draining_) return;
    std::string id;
    double wait_s = 0.0;
    if (!next_runnable(&id, &wait_s)) {
      if (std::isinf(wait_s)) {
        cv_.wait(lock);
      } else {
        cv_.wait_for(lock, std::chrono::duration<double>(
                               std::max(wait_s, 1e-3)));
      }
      continue;
    }
    auto it = records_.find(id);
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
    NF_GAUGE_SET("serve.queue_depth", queue_.size());
    if (it == records_.end()) continue;
    Entry& e = it->second;

    // Cheap reject: a deadline that expired while the job sat in the queue
    // fails in microseconds instead of starting a doomed solve.
    if (e.deadline.expired()) {
      e.rec.state = JobState::kFailed;
      e.rec.final_error =
          Error(ErrorCode::kDeadlineExceeded, "serve.scheduler",
                "deadline expired while queued")
              .to_string();
      persist_or_warn(e.rec);
      NF_COUNTER_ADD("serve.jobs_failed", 1);
      continue;
    }

    e.rec.state = JobState::kRunning;
    JobAttempt attempt;
    e.rec.attempts.push_back(attempt);
    persist_or_warn(e.rec);
    running_id_ = id;
    interrupt_.store(false, std::memory_order_relaxed);
    const JobRecord rec_copy = e.rec;
    const Deadline deadline = e.deadline;
    const std::string snap = snapshot_path_(id);

    lock.unlock();
    const auto t0 = std::chrono::steady_clock::now();
    Expected<JobOutcome> result = [&]() -> Expected<JobOutcome> {
      NF_TRACE_SPAN("serve.job_run");
      return execute_(rec_copy, deadline, snap, &interrupt_);
    }();
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    lock.lock();

    running_id_.clear();
    auto it2 = records_.find(id);
    if (it2 != records_.end()) {
      Entry& e2 = it2->second;
      if (!e2.rec.attempts.empty()) {
        JobAttempt& a = e2.rec.attempts.back();
        a.ok = result.ok();
        a.runtime_s = elapsed_s;
        if (!result.ok()) {
          a.code = result.error().code;
          a.message = result.error().to_string();
        }
      }
      mean_job_s_ = mean_job_s_ <= 0.0
                        ? elapsed_s
                        : (1.0 - kMeanAlpha) * mean_job_s_ +
                              kMeanAlpha * elapsed_s;
      finish_attempt(e2, result);
      NF_GAUGE_SET("serve.queue_depth", queue_.size());
    }
    cv_.notify_all();
  }
}

}  // namespace neurfill::serve
