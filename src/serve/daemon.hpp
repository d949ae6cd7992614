#pragma once

// The nf_serve daemon assembled from its parts (docs/serving.md): the
// write-ahead journal (serve/journal.hpp), the admission/retry scheduler
// (serve/scheduler.hpp), the job runner (serve/runner.hpp), and the
// protocol Handler the transport loop (serve/server.hpp) drives.
//
// Lifecycle:
//  1. create() opens the journal and replays it: queued and running
//     records re-enter the durable queue (a running record means the
//     previous process died mid-attempt; its solve resumes from the
//     snapshot riding next to the record), terminal records stay
//     queryable, corrupt files are quarantined.
//  2. The transport thread runs Server::run(daemon) while the main thread
//     sits in run_worker(), executing jobs one at a time.
//  3. request_drain() (SIGTERM/SIGINT) closes admission and arms the drain
//     deadline; tick() escalates to interrupt_running() when the deadline
//     expires, so a long solve checkpoints and re-queues instead of
//     holding up the exit.  done() turns true once the worker has parked,
//     the transport loop exits, and the process exits 0 with every
//     accepted job completed or durably checkpointed.
//
// Wire protocol — one JSON object per line:
//   {"op":"submit","design":D,"out":O,"method":M, ...}  -> {"ok":true,"id":I}
//   {"op":"status","id":I}   -> {"ok":true,"job":{...}}
//   {"op":"cancel","id":I}   -> {"ok":true,"cancelled":B}
//   {"op":"ping"}            -> {"ok":true,"draining":B,"queued":N}
//   {"op":"drain"}           -> {"ok":true}  (same path as SIGTERM)
// plus HTTP GET /metrics, /healthz, /jobs/<id>.
// Errors: {"ok":false,"code":"overloaded",...} (docs/robustness.md codes).

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "serve/journal.hpp"
#include "serve/runner.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"

namespace neurfill::serve {

struct DaemonOptions {
  SchedulerOptions scheduler;
  RunnerOptions runner;
  /// Seconds request_drain() waits for the in-flight job before asking it
  /// to checkpoint and stop.
  double drain_deadline_s = 30.0;
};

class Daemon : public Handler {
 public:
  /// Opens (creating if missing) the journal at `journal_dir` and replays
  /// it into the scheduler.
  [[nodiscard]] static Expected<std::unique_ptr<Daemon>> create(
      const DaemonOptions& options, const std::string& journal_dir);

  /// Occupies the calling thread executing jobs until the drain (or
  /// stop()) completes.
  void run_worker();

  /// SIGTERM/SIGINT path: stop admission, arm the drain deadline.  Safe to
  /// call from any thread; idempotent.  (Not async-signal-safe — signal
  /// handlers set a flag and the tick() loop calls this.)
  void request_drain();

  /// Test/bench escape hatch: park the worker after the current job
  /// without the drain protocol.
  void stop();

  Scheduler& scheduler() { return *scheduler_; }
  JobRunner& runner() { return runner_; }
  const JobJournal& journal() const { return *journal_; }

  // Handler:
  std::string handle_line(const std::string& line) override;
  std::string handle_get(const std::string& path) override;
  void tick() override;
  bool done() const override;

  /// When set, tick() watches the flag and starts the drain once it flips
  /// true — the bridge from a signal handler to the drain protocol.
  void watch_drain_flag(const std::atomic<bool>* flag) { drain_flag_ = flag; }

 private:
  Daemon(const DaemonOptions& options, JobJournal journal);

  std::string handle_submit(const JsonValue& req);
  std::string handle_status(const JsonValue& req);
  std::string handle_cancel(const JsonValue& req);

  DaemonOptions opts_;
  std::unique_ptr<JobJournal> journal_;
  JobRunner runner_;
  std::unique_ptr<Scheduler> scheduler_;
  const std::atomic<bool>* drain_flag_ = nullptr;
  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_escalated_{false};
  std::atomic<bool> worker_parked_{false};
  mutable std::mutex drain_m_;
  Deadline drain_deadline_;  ///< armed by request_drain(); read by tick()
};

}  // namespace neurfill::serve
