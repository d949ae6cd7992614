#include "serve/daemon.hpp"

#include <cmath>
#include <sstream>

#include "common/log.hpp"
#include "obs/export.hpp"

namespace neurfill::serve {

Daemon::Daemon(const DaemonOptions& options, JobJournal journal)
    : opts_(options),
      journal_(std::make_unique<JobJournal>(std::move(journal))),
      runner_(options.runner) {
  JobJournal* journal_ptr = journal_.get();
  scheduler_ = std::make_unique<Scheduler>(
      opts_.scheduler,
      [this](const JobRecord& rec, const Deadline& deadline,
             const std::string& snapshot_path,
             const std::atomic<bool>* interrupt) {
        return runner_.run(rec, deadline, snapshot_path, interrupt);
      },
      [journal_ptr](const JobRecord& rec) { return journal_ptr->write(rec); },
      [journal_ptr](const std::string& id) {
        return journal_ptr->snapshot_path(id);
      });
}

[[nodiscard]] Expected<std::unique_ptr<Daemon>> Daemon::create(
    const DaemonOptions& options, const std::string& journal_dir) {
  Expected<JobJournal> journal = JobJournal::open(journal_dir);
  if (!journal.ok()) return journal.error();
  Expected<JobJournal::Recovery> recovery = journal->recover();
  if (!recovery.ok()) return recovery.error();
  std::unique_ptr<Daemon> d(new Daemon(options, std::move(*journal)));
  d->quarantined_ = recovery->quarantined;
  for (JobRecord& rec : recovery->records) {
    const bool runnable = rec.state == JobState::kQueued ||
                          rec.state == JobState::kRunning;
    if (runnable) ++d->recovered_;
    d->scheduler_->restore(std::move(rec));
  }
  if (d->recovered_ > 0 || d->quarantined_ > 0)
    LOG_INFO("serve.daemon: recovered %zu pending job(s) from '%s' "
             "(%zu corrupt record(s) quarantined)",
             d->recovered_, journal_dir.c_str(), d->quarantined_);
  return d;
}

void Daemon::run_worker() {
  scheduler_->run_worker();
  worker_parked_.store(true, std::memory_order_release);
}

void Daemon::request_drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  {
    std::lock_guard<std::mutex> lock(drain_m_);
    drain_deadline_ = opts_.drain_deadline_s > 0.0
                          ? Deadline::after_seconds(opts_.drain_deadline_s)
                          : Deadline();
  }
  LOG_INFO("serve.daemon: draining (deadline %.1fs); admission closed",
           opts_.drain_deadline_s);
  scheduler_->begin_drain();
}

void Daemon::stop() { scheduler_->stop(); }

void Daemon::tick() {
  if (drain_flag_ != nullptr &&
      drain_flag_->load(std::memory_order_relaxed) &&
      !draining_.load(std::memory_order_relaxed))
    request_drain();
  if (!draining_.load(std::memory_order_relaxed)) return;
  bool expired = false;
  {
    std::lock_guard<std::mutex> lock(drain_m_);
    expired = drain_deadline_.expired();
  }
  if (expired && !drain_escalated_.exchange(true)) {
    LOG_WARN("serve.daemon: drain deadline expired; asking the in-flight "
             "solve to checkpoint and stop");
    scheduler_->interrupt_running();
  }
}

bool Daemon::done() const {
  return worker_parked_.load(std::memory_order_acquire);
}

std::string Daemon::handle_submit(const JsonValue& req) {
  const double max_attempts = req.get_number("max_attempts", 0.0);
  if (!(max_attempts >= 0.0 && max_attempts < 0x1p31 &&
        max_attempts == std::floor(max_attempts)))
    return error_reply(Error(ErrorCode::kInvalidArgument, "serve.admission",
                             "'max_attempts' must be an integer in [0, 2^31)"));
  JobSpec spec;
  spec.design = req.get_string("design");
  spec.out = req.get_string("out");
  spec.method = req.get_string("method", "pkb");
  spec.surrogate = req.get_string("surrogate");
  spec.window_um = req.get_number("window", 100.0);
  spec.deadline_s = req.get_number("deadline_s", 0.0);
  spec.max_attempts = static_cast<int>(max_attempts);
  Expected<std::string> id = scheduler_->submit(std::move(spec));
  if (!id.ok()) return error_reply(id.error());
  JsonValue v = json_object();
  v.object["ok"] = json_bool(true);
  v.object["id"] = json_string(*id);
  return json_render(v);
}

std::string Daemon::handle_status(const JsonValue& req) {
  const std::string id = req.get_string("id");
  JobRecord rec;
  if (!scheduler_->find(id, &rec))
    return error_reply(Error(ErrorCode::kNotFound, "serve.daemon",
                             "no job with id '" + id + "'"));
  JsonValue v = json_object();
  v.object["ok"] = json_bool(true);
  v.object["job"] = rec.to_json();
  return json_render(v);
}

std::string Daemon::handle_cancel(const JsonValue& req) {
  const std::string id = req.get_string("id");
  JsonValue v = json_object();
  v.object["ok"] = json_bool(true);
  v.object["cancelled"] = json_bool(scheduler_->cancel(id));
  return json_render(v);
}

std::string Daemon::handle_line(const std::string& line) {
  Expected<JsonValue> req = json_parse(line);
  if (!req.ok()) return error_reply(req.error());
  const std::string op = req->get_string("op");
  if (op == "submit") return handle_submit(*req);
  if (op == "status") return handle_status(*req);
  if (op == "cancel") return handle_cancel(*req);
  if (op == "drain") {
    request_drain();
    JsonValue v = json_object();
    v.object["ok"] = json_bool(true);
    v.object["draining"] = json_bool(true);
    return json_render(v);
  }
  if (op == "ping") {
    const Scheduler::Stats stats = scheduler_->stats();
    JsonValue v = json_object();
    v.object["ok"] = json_bool(true);
    v.object["draining"] = json_bool(stats.draining);
    v.object["queued"] = json_number(static_cast<double>(stats.queued));
    v.object["running"] = json_bool(stats.running);
    return json_render(v);
  }
  return error_reply(Error(ErrorCode::kInvalidArgument, "serve.daemon",
                           "unknown op '" + op +
                               "' (expected submit|status|cancel|ping|drain)"));
}

std::string Daemon::handle_get(const std::string& path) {
  if (path == "/metrics") {
    std::ostringstream os;
    obs::write_metrics_json(os);
    return http_response(200, "application/json", os.str());
  }
  if (path == "/healthz") {
    const Scheduler::Stats stats = scheduler_->stats();
    JsonValue v = json_object();
    v.object["ok"] = json_bool(true);
    v.object["draining"] = json_bool(stats.draining);
    v.object["queued"] = json_number(static_cast<double>(stats.queued));
    return http_response(200, "application/json", json_render(v) + "\n");
  }
  if (path.rfind("/jobs/", 0) == 0) {
    const std::string id = path.substr(6);
    JobRecord rec;
    if (scheduler_->find(id, &rec)) {
      JsonValue v = rec.to_json();
      return http_response(200, "application/json", json_render(v) + "\n");
    }
    JsonValue v = json_object();
    v.object["ok"] = json_bool(false);
    v.object["error"] = json_string("no job with id '" + id + "'");
    return http_response(404, "application/json", json_render(v) + "\n");
  }
  JsonValue v = json_object();
  v.object["ok"] = json_bool(false);
  v.object["error"] =
      json_string("unknown path (try /metrics, /healthz, /jobs/<id>)");
  return http_response(404, "application/json", json_render(v) + "\n");
}

}  // namespace neurfill::serve
