// nf_serve: long-lived fill-synthesis daemon (docs/serving.md).
//
// Accepts jobs over line-delimited JSON on a loopback TCP port (plus HTTP
// GET /metrics, /healthz, /jobs/<id>), runs them one at a time through the
// same solver path as nf_fill, and survives crashes: every job transition
// is journaled write-ahead to --journal, pkb/mm solves snapshot next to
// their record, and a restarted daemon resumes in-flight work to
// byte-identical artifacts (tests/serve_kill_restart_test.sh).
//
// SIGTERM/SIGINT starts a graceful drain: admission closes (submissions
// are rejected with code "overloaded"), the in-flight job finishes — or,
// past --drain-deadline-s, checkpoints and re-queues — and the process
// exits 0 with every accepted job completed or durably journaled.
//
// Exit codes: 0 clean exit (including a signal-initiated drain), 1 runtime
// failure, 2 usage error.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel.hpp"
#include "serve/daemon.hpp"
#include "serve/server.hpp"

using namespace neurfill;

namespace {

std::atomic<bool> g_signal{false};
void handle_signal(int) { g_signal.store(true); }

}  // namespace

int main(int argc, char** argv) {
  std::string journal_dir = "nf_serve.journal";
  std::string port_file;
  int port = 0;
  serve::DaemonOptions dopt;
  int queue_cap = static_cast<int>(dopt.scheduler.queue_capacity);
  int max_records = static_cast<int>(dopt.scheduler.max_records);
  CommonToolOptions common;

  ArgParser parser("nf_serve",
                   "Fill-synthesis daemon: line-delimited JSON jobs over "
                   "loopback TCP, crash-safe job journal, graceful drain.");
  parser.add_string("--journal", "DIR",
                    "write-ahead job journal directory (default "
                    "nf_serve.journal); restart resumes from it",
                    &journal_dir);
  parser.add_int("--port", "N",
                 "TCP port on 127.0.0.1 (default 0 = ephemeral)", &port);
  parser.add_string("--port-file", "PATH",
                    "publish the bound port here (written atomically)",
                    &port_file);
  parser.add_int("--queue-cap", "N",
                 "waiting jobs before admission rejects with "
                 "\"overloaded\" (default 32)",
                 &queue_cap);
  parser.add_int("--max-records", "N",
                 "job records tracked before \"queue_full\" (default 4096)",
                 &max_records);
  parser.add_int("--max-attempts", "N",
                 "attempts per job before \"retry_exhausted\" (default 3)",
                 &dopt.scheduler.default_max_attempts);
  parser.add_double("--backoff-base-s", "SEC",
                    "first retry delay; doubles per attempt, no jitter "
                    "(default 0.25)",
                    &dopt.scheduler.backoff_base_s);
  parser.add_double("--backoff-cap-s", "SEC",
                    "retry delay ceiling (default 30)",
                    &dopt.scheduler.backoff_cap_s);
  parser.add_double("--admit-wait-cap-s", "SEC",
                    "shed submissions whose predicted queue wait exceeds "
                    "this (default 0 = off)",
                    &dopt.scheduler.admit_wait_cap_s);
  parser.add_double("--drain-deadline-s", "SEC",
                    "on SIGTERM, seconds the in-flight job may keep running "
                    "before it is asked to checkpoint (default 30)",
                    &dopt.drain_deadline_s);
  parser.add_string("--surrogate", "PREFIX",
                    "surrogate weight prefix for jobs that name none "
                    "(default data/unet_cmp)",
                    &dopt.runner.default_surrogate);
  parser.add_int("--sqp-iters", "N",
                 "override SQP iteration budget, 0 = default (tests/bench)",
                 &dopt.runner.sqp_max_iterations);
  parser.add_int("--nmmso-evals", "N",
                 "override NMMSO evaluation budget, 0 = default",
                 &dopt.runner.nmmso_max_evaluations);
  add_common_options(parser, &common);
  switch (parser.parse(argc, argv, std::cout, std::cerr)) {
    case ArgParser::Result::kHelp:
      return 0;
    case ArgParser::Result::kError:
      return 2;
    case ArgParser::Result::kOk:
      break;
  }
  if (!apply_common_options(common, std::cerr)) return 2;
  if (queue_cap < 1 || max_records < 1 ||
      dopt.scheduler.default_max_attempts < 1 ||
      !(dopt.scheduler.backoff_base_s >= 0.0) ||
      !(dopt.scheduler.backoff_cap_s >= 0.0)) {
    std::fprintf(stderr,
                 "nf_serve: --queue-cap/--max-records/--max-attempts must "
                 "be >= 1, backoff times >= 0\n");
    return 2;
  }
  dopt.scheduler.queue_capacity = static_cast<std::size_t>(queue_cap);
  dopt.scheduler.max_records = static_cast<std::size_t>(max_records);
  // /metrics is part of the daemon contract, so the instruments are live
  // regardless of the --metrics flags.
  obs::set_metrics_enabled(true);

  int rc = 0;
  try {
    Expected<std::unique_ptr<serve::Daemon>> daemon =
        serve::Daemon::create(dopt, journal_dir);
    if (!daemon.ok()) {
      std::fprintf(stderr, "error: %s\n", daemon.error().to_string().c_str());
      return 1;
    }
    Expected<serve::Server> server = serve::Server::listen(port, port_file);
    if (!server.ok()) {
      std::fprintf(stderr, "error: %s\n", server.error().to_string().c_str());
      return 1;
    }
    (*daemon)->watch_drain_flag(&g_signal);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    std::fprintf(stderr, "nf_serve: listening on 127.0.0.1:%d (journal %s, "
                 "threads %d)\n",
                 server->port(), journal_dir.c_str(),
                 runtime::thread_count());

    serve::Daemon& d = **daemon;
    std::atomic<bool> transport_failed{false};
    std::thread transport([&] {
      Expected<void> ran = server->run(d);
      if (!ran.ok()) {
        std::fprintf(stderr, "error: %s\n", ran.error().to_string().c_str());
        transport_failed.store(true);
        d.stop();  // fatal transport failure: park the worker and exit 1
      }
    });
    d.run_worker();
    transport.join();
    if (transport_failed.load()) rc = 1;
    const serve::Scheduler::Stats stats = d.scheduler().stats();
    std::fprintf(stderr,
                 "nf_serve: drained; %zu job(s) left durably queued in %s\n",
                 stats.queued, journal_dir.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  if (!finish_common_options(common) && rc == 0) rc = 1;
  return rc;
}
