#pragma once

// Job execution for the nf_serve daemon: one JobRecord in, one fill
// artifact out (docs/serving.md).
//
// The runner is nf_fill's path — read GLF, make_fill_problem, run_fill,
// insert dummies, write the output atomically — with the daemon-grade
// robustness wrapped around it:
//  * pkb/mm solves snapshot to the journal-adjacent `<id>.snap` path and
//    *resume* from it, so a SIGKILL mid-attempt costs only the work since
//    the last snapshot and the restarted result is bitwise identical
//    (tests/serve_kill_restart_test.sh).  A snapshot that fails CRC
//    validation is quarantined (unlinked after a warning) and the solve
//    restarts fresh — deterministically, so the artifact is still
//    byte-identical to an uninterrupted run.
//  * pkb/mm surrogates come from one SurrogateProvider kept across jobs
//    (surrogate/provider.hpp): a daemon serving many jobs against one
//    frozen artifact loads and verifies it once, and an updated weight
//    file on disk naturally misses.  lin/tao/cai jobs never touch it.
//  * Every failure — missing design, corrupt weights, poisoned solve — is
//    returned as a structured nf::Error for the scheduler's retry policy;
//    nothing escapes as an uncaught exception.
//
// Fault site: `serve.worker_crash` fails an attempt at its start with a
// recoverable kIo error, exercising the retry/backoff path end to end.

#include <atomic>
#include <string>
#include <utility>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "serve/job.hpp"
#include "surrogate/provider.hpp"

namespace neurfill::serve {

struct RunnerOptions {
  /// Surrogate weight prefix used when a job does not name one.
  std::string default_surrogate = "data/unet_cmp";
  /// Optimization budget overrides, 0 = library default.  Tests and the
  /// serve bench shrink these so a job takes milliseconds, not minutes.
  int sqp_max_iterations = 0;
  int nmmso_max_evaluations = 0;
};

class JobRunner {
 public:
  explicit JobRunner(RunnerOptions options) : opts_(std::move(options)) {}

  /// Runs one attempt of `rec` to completion (blocking; internally
  /// parallel through the runtime pool).  `snapshot_path` is where a
  /// pkb/mm solve checkpoints and resumes; `interrupt`, when it flips
  /// true, checkpoints and returns kInterrupted (the drain path).
  [[nodiscard]] Expected<JobOutcome> run(const JobRecord& rec,
                                         const Deadline& deadline,
                                         const std::string& snapshot_path,
                                         const std::atomic<bool>* interrupt);

  /// Surrogates cached by the provider (tests).
  std::size_t surrogate_cache_size() const { return surrogates_.cache_size(); }

 private:
  RunnerOptions opts_;
  SurrogateProvider surrogates_;
};

}  // namespace neurfill::serve
