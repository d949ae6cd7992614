#include "serve/runner.hpp"

#include <sys/stat.h>

#include <cstdio>

#include "common/checkpoint.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "fill/pipeline.hpp"
#include "geom/glf_io.hpp"
#include "layout/fill_insertion.hpp"

namespace neurfill::serve {

[[nodiscard]] Expected<JobOutcome> JobRunner::run(const JobRecord& rec,
                                    const Deadline& deadline,
                                    const std::string& snapshot_path,
                                    const std::atomic<bool>* interrupt) {
  if (NF_FAULT("serve.worker_crash"))
    return Error(ErrorCode::kIo, "serve.runner",
                 "injected worker crash on job " + rec.id);
  const JobSpec& spec = rec.spec;
  if (!is_fill_method(spec.method))
    return Error(ErrorCode::kInvalidArgument, "serve.runner",
                 "unknown method '" + spec.method +
                     "' (expected lin|tao|cai|pkb|mm)");
  try {
    Layout layout = read_glf_file(spec.design);
    ExtractOptions eopt;
    eopt.window_um = spec.window_um;
    const FillProblem problem =
        make_fill_problem(layout, eopt, CmpProcessParams());

    FillRequest request;
    request.method = spec.method;
    request.neurfill.deadline = deadline;
    if (opts_.sqp_max_iterations > 0) {
      request.neurfill.sqp.max_iterations = opts_.sqp_max_iterations;
      request.tao.sqp.max_iterations = opts_.sqp_max_iterations;
      request.cai.sqp.max_iterations = opts_.sqp_max_iterations;
    }
    if (opts_.nmmso_max_evaluations > 0)
      request.neurfill.nmmso.max_evaluations = opts_.nmmso_max_evaluations;
    if (is_model_based(spec.method)) {
      const std::string prefix =
          spec.surrogate.empty() ? opts_.default_surrogate : spec.surrogate;
      Expected<std::shared_ptr<const CmpSurrogate>> surrogate =
          surrogates_.get(prefix, problem.extraction(), problem.simulator());
      if (!surrogate.ok()) return surrogate.error();
      request.surrogate = std::move(*surrogate);
      request.neurfill.snapshot_path = snapshot_path;
      request.neurfill.interrupt = interrupt;
      if (!snapshot_path.empty()) {
        // Resume from an earlier attempt's snapshot when one exists; a
        // snapshot that fails CRC validation is quarantined and the solve
        // restarts fresh — deterministically, so the artifact is still
        // byte-identical to an uninterrupted run.
        struct stat st{};
        if (::stat(snapshot_path.c_str(), &st) == 0) {
          Expected<CheckpointReader> probe =
              CheckpointReader::open(snapshot_path);
          if (probe.ok()) {
            request.neurfill.resume = true;
          } else {
            LOG_WARN("serve.runner: snapshot '%s' is corrupt (%s); "
                     "re-solving job %s from scratch",
                     snapshot_path.c_str(),
                     probe.error().to_string().c_str(), rec.id.c_str());
            std::remove(snapshot_path.c_str());
          }
        }
      }
    }
    const FillRunResult result = run_fill(problem, request);

    JobOutcome outcome;
    outcome.dummies = insert_dummies(layout, problem.extraction(), result.x);
    write_glf_file(spec.out, layout);
    outcome.runtime_s = result.runtime_s;
    outcome.evaluations = result.objective_evaluations;
    outcome.timed_out = result.timed_out;
    outcome.degraded = result.degraded;
    return outcome;
  } catch (const ErrorException& e) {
    return e.err;
  } catch (const std::exception& e) {
    return Error(ErrorCode::kIo, "serve.runner",
                 std::string("unstructured failure: ") + e.what());
  }
}

}  // namespace neurfill::serve
