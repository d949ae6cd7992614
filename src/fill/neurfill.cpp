#include "fill/neurfill.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "common/log.hpp"
#include "fill/snapshot.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace neurfill {

void calibrate_network(CmpNetwork& network, const FillProblem& problem) {
  const WindowExtraction& ext = problem.extraction();
  std::vector<GridD> zero(ext.num_layers(), GridD(ext.rows, ext.cols, 0.0));
  std::vector<GridD> full;
  full.reserve(ext.num_layers());
  for (const auto& l : ext.layers) full.push_back(l.slack);

  const CmpSimulator& sim = problem.simulator();
  const PlanarityMetrics t0 = compute_planarity(sim.simulate_heights(ext, zero));
  const PlanarityMetrics t1 = compute_planarity(sim.simulate_heights(ext, full));
  const CmpNetwork::Eval n0 = network.evaluate(zero, false);
  const CmpNetwork::Eval n1 = network.evaluate(full, false);

  // Log-space power fit through the two anchors: exp(a) * raw^b.  Falls
  // back to identity when an anchor is non-positive or the network shows no
  // usable (same-sign, non-degenerate) response between the anchors.
  const auto fit = [](double true0, double true1, double net0,
                      double net1) -> CmpNetwork::MetricCalibration {
    CmpNetwork::MetricCalibration c;
    const double eps = 1e-6;
    if (true0 <= eps || true1 <= eps || net0 <= eps || net1 <= eps) return c;
    const double dn = std::log(net0 + eps) - std::log(net1 + eps);
    const double dt = std::log(true0) - std::log(true1);
    if (std::fabs(dn) < 1e-9 || dt * dn <= 0.0) return c;
    c.b = std::clamp(dt / dn, 0.1, 10.0);
    c.a = std::log(true0) - c.b * std::log(net0 + eps);
    return c;
  };
  network.set_calibration(fit(t0.sigma, t1.sigma, n0.sigma, n1.sigma),
                          fit(t0.sigma_star, t1.sigma_star, n0.sigma_star,
                              n1.sigma_star),
                          fit(t0.outliers, t1.outliers, n0.outliers,
                              n1.outliers));
}

ObjectiveFn make_network_objective(const FillProblem& problem,
                                   const CmpNetwork& network,
                                   long* eval_counter) {
  return [&problem, &network, eval_counter](const VecD& v,
                                            VecD* grad) -> double {
    if (eval_counter) ++*eval_counter;
    const std::vector<GridD> x = problem.unflatten(v);
    const CmpNetwork::Eval net =
        network.evaluate(x, /*with_grad=*/grad != nullptr);
    const PdScore pd =
        pd_score_and_gradient(problem.extraction(), x, problem.coefficients());
    if (grad) {
      grad->assign(v.size(), 0.0);
      std::size_t k = 0;
      for (std::size_t l = 0; l < net.grad.size(); ++l)
        for (std::size_t w = 0; w < net.grad[l].size(); ++w, ++k)
          (*grad)[k] = -(net.grad[l][w] + pd.grad[l][w]);
    }
    return -(net.s_plan + pd.s_pd);
  };
}

std::vector<double> network_batch_quality(
    const FillProblem& problem, const CmpNetwork& network,
    const std::vector<std::vector<GridD>>& xs, long* eval_counter) {
  if (eval_counter) *eval_counter += static_cast<long>(xs.size());
  const std::vector<CmpNetwork::Eval> nets = network.evaluate_batch(xs);
  std::vector<double> q(xs.size());
  for (std::size_t b = 0; b < xs.size(); ++b) {
    const PdScore pd = pd_score_and_gradient(problem.extraction(), xs[b],
                                             problem.coefficients());
    q[b] = nets[b].s_plan + pd.s_pd;
  }
  return q;
}

namespace {

void persist_snapshot(const FillSnapshot& snap, const std::string& path) {
  const Expected<void> res = save_fill_snapshot(snap, path);
  // A failed snapshot must not kill the optimization it protects.
  if (!res.ok())
    LOG_WARN("fill snapshot failed: %s", res.error().to_string().c_str());
}

/// Loads + validates a resume snapshot for `method`; returns false (fresh
/// run) when the file does not exist.  A corrupt or mismatched snapshot is
/// a hard error: silently recomputing would violate the byte-identical
/// resume contract.
bool load_resume_snapshot(const NeurFillOptions& options,
                          const std::string& method, std::size_t dims,
                          FillSnapshot* snap) {
  if (!options.resume) return false;
  if (options.snapshot_path.empty())
    throw ErrorException(Error(ErrorCode::kInvalidArgument, "fill.snapshot",
                               "resume requested without a snapshot path"));
  Expected<FillSnapshot> loaded = load_fill_snapshot(options.snapshot_path);
  if (!loaded.ok()) {
    if (loaded.error().code == ErrorCode::kNotFound) {
      LOG_INFO("no snapshot at '%s', starting fresh",
               options.snapshot_path.c_str());
      return false;
    }
    throw ErrorException(loaded.error());
  }
  if (loaded->method != method)
    throw ErrorException(Error(
        ErrorCode::kInvalidArgument, "fill.snapshot",
        "'" + options.snapshot_path + "' was written by method '" +
            loaded->method + "', not '" + method + "'"));
  if (loaded->dims != dims)
    throw ErrorException(Error(
        ErrorCode::kInvalidArgument, "fill.snapshot",
        "'" + options.snapshot_path + "' has " +
            std::to_string(loaded->dims) + " variables, the problem has " +
            std::to_string(dims)));
  *snap = std::move(*loaded);
  std::size_t done = 0, running = 0;
  for (const FillSnapshot::StartRecord& r : snap->records) {
    done += r.state == FillSnapshot::StartRecord::State::kDone ? 1 : 0;
    running += r.state == FillSnapshot::StartRecord::State::kRunning ? 1 : 0;
  }
  LOG_INFO("resuming from '%s': %zu/%zu starts done, %zu mid-flight",
           options.snapshot_path.c_str(), done, snap->starts.size(), running);
  return true;
}

struct MspDrive {
  std::vector<SqpResult> results;  ///< sorted best (lowest f) first
  long evaluations = 0;            ///< objective evaluations of all starts
  bool timed_out = false;
};

/// Runs SQP from every MSP start with per-iteration snapshotting and a
/// shared deadline; continues from `resumed` when non-null.  The starts run
/// concurrently on the runtime pool (one start per block; the kernels
/// inside a start nest serially), each with its own objective, evaluation
/// counter and snapshot record, and the results are reduced in start order
/// — so the outcome, and every snapshot a resume can start from, is
/// independent of the thread count and of how the starts interleave.
MspDrive drive_msp(const FillProblem& problem, const CmpNetwork& network,
                   const std::string& method, const std::vector<VecD>& starts,
                   long base_evaluations, const NeurFillOptions& options,
                   const FillSnapshot* resumed) {
  using State = FillSnapshot::StartRecord::State;
  const Box box = problem.bounds();
  const std::size_t n = starts.size();
  std::vector<FillSnapshot::StartRecord> records(n);
  if (resumed && !resumed->records.empty()) records = resumed->records;
  std::vector<SqpResult> results(n);
  std::mutex mu;  // guards `records` and serializes snapshot commits
  const bool snapshots = !options.snapshot_path.empty();
  const auto persist_locked = [&] {
    FillSnapshot snap;
    snap.method = method;
    snap.dims = box.size();
    snap.evaluations = base_evaluations;
    snap.starts = starts;
    snap.records = records;
    persist_snapshot(snap, options.snapshot_path);
  };

  const auto run_start = [&](std::size_t i) {
    FillSnapshot::StartRecord rec;
    {
      std::lock_guard<std::mutex> lock(mu);
      rec = records[i];
    }
    if (rec.state == State::kDone) {
      results[i] = rec.result;
      return;
    }
    long count = rec.evaluations;
    const ObjectiveFn obj = make_network_objective(problem, network, &count);
    SqpOptions so = options.sqp;
    so.deadline = options.deadline;
    if (rec.state == State::kRunning) so.resume = &rec.sqp;
    if (snapshots || options.interrupt) {
      so.checkpoint_hook = [&, i](const SqpState& st) {
        const bool interrupted =
            options.interrupt &&
            options.interrupt->load(std::memory_order_relaxed);
        if (snapshots) {
          std::lock_guard<std::mutex> lock(mu);
          records[i].state = State::kRunning;
          records[i].evaluations = count;
          records[i].sqp = st;
          if (interrupted || options.snapshot_every <= 1 ||
              st.iteration % options.snapshot_every == 0)
            persist_locked();
        }
        if (interrupted)
          throw ErrorException(Error(
              ErrorCode::kInterrupted, "fill",
              snapshots ? "interrupt acknowledged; snapshot saved to '" +
                              options.snapshot_path + "'"
                        : std::string("interrupt acknowledged")));
      };
    }
    results[i] = sqp_minimize(obj, starts[i], box, so);
    std::lock_guard<std::mutex> lock(mu);
    records[i].state = State::kDone;
    records[i].evaluations = count;
    records[i].result = results[i];
    if (snapshots) persist_locked();
  };
  runtime::parallel_for(1, n, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) run_start(i);
  });

  MspDrive out;
  out.results = std::move(results);
  for (const FillSnapshot::StartRecord& r : records)
    out.evaluations += r.evaluations;
  for (const SqpResult& r : out.results)
    out.timed_out = out.timed_out || r.timed_out;
  std::sort(out.results.begin(), out.results.end(),
            [](const SqpResult& a, const SqpResult& b) { return a.f < b.f; });
  return out;
}

/// Folds an MSP drive into the FillRunResult bookkeeping shared by the pkb
/// and mm drivers.
void fold_drive(const FillProblem& problem, const MspDrive& drive,
                FillRunResult* res) {
  res->x = problem.unflatten(drive.results.front().x);
  res->iterations = 0;
  res->timed_out = res->timed_out || drive.timed_out;
  for (const SqpResult& r : drive.results) {
    res->iterations += r.iterations;
    res->numeric_recoveries += r.numeric_recoveries;
    if (r.poisoned) res->degraded = true;
  }
  if (res->numeric_recoveries > 0) res->degraded = true;
}

}  // namespace

FillRunResult neurfill_pkb(const FillProblem& problem,
                           const CmpNetwork& network,
                           const NeurFillOptions& options) {
  // The method span doubles as the stopwatch: the reported runtime_s and
  // the trace event come from the same clock reads (see obs::SpanTimer).
  obs::SpanTimer timer("fill.neurfill_pkb");
  long evals = 0;
  FillSnapshot resumed;
  const bool have_resume = load_resume_snapshot(
      options, "pkb", problem.bounds().size(), &resumed);

  std::vector<VecD> starts;
  if (have_resume) {
    // The snapshot stores the start list, so the PKB linear search (and its
    // evaluation count) is not replayed.
    starts = resumed.starts;
    evals = resumed.evaluations;
  } else {
    // All `pkb_steps` sweep candidates are judged in one batched network
    // evaluation; the chosen start (and the evaluation count) is identical
    // to the serial sweep.
    const std::vector<GridD> start = pkb_starting_point_batched(
        problem.extraction(),
        [&](const std::vector<std::vector<GridD>>& xs) {
          return network_batch_quality(problem, network, xs, &evals);
        },
        options.pkb_steps);
    starts.push_back(problem.flatten(start));
  }

  const MspDrive drive = drive_msp(problem, network, "pkb", starts, evals,
                                   options, have_resume ? &resumed : nullptr);

  FillRunResult res;
  res.method = "NeurFill (PKB)";
  fold_drive(problem, drive, &res);
  evals += drive.evaluations;
  res.objective_evaluations = evals;
  NF_COUNTER_ADD("fill.objective_evaluations", evals);
  res.runtime_s = timer.stop_seconds();
  return res;
}

FillRunResult neurfill_mm(const FillProblem& problem, const CmpNetwork& network,
                          const NeurFillOptions& options) {
  obs::SpanTimer timer("fill.neurfill_mm");
  long evals = 0;
  FillSnapshot resumed;
  const bool have_resume = load_resume_snapshot(
      options, "mm", problem.bounds().size(), &resumed);

  std::vector<VecD> starts;
  bool explore_timed_out = false;
  if (have_resume) {
    // NMMSO is checkpointed only at phase completion (its mid-run state is
    // not persisted), so a snapshot implies the start list is final.
    starts = resumed.starts;
    evals = resumed.evaluations;
  } else {
    // Multi-modal exploration maximizes the quality score (value only).
    const ObjectiveFn net_obj =
        make_network_objective(problem, network, nullptr);
    const ObjectiveFn explore = [&net_obj](const VecD& v, VecD*) -> double {
      return -net_obj(v, nullptr);  // NMMSO maximizes
    };
    NmmsoOptions nmmso_opt = options.nmmso;
    nmmso_opt.deadline = options.deadline;
    nmmso_opt.interrupt = options.interrupt;
    Nmmso nmmso(explore, problem.bounds(), nmmso_opt);
    // Each iteration's move batch runs as one batched network evaluation;
    // out-of-batch evaluations (midpoints, hive-offs, immigrants) stay
    // scalar.  Values are bitwise identical either way, so the located
    // modes don't change.
    nmmso.set_batch_objective(
        [&problem, &network](const std::vector<VecD>& vs) {
          std::vector<std::vector<GridD>> xs;
          xs.reserve(vs.size());
          for (const VecD& v : vs) xs.push_back(problem.unflatten(v));
          return network_batch_quality(problem, network, xs);
        });
    const std::vector<Mode> modes = nmmso.run();
    evals += nmmso.evaluations_used();
    explore_timed_out = nmmso.timed_out();

    // MSP-SQP over a diverse pool: the best NMMSO modes, the PKB start, and
    // a spread of target-density fills (the structured corners of the
    // landscape the paper's multi-modal search is meant to cover — distinct
    // basins of the quality score reached from different fill levels).
    for (const Mode& m : modes) {
      if (static_cast<int>(starts.size()) >= options.mm_starts) break;
      starts.push_back(m.x);
    }
    const std::vector<GridD> pkb = pkb_starting_point_batched(
        problem.extraction(),
        [&](const std::vector<std::vector<GridD>>& xs) {
          return network_batch_quality(problem, network, xs, &evals);
        },
        options.pkb_steps);
    starts.push_back(problem.flatten(pkb));
    {
      const WindowExtraction& ext = problem.extraction();
      std::vector<double> lo(ext.num_layers(), 1.0), hi(ext.num_layers(), 0.0);
      for (std::size_t l = 0; l < ext.num_layers(); ++l) {
        const auto& d = ext.layers[l];
        double mean_rho = 0.0;
        for (std::size_t k = 0; k < d.slack.size(); ++k) {
          const double rho = d.wire_density[k] + d.dummy_density[k];
          mean_rho += rho;
          hi[l] = std::max(hi[l], rho + d.slack[k]);
        }
        lo[l] = mean_rho / static_cast<double>(d.slack.size());
      }
      for (const double t : {0.25, 0.55, 0.85}) {
        std::vector<double> td(ext.num_layers());
        for (std::size_t l = 0; l < td.size(); ++l)
          td[l] = lo[l] + t * (hi[l] - lo[l]);
        starts.push_back(problem.flatten(target_density_fill(ext, td)));
      }
    }
    // Exploration phase complete: persist the start list so a later resume
    // skips NMMSO entirely.
    if (!options.snapshot_path.empty()) {
      FillSnapshot snap;
      snap.method = "mm";
      snap.dims = problem.bounds().size();
      snap.evaluations = evals;
      snap.starts = starts;
      persist_snapshot(snap, options.snapshot_path);
    }
  }

  const MspDrive drive = drive_msp(problem, network, "mm", starts, evals,
                                   options, have_resume ? &resumed : nullptr);

  FillRunResult res;
  res.method = "NeurFill (MM)";
  res.timed_out = explore_timed_out;
  fold_drive(problem, drive, &res);
  evals += drive.evaluations;
  res.objective_evaluations = evals;
  NF_COUNTER_ADD("fill.objective_evaluations", evals);
  res.runtime_s = timer.stop_seconds();
  return res;
}

}  // namespace neurfill
