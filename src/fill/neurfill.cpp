#include "fill/neurfill.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <iterator>
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

namespace {

/// Fill levels of mm's target-density starts, as fractions of the way from
/// each layer's mean density to its fullest window.
constexpr double kTargetLevels[] = {0.25, 0.55, 0.85};

void persist_snapshot(const FillSnapshot& snap, const std::string& path) {
  const Expected<void> res = save_fill_snapshot(snap, path);
  // A failed snapshot must not kill the optimization it protects.
  if (!res.ok())
    LOG_WARN("fill snapshot failed: %s", res.error().to_string().c_str());
}

/// Loads + validates a resume snapshot for `method`, whose drive has
/// `n_indep` starts that need no NMMSO and up to `n_modes` mode starts;
/// returns false (fresh run) when the file does not exist.  A corrupt or
/// mismatched snapshot is a hard error: silently recomputing would violate
/// the byte-identical resume contract.
bool load_resume_snapshot(const NeurFillOptions& options,
                          const std::string& method, std::size_t dims,
                          std::size_t n_indep, std::size_t n_modes,
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
  // The records must match the drive's start layout: the independent
  // starts, then one per stored mode (mm, once the search finished).
  if ((loaded->search_pending && method != "mm") ||
      loaded->modes.size() > n_modes ||
      loaded->records.size() != n_indep + loaded->modes.size())
    throw ErrorException(Error(
        ErrorCode::kCorrupt, "fill.snapshot",
        "'" + options.snapshot_path +
            "': start records do not match the drive's starts"));
  *snap = std::move(*loaded);
  std::size_t done = 0, running = 0;
  for (const FillSnapshot::StartRecord& r : snap->records) {
    done += r.state == FillSnapshot::StartRecord::State::kDone ? 1 : 0;
    running += r.state == FillSnapshot::StartRecord::State::kRunning ? 1 : 0;
  }
  LOG_INFO("resuming from '%s': %zu/%zu starts done, %zu mid-flight%s",
           options.snapshot_path.c_str(), done, snap->records.size(), running,
           snap->search_pending ? ", NMMSO pending" : "");
  return true;
}

/// Runs NeurFill `method` ("pkb" or "mm"), continuing from the resume
/// snapshot when options ask for one, and returns the best start's fill.
/// The whole drive is one pool job (docs/runtime.md, "The MM schedule").
/// mm's blocks are NMMSO, the PKB start (its sweep included), the
/// target-density starts, then one block per mode start, which waits until
/// NMMSO finishes; pkb's only block is the PKB start.  Blocks are claimed
/// in index order, so NMMSO is running before any block waits on it, and at
/// one thread the blocks run in order.  Kernels inside a block nest
/// serially (pkb's single block runs inline, so its kernels keep the
/// pool).  Each start has its own objective, evaluation counter and
/// snapshot record, and the results are put back in start order (modes,
/// PKB, target-density fills) before they are sorted — so the outcome, and
/// every snapshot a resume can start from, is independent of the thread
/// count and of how the blocks interleave.
FillRunResult drive_msp(const FillProblem& problem, const CmpNetwork& network,
                        const std::string& method,
                        const NeurFillOptions& options) {
  using State = FillSnapshot::StartRecord::State;
  const bool mm = method == "mm";
  const Box box = problem.bounds();
  const std::size_t n_indep = mm ? 1 + std::size(kTargetLevels) : 1;
  const std::size_t n_modes =
      mm ? static_cast<std::size_t>(std::max(options.mm_starts, 0)) : 0;
  const std::size_t n_blocks = (mm ? 1 : 0) + n_indep + n_modes;

  // Guarded by `mu`, which also serializes snapshot commits.
  FillSnapshot snap;
  if (!load_resume_snapshot(options, method, box.size(), n_indep, n_modes,
                            &snap)) {
    snap.method = method;
    snap.dims = box.size();
    snap.search_pending = mm;
    snap.records.resize(n_indep);
  }
  bool search_timed_out = false;
  // A block threw: waiting mode starts give up, since the cancelled job
  // may never run (or finish) NMMSO.
  bool failed = false;
  std::mutex mu;
  std::condition_variable search_done;
  std::vector<SqpResult> results(n_indep + n_modes);
  const bool snapshots = !options.snapshot_path.empty();

  // Runs start `i` from `first_point` (called only when the start has not
  // begun; it may spend evaluations on `count`), or continues its record.
  const auto run_start = [&](std::size_t i,
                             const std::function<VecD(long*)>& first_point) {
    FillSnapshot::StartRecord rec;
    {
      std::lock_guard<std::mutex> lock(mu);
      rec = snap.records[i];
    }
    if (rec.state == State::kDone) {
      results[i] = rec.result;
      return;
    }
    long count = rec.evaluations;
    VecD x0 = rec.state == State::kRunning ? rec.sqp.x : first_point(&count);
    const ObjectiveFn obj = make_network_objective(problem, network, &count);
    SqpOptions so = options.sqp;
    so.deadline = options.deadline;
    if (rec.state == State::kRunning) so.resume = &rec.sqp;
    if (snapshots || options.interrupt) {
      so.checkpoint_hook = [&, i](const SqpState& st) {
        if (snapshots) {
          std::lock_guard<std::mutex> lock(mu);
          snap.records[i].state = State::kRunning;
          snap.records[i].evaluations = count;
          snap.records[i].sqp = st;
          persist_snapshot(snap, options.snapshot_path);
        }
        if (options.interrupt &&
            options.interrupt->load(std::memory_order_relaxed))
          throw ErrorException(Error(
              ErrorCode::kInterrupted, "fill",
              snapshots ? "interrupt acknowledged; snapshot saved to '" +
                              options.snapshot_path + "'"
                        : std::string("interrupt acknowledged")));
      };
    }
    results[i] = sqp_minimize(obj, std::move(x0), box, so);
    std::lock_guard<std::mutex> lock(mu);
    snap.records[i].state = State::kDone;
    snap.records[i].evaluations = count;
    snap.records[i].result = results[i];
    if (snapshots) persist_snapshot(snap, options.snapshot_path);
  };

  // Multi-modal exploration maximizes the quality score (value only).  Its
  // mid-search state is not stored, so a resume that finds it pending runs
  // the deterministic search again.
  const auto run_search = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!snap.search_pending) return;
    }
    const ObjectiveFn net_obj =
        make_network_objective(problem, network, nullptr);
    const ObjectiveFn explore = [&net_obj](const VecD& v, VecD*) -> double {
      return -net_obj(v, nullptr);  // NMMSO maximizes
    };
    NmmsoOptions nmmso_opt = options.nmmso;
    nmmso_opt.deadline = options.deadline;
    nmmso_opt.interrupt = options.interrupt;
    Nmmso nmmso(explore, box, nmmso_opt);
    const std::vector<Mode> modes = nmmso.run();
    {
      std::lock_guard<std::mutex> lock(mu);
      for (std::size_t k = 0; k < modes.size() && k < n_modes; ++k)
        snap.modes.push_back(modes[k].x);
      snap.search_evaluations = nmmso.evaluations_used();
      snap.search_pending = false;
      snap.records.resize(n_indep + snap.modes.size());
      search_timed_out = nmmso.timed_out();
      if (snapshots) persist_snapshot(snap, options.snapshot_path);
    }
    search_done.notify_all();
  };

  const auto run_block = [&](std::size_t b) {
    if (mm && b == 0) return run_search();
    const std::size_t i = b - (mm ? 1 : 0);  // start index in drive order
    if (i == 0) {
      // The sweep judges its candidates one forward at a time, like every
      // fill evaluation, so each thread's session arena holds one sample.
      return run_start(i, [&](long* count) {
        NF_TRACE_SPAN("fill.pkb_sweep");
        const ObjectiveFn obj = make_network_objective(problem, network, count);
        return problem.flatten(pkb_starting_point(
            problem.extraction(),
            [&](const std::vector<GridD>& x) {
              return -obj(problem.flatten(x), nullptr);
            },
            options.pkb_steps));
      });
    }
    if (i < n_indep) {
      // A spread of target-density fills: the structured corners of the
      // landscape the multi-modal search is meant to cover — distinct
      // basins of the quality score reached from different fill levels.
      return run_start(i, [&](long*) {
        const WindowExtraction& ext = problem.extraction();
        std::vector<double> td(ext.num_layers());
        for (std::size_t l = 0; l < td.size(); ++l) {
          const auto& d = ext.layers[l];
          double mean_rho = 0.0, hi = 0.0;
          for (std::size_t k = 0; k < d.slack.size(); ++k) {
            const double rho = d.wire_density[k] + d.dummy_density[k];
            mean_rho += rho;
            hi = std::max(hi, rho + d.slack[k]);
          }
          const double lo = mean_rho / static_cast<double>(d.slack.size());
          td[l] = lo + kTargetLevels[i - 1] * (hi - lo);
        }
        return problem.flatten(target_density_fill(ext, td));
      });
    }
    const std::size_t k = i - n_indep;  // mode start: waits for NMMSO
    VecD mode;
    {
      std::unique_lock<std::mutex> lock(mu);
      search_done.wait(lock, [&] { return !snap.search_pending || failed; });
      if (failed || k >= snap.modes.size()) return;
      mode = snap.modes[k];
    }
    run_start(i, [&mode](long*) { return mode; });
  };
  runtime::parallel_for(1, n_blocks, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      try {
        run_block(b);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu);
          failed = true;
        }
        search_done.notify_all();
        throw;
      }
    }
  });

  // The serial start order — modes, PKB, target-density fills — then the
  // sort by objective.
  results.resize(n_indep + snap.modes.size());
  std::rotate(results.begin(), results.begin() + n_indep, results.end());
  std::sort(results.begin(), results.end(),
            [](const SqpResult& a, const SqpResult& b) { return a.f < b.f; });

  FillRunResult res;
  res.x = problem.unflatten(results.front().x);
  res.timed_out = search_timed_out;
  for (const SqpResult& r : results) {
    res.iterations += r.iterations;
    res.numeric_recoveries += r.numeric_recoveries;
    res.timed_out = res.timed_out || r.timed_out;
    if (r.poisoned) res.degraded = true;
  }
  if (res.numeric_recoveries > 0) res.degraded = true;
  res.objective_evaluations = snap.search_evaluations;
  for (const FillSnapshot::StartRecord& r : snap.records)
    res.objective_evaluations += r.evaluations;
  NF_COUNTER_ADD("fill.objective_evaluations", res.objective_evaluations);
  return res;
}

}  // namespace

FillRunResult neurfill_pkb(const FillProblem& problem,
                           const CmpNetwork& network,
                           const NeurFillOptions& options) {
  // The method span doubles as the stopwatch: the reported runtime_s and
  // the trace event come from the same clock reads (see obs::SpanTimer).
  obs::SpanTimer timer("fill.neurfill_pkb");
  FillRunResult res = drive_msp(problem, network, "pkb", options);
  res.method = "NeurFill (PKB)";
  res.runtime_s = timer.stop_seconds();
  return res;
}

FillRunResult neurfill_mm(const FillProblem& problem, const CmpNetwork& network,
                          const NeurFillOptions& options) {
  obs::SpanTimer timer("fill.neurfill_mm");
  FillRunResult res = drive_msp(problem, network, "mm", options);
  res.method = "NeurFill (MM)";
  res.runtime_s = timer.stop_seconds();
  return res;
}

}  // namespace neurfill
