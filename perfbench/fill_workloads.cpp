// Monolithic (pkb_abc32, mm_abc32) and tiled (tiled_a64) fill workloads.
// Each job calls the public functions tools/nf_fill.cpp calls, in the same
// order, and every call is wrapped in a bench-side stage span.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/resource.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fill/neurfill.hpp"
#include "fullchip/driver.hpp"
#include "geom/glf_io.hpp"
#include "geom/glf_stream.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace neurfill::perfbench {
namespace {

constexpr char kMonoDesigns[] = {'a', 'b', 'c'};
constexpr int kTiledWindows = 64;
constexpr int kTiledThreads = 4;
constexpr int kSetupRepeats = 9;
constexpr int kProbeRepeats = 5;
constexpr double kMiB = 1024.0 * 1024.0;

/// Stage spans that make up one monolithic job; obs.unattributed_frac is
/// the share of job wall time none of them covers.
constexpr const char* kMonoStages[] = {
    "geom.read_glf",     "layout.extract", "fill.coefficients",
    "surrogate.network", "fill.calibrate", "fill.solve",
    "layout.insert",     "geom.write_glf"};
constexpr const char* kTiledStages[] = {"geom.index_build", "fill.solve",
                                        "geom.write_fullchip"};

double sum_stages(const ObsTotals& obs, const char* const* begin,
                  const char* const* end) {
  double s = 0.0;
  for (const char* const* it = begin; it != end; ++it) s += obs.span(*it);
  return s;
}

void set_obs(bool on) {
  obs::set_metrics_enabled(on);
  obs::set_tracing_enabled(on);
}

}  // namespace

JobRecord fill_job(const DesignInput& in, std::size_t key,
                   const std::string& out, const std::string& method,
                   const std::shared_ptr<const CmpSurrogate>& surrogate,
                   const NeurFillOptions& nopt) {
  JobRecord rec;
  rec.key = key;
  rec.out_path = out;
  const double t0 = now_s();
  try {
    Layout layout = staged("geom.read_glf", [&] { return read_glf_file(in.path); });
    const ExtractOptions eopt;
    const WindowExtraction ext =
        staged("layout.extract", [&] { return extract_windows(layout, eopt); });
    CmpProcessParams params;
    params.window_um = eopt.window_um;
    const CmpSimulator sim(params);
    const ScoreCoefficients coeffs =
        staged("fill.coefficients", [&] { return make_coefficients(layout, ext, sim); });
    const FillProblem problem(ext, sim, coeffs);
    FillRunResult result;
    if (method == "lin") {
      result = staged("fill.solve", [&] { return lin_rule_fill(problem); });
    } else {
      CmpNetwork network =
          staged("surrogate.network", [&] { return CmpNetwork(surrogate, ext, coeffs); });
      staged("fill.calibrate", [&] { calibrate_network(network, problem); });
      result = staged("fill.solve", [&] {
        return method == "pkb" ? neurfill_pkb(problem, network, nopt)
                               : neurfill_mm(problem, network, nopt);
      });
    }
    staged("layout.insert", [&] { return insert_dummies(layout, ext, result.x); });
    staged("geom.write_glf", [&] { write_glf_file(out, layout); });
    rec.wall_s = now_s() - t0;
    if (result.timed_out || result.degraded)
      rec.error = std::string("solve came back") +
                  (result.timed_out ? " timed-out" : "") +
                  (result.degraded ? " degraded" : "");
    rec.numeric_recoveries = result.numeric_recoveries;
    rec.x = std::move(result.x);
  } catch (const ErrorException& e) {
    rec.error = e.err.to_string();
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  if (rec.wall_s == 0.0) rec.wall_s = now_s() - t0;
  return rec;
}

long check_jobs(const std::vector<JobRecord>& jobs,
                const std::vector<const WindowExtraction*>& ext_of_key,
                WorkloadResult* r) {
  long failed = 0;
  std::vector<std::uint64_t> first_digest(ext_of_key.size(), 0);
  for (const JobRecord& job : jobs) {
    std::string why = job.error;
    if (why.empty()) why = check_output(job.out_path, *ext_of_key[job.key], job.x);
    if (why.empty()) {
      const std::uint64_t d = file_digest(job.out_path);
      std::uint64_t& ref = first_digest[job.key];
      if (ref == 0) ref = d;
      if (d != ref) why = job.out_path + " differs from an earlier run of the same spec";
    }
    if (!why.empty()) {
      ++failed;
      r->fail(why);
    }
  }
  return failed;
}

namespace {

/// Table I probe: value-only vs value+gradient network evaluation at the
/// PKB start point, timed outside every measured region.
void table1_probe(const std::vector<DesignInput>& inputs,
                  const std::shared_ptr<const CmpSurrogate>& surrogate,
                  WorkloadResult* r) {
  std::vector<double> value_ms, grad_ms;
  for (const DesignInput& in : inputs) {
    const FillProblem problem(in.ext, CmpSimulator(), in.coeffs);
    CmpNetwork network(surrogate, in.ext, in.coeffs);
    calibrate_network(network, problem);
    const ObjectiveFn obj = make_network_objective(problem, network);
    const std::vector<GridD> x0 = pkb_starting_point(
        in.ext, [&](const std::vector<GridD>& x) {
          return -obj(problem.flatten(x), nullptr);
        });
    (void)network.evaluate(x0, true);  // first-touch of every buffer
    for (int k = 0; k < kProbeRepeats; ++k) {
      double t0 = now_s();
      (void)network.evaluate(x0, false);
      value_ms.push_back(1e3 * (now_s() - t0));
      t0 = now_s();
      (void)network.evaluate(x0, true);
      grad_ms.push_back(1e3 * (now_s() - t0));
    }
  }
  const double v = percentile(value_ms, 50.0), g = percentile(grad_ms, 50.0);
  r->layers["surrogate.value_eval_ms"] = v;
  r->layers["surrogate.grad_eval_ms"] = g;
  r->layers["surrogate.grad_value_ratio"] = v > 0.0 ? g / v : 0.0;
}

}  // namespace

WorkloadResult run_mono(const RunOptions& opt, const std::string& method,
                         int windows) {
  WorkloadResult r;
  const int threads = method == "pkb" ? 1 : 4;
  // The cross-thread output check re-runs one job at this count; for mm
  // (a job of several seconds) only in the traced run.
  const int alt_threads = method == "pkb" ? 4 : 1;
  const bool cross_check = method == "pkb" || opt.trace;
  runtime::set_thread_count(threads);

  Rng rng(opt.seed);
  std::vector<DesignInput> inputs;
  for (char d : kMonoDesigns)
    inputs.push_back(prepare_design(d, windows, windows, rng.next_u64(),
                                    opt.work_dir + "/in_" + d + ".glf", true));
  // All three designs share one plane shape; set-up compiles it once.
  const std::vector<const DesignInput*> shapes = {&inputs[0]};

  std::vector<double> setup_s(kSetupRepeats);
  std::shared_ptr<CmpSurrogate> surrogate;
  for (double& s : setup_s) surrogate = warm_surrogate(shapes, &s);

  std::vector<JobRecord> jobs;
  std::vector<double> pass_s;
  std::vector<std::vector<double>> job_s(inputs.size());
  auto run_pass = [&](TraceWatch* tw) {
    double pass = 0.0;
    const int p = static_cast<int>(pass_s.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (tw != nullptr) tw->begin_job();
      jobs.push_back(fill_job(inputs[i], i,
                              opt.work_dir + "/out_" + inputs[i].design + "_p" +
                                  std::to_string(p) + ".glf",
                              method, surrogate));
      if (tw != nullptr) tw->end_job();
      pass += jobs.back().wall_s;
      job_s[i].push_back(jobs.back().wall_s);
    }
    pass_s.push_back(pass);
  };

  if (!opt.trace) {
    const double start = now_s();
    do run_pass(nullptr);
    while (now_s() - start + pass_s.back() <= opt.seconds);
  } else {
    run_pass(nullptr);  // untraced baseline for obs.trace_overhead_frac
    obs::reset_metrics();
    set_obs(true);
    double traced_setup = 0.0;
    surrogate = warm_surrogate(shapes, &traced_setup);
    TraceWatch tw;
    run_pass(&tw);
    set_obs(false);
    const ObsTotals totals = ObsTotals::take();
    add_common_layers(totals, &r);
    report_trace(tw, &r);
    const double traced = pass_s.back();
    const double covered =
        sum_stages(totals, std::begin(kMonoStages), std::end(kMonoStages));
    r.layers["obs.unattributed_frac"] = (traced - covered) / traced;
    r.layers["obs.trace_overhead_frac"] = traced / pass_s.front() - 1.0;
    table1_probe(inputs, surrogate, &r);
  }
  const double peak_rss = static_cast<double>(peak_rss_bytes());

  // Cross-thread identity: the fastest design again at another thread count.
  const std::size_t measured_jobs = jobs.size();
  if (cross_check) {
    std::size_t fastest = 0;
    for (std::size_t i = 1; i < inputs.size(); ++i)
      if (jobs[i].wall_s < jobs[fastest].wall_s) fastest = i;
    runtime::set_thread_count(alt_threads);
    jobs.push_back(fill_job(inputs[fastest], fastest,
                            opt.work_dir + "/out_" + inputs[fastest].design +
                                "_t" + std::to_string(alt_threads) + ".glf",
                            method, surrogate));
    runtime::set_thread_count(threads);
  }

  std::vector<const WindowExtraction*> exts;
  for (const DesignInput& in : inputs) exts.push_back(&in.ext);
  r.attempted = static_cast<long>(jobs.size());
  r.failed = check_jobs(jobs, exts, &r);

  double quality = 0.0, recoveries = 0.0, bytes_in = 0.0, bytes_out = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const FillProblem problem(inputs[i].ext, CmpSimulator(), inputs[i].coeffs);
    if (jobs[i].error.empty()) quality += problem.evaluate(jobs[i].x).s_qual;
    bytes_in += static_cast<double>(file_size(inputs[i].path));
  }
  const std::size_t last_pass = measured_jobs - inputs.size();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const JobRecord& j = jobs[last_pass + i];
    recoveries += j.numeric_recoveries;
    bytes_out += static_cast<double>(file_size(j.out_path));
  }

  if (opt.trace) {
    r.layers["geom.bytes_read"] = bytes_in;
    r.layers["geom.bytes_written"] = bytes_out;
    r.layers["fill.numeric_recoveries"] = recoveries;
    return r;
  }
  // Per design, the median of its passes: one pass slowed by a noisy
  // neighbour on the host does not move the result.
  std::vector<double> design_s;
  for (const std::vector<double>& walls : job_s)
    design_s.push_back(percentile(walls, 50.0));
  double fill_s = 0.0;
  for (double d : design_s) fill_s += d;
  r.e2e["fill_s"] = fill_s;
  r.e2e["setup_s"] = percentile(setup_s, 50.0);
  r.e2e["quality"] = quality / static_cast<double>(inputs.size());
  r.e2e["peak_rss_mb"] = peak_rss / kMiB;
  r.e2e["job_p50_s"] = percentile(design_s, 50.0);
  r.e2e["job_p90_s"] = percentile(design_s, 90.0);
  r.e2e["max_jobs_per_s"] = static_cast<double>(inputs.size()) / fill_s;
  r.notes.push_back("samples: " + std::to_string(pass_s.size()) + " passes of " +
                    std::to_string(inputs.size()) + " jobs, " +
                    std::to_string(setup_s.size()) + " set-ups");
  return r;
}

WorkloadResult run_tiled(const RunOptions& opt) {
  WorkloadResult r;
  runtime::set_thread_count(kTiledThreads);
  const double w = 100.0;
  const std::uint64_t design_seed = Rng(opt.seed).next_u64();
  const DesignInput die =
      prepare_design('a', kTiledWindows, kTiledWindows, design_seed,
                     opt.work_dir + "/die_a64.glf", false);

  // Every distinct halo-tile shape gets its session compiled at set-up.
  fullchip::FullChipOptions base;
  base.method = "pkb";
  const fullchip::TileGrid grid(
      kTiledWindows, kTiledWindows, base.tile_windows,
      fullchip::auto_halo_windows(base.process.char_length_um, w), w);
  std::vector<DesignInput> tile_shapes;
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (std::size_t t = 0; t < grid.num_tiles(); ++t) {
    const fullchip::TileRegion tile = grid.tile_by_index(t);
    if (!seen.insert({tile.halo_rows(), tile.halo_cols()}).second) continue;
    tile_shapes.push_back(prepare_design(
        'a', static_cast<int>(tile.halo_cols()), static_cast<int>(tile.halo_rows()),
        design_seed, opt.work_dir + "/shape.glf", true));
  }
  std::vector<const DesignInput*> shapes;
  for (const DesignInput& s : tile_shapes) shapes.push_back(&s);

  std::vector<double> setup_s(kSetupRepeats);
  std::shared_ptr<CmpSurrogate> surrogate;
  for (double& s : setup_s) surrogate = warm_surrogate(shapes, &s);

  std::vector<double> pass_s;
  std::vector<fullchip::FullChipResult> results;
  std::vector<std::string> outs, errors;
  double presolve_load_s = 0.0;
  // nf_fill's run_tiled(): index, surrogate check, tile solves with a
  // per-tile load from disk, streamed write.  A fresh store every pass.
  auto run_pass = [&](const std::string& tag) {
    const std::string store = opt.work_dir + "/tiles_" + tag;
    const std::string out = opt.work_dir + "/out_a64_" + tag + ".glf";
    std::filesystem::remove_all(store);
    const double t0 = now_s();
    try {
      const GlfRegionIndex index = staged(
          "geom.index_build", [&] { return GlfRegionIndex::build(die.path, 4.0 * w); });
      fullchip::FullChipOptions fopt = base;
      fopt.store_dir = store;
      const double tl = now_s();
      (void)load_benchmark_surrogate();
      presolve_load_s = now_s() - tl;
      fopt.surrogate_factory = []() -> std::shared_ptr<const CmpSurrogate> {
        return load_benchmark_surrogate();
      };
      fullchip::FullChipResult res =
          staged("fill.solve", [&] { return fullchip::fullchip_fill(index, fopt); });
      staged("geom.write_fullchip", [&] {
        return fullchip::write_fullchip_result(index, out, res, w);
      });
      pass_s.push_back(now_s() - t0);
      errors.push_back(res.timed_out || res.degraded ? "tiled solve came back flagged" : "");
      results.push_back(std::move(res));
    } catch (const std::exception& e) {
      pass_s.push_back(now_s() - t0);
      errors.push_back(e.what());
      results.emplace_back();
    }
    outs.push_back(out);
  };

  if (!opt.trace) {
    const double start = now_s();
    int p = 0;
    do run_pass("p" + std::to_string(p++));
    while (now_s() - start + pass_s.back() <= opt.seconds);
  } else {
    run_pass("p0");
    obs::reset_metrics();
    // Metrics only: one die fill records ~950k trace events across four
    // threads, too close to the per-thread buffers to trust, and it cannot
    // be split into jobs the buffers could be reset between.
    obs::set_metrics_enabled(true);
    double traced_setup = 0.0;
    surrogate = warm_surrogate(shapes, &traced_setup);
    run_pass("p1");
    obs::set_metrics_enabled(false);
    const ObsTotals totals = ObsTotals::take();
    add_common_layers(totals, &r);
    r.notes.push_back("trace: event recording off for the die fill (metrics only)");
    const double traced = pass_s.back();
    // The per-tile loads run inside fill.solve on pool workers, so only the
    // pre-solve load sits beside the stages on the job's critical path.
    const double covered =
        sum_stages(totals, std::begin(kTiledStages), std::end(kTiledStages)) +
        presolve_load_s;
    r.layers["obs.unattributed_frac"] = (traced - covered) / traced;
    r.layers["obs.trace_overhead_frac"] = traced / pass_s.front() - 1.0;
    const fullchip::FullChipResult& res = results.back();
    r.layers["fullchip.parallel_eff"] =
        res.runtime_s > 0.0 ? res.tile_seconds / (res.runtime_s * kTiledThreads) : 0.0;
    r.layers["fullchip.seam"] = res.final_seam;
  }
  const double peak_rss = static_cast<double>(peak_rss_bytes());
  if (opt.trace) {
    runtime::set_thread_count(2);  // cross-thread identity of the die fill
    run_pass("t2");
    runtime::set_thread_count(kTiledThreads);
  }

  // Checks and quality against the monolithic view of the die, built only
  // now so it cannot raise the measured peak RSS.
  const Layout layout = read_glf_file(die.path);
  const WindowExtraction ext = extract_windows(layout);
  const CmpSimulator sim;
  const FillProblem problem(ext, sim, make_coefficients(layout, ext, sim));
  std::vector<JobRecord> jobs;
  for (std::size_t p = 0; p < results.size(); ++p) {
    JobRecord j;
    j.out_path = outs[p];
    j.x = results[p].x;
    j.error = errors[p];
    jobs.push_back(std::move(j));
  }
  r.attempted = static_cast<long>(jobs.size());
  r.failed = check_jobs(jobs, {&ext}, &r);
  const double quality = jobs[0].error.empty() ? problem.evaluate(jobs[0].x).s_qual : 0.0;

  if (opt.trace) {
    r.layers["geom.bytes_read"] = static_cast<double>(file_size(die.path));
    r.layers["geom.bytes_written"] = static_cast<double>(file_size(outs[1]));
    return r;
  }
  const double fill_s = percentile(pass_s, 50.0);
  r.e2e["fill_s"] = fill_s;
  r.e2e["setup_s"] = percentile(setup_s, 50.0);
  r.e2e["quality"] = quality;
  r.e2e["peak_rss_mb"] = peak_rss / kMiB;
  r.e2e["job_p50_s"] = percentile(pass_s, 50.0);
  r.e2e["job_p90_s"] = percentile(pass_s, 90.0);
  r.e2e["max_jobs_per_s"] = 1.0 / fill_s;
  r.notes.push_back("samples: " + std::to_string(pass_s.size()) +
                    " die fills (" + std::to_string(grid.num_tiles()) +
                    " tiles each), " + std::to_string(setup_s.size()) +
                    " set-ups; seam " + std::to_string(results[0].final_seam));
  return r;
}

}  // namespace neurfill::perfbench
