#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "cmp/simulator.hpp"
#include "common/error.hpp"
#include "fill/problem.hpp"
#include "geom/designs.hpp"
#include "geom/glf_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "surrogate/infer.hpp"

namespace neurfill::perfbench {

double now_s() { return static_cast<double>(obs::trace_now_ns()) * 1e-9; }

void TraceWatch::begin_job() { obs::reset_trace(); }

void TraceWatch::end_job() {
  long job_events = 0;
  for (const obs::ThreadTrace& t : obs::trace_snapshot()) {
    job_events += static_cast<long>(t.events.size());
    dropped += static_cast<long>(t.dropped);
  }
  events += job_events;
  max_events_per_job = std::max(max_events_per_job, job_events);
  obs::reset_trace();
}

void report_trace(const TraceWatch& tw, WorkloadResult* r) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "trace: %ld events recorded, at most %ld in one job, %ld "
                "dropped",
                tw.events, tw.max_events_per_job, tw.dropped);
  r->notes.push_back(line);
  if (tw.dropped > 0) r->fail("traced run dropped trace events");
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::uint64_t h = 1469598103934665603ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    const std::streamsize n = in.gcount();
    for (std::streamsize i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::uint64_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

std::string check_output(const std::string& out_path,
                         const WindowExtraction& input,
                         const std::vector<GridD>& x) {
  // Text coordinates round-trip to ~1e-12 um; a realized density may
  // exceed its slack only by that rounding, never by a real overfill.
  constexpr double kDensityTol = 1e-9;
  if (x.size() != input.num_layers())
    return "fill has " + std::to_string(x.size()) + " layers, design " +
           std::to_string(input.num_layers());
  for (std::size_t l = 0; l < x.size(); ++l) {
    const GridD& slack = input.layers[l].slack;
    if (x[l].rows() != input.rows || x[l].cols() != input.cols)
      return "fill grid shape differs from the design's windows";
    for (std::size_t i = 0; i < input.rows; ++i)
      for (std::size_t j = 0; j < input.cols; ++j)
        if (!(x[l](i, j) >= 0.0 && x[l](i, j) <= slack(i, j)))
          return "fill outside [0, slack] at layer " + std::to_string(l);
  }
  WindowExtraction written;
  try {
    ExtractOptions eopt;
    eopt.window_um = input.window_um;
    written = extract_windows(read_glf_file(out_path), eopt);
  } catch (const std::exception& e) {
    return out_path + " does not re-read: " + e.what();
  }
  if (written.rows != input.rows || written.cols != input.cols ||
      written.num_layers() != input.num_layers())
    return out_path + " has a different window grid than its input";
  for (std::size_t l = 0; l < input.num_layers(); ++l) {
    const GridD& slack = input.layers[l].slack;
    const GridD& dummy = written.layers[l].dummy_density;
    for (std::size_t i = 0; i < input.rows; ++i)
      for (std::size_t j = 0; j < input.cols; ++j)
        if (!(dummy(i, j) >= 0.0 && dummy(i, j) <= slack(i, j) + kDensityTol))
          return out_path + ": written fill outside [0, slack] at layer " +
                 std::to_string(l);
  }
  return "";
}

std::shared_ptr<CmpSurrogate> load_benchmark_surrogate() {
  Expected<std::shared_ptr<CmpSurrogate>> s =
      staged("surrogate.load", [] { return load_surrogate(kSurrogatePrefix); });
  if (!s.ok()) throw ErrorException(s.error());
  return std::move(*s);
}

DesignInput prepare_design(char d, int wx, int wy, std::uint64_t seed,
                           const std::string& path, bool analyze) {
  DesignInput in;
  in.design = d;
  in.path = path;
  write_glf_file(path, make_design_rect(d, wx, wy, 100.0, seed));
  if (analyze) {
    const Layout layout = read_glf_file(path);
    in.ext = extract_windows(layout);
    in.coeffs = make_coefficients(layout, in.ext, CmpSimulator());
  }
  return in;
}

std::shared_ptr<CmpSurrogate> warm_surrogate(
    const std::vector<const DesignInput*>& shapes, double* seconds) {
  clear_surrogate_inference_cache();
  const double t0 = now_s();
  std::shared_ptr<CmpSurrogate> s = load_benchmark_surrogate();
  for (const DesignInput* in : shapes)
    staged("surrogate.compile", [&] { return CmpNetwork(s, in->ext, in->coeffs); });
  *seconds = now_s() - t0;
  return s;
}

ObsTotals ObsTotals::take() {
  ObsTotals t;
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  for (const auto& c : snap.counters)
    t.counters[c.name] = static_cast<double>(c.value);
  for (const auto& s : snap.spans) {
    t.span_s[s.name] = s.total_s;
    t.span_count[s.name] = static_cast<double>(s.count);
  }
  return t;
}

namespace {
double lookup(const std::map<std::string, double>& m, const std::string& n) {
  auto it = m.find(n);
  return it == m.end() ? 0.0 : it->second;
}
}  // namespace

double ObsTotals::counter(const std::string& n) const {
  return lookup(counters, n);
}
double ObsTotals::span(const std::string& n) const { return lookup(span_s, n); }
double ObsTotals::calls(const std::string& n) const {
  return lookup(span_count, n);
}

void add_common_layers(const ObsTotals& obs, WorkloadResult* r) {
  auto& m = r->layers;
  // Bench-side spans around public calls.
  m["geom.read_glf_s"] = obs.span("geom.read_glf");
  m["geom.write_glf_s"] = obs.span("geom.write_glf");
  m["geom.index_build_s"] = obs.span("geom.index_build");
  m["geom.write_fullchip_s"] = obs.span("geom.write_fullchip");
  m["layout.extract_s"] = obs.span("layout.extract");
  m["layout.insert_s"] = obs.span("layout.insert");
  m["fill.coefficients_s"] = obs.span("fill.coefficients");
  m["fill.calibrate_s"] = obs.span("fill.calibrate");
  m["fill.solve_s"] = obs.span("fill.solve");
  m["surrogate.network_s"] = obs.span("surrogate.network");
  m["surrogate.load_count"] = obs.calls("surrogate.load");
  m["surrogate.load_s"] = obs.span("surrogate.load");
  m["surrogate.compile_s"] = obs.span("surrogate.compile");

  // The program's own obs spans and counters.
  m["cmp.simulate_count"] = obs.counter("cmp.simulations");
  m["cmp.simulate_s"] = obs.span("cmp.simulate");
  m["cmp.contact_iterations"] = obs.counter("contact.iterations");
  m["cmp.contact_retries"] = obs.counter("cmp.contact_retries");
  m["cmp.contact_degraded"] = obs.counter("cmp.contact_degraded");
  m["fill.objective_evaluations"] = obs.counter("fill.objective_evaluations");
  m["opt.sqp_s"] = obs.span("opt.sqp");
  m["opt.sqp_step_s"] = obs.span("opt.sqp_step");
  m["opt.sqp_iterations"] = obs.counter("opt.sqp_iterations");
  m["opt.sqp_evaluations"] = obs.counter("opt.sqp_evaluations");
  m["opt.nmmso_s"] = obs.span("opt.nmmso");
  m["opt.nmmso_batches"] = obs.calls("opt.nmmso_batch");
  m["opt.nmmso_evaluations"] = obs.counter("opt.nmmso_evaluations");
  m["opt.nmmso_poison_drops"] = obs.counter("opt.nmmso_poison_drops");
  m["nn.conv2d_backward_s"] = obs.span("nn.conv2d_backward");
  m["nn.conv2d_fused_s"] = obs.span("nn.conv2d_fused");
  m["nn.gemm_s"] = obs.span("nn.gemm");
  m["nn.gemm_gflop"] = obs.counter("nn.gemm_flops") * 1e-9;
  const double runs = obs.calls("nn.infer_run");
  m["nn.infer_run_count"] = runs;
  m["nn.infer_run_s"] = obs.span("nn.infer_run");
  m["nn.infer_batch_mean"] = runs > 0 ? obs.counter("infer.samples") / runs : 0.0;
  m["surrogate.session_cache_hits"] = obs.counter("surrogate.session_cache_hits");
  m["surrogate.session_cache_misses"] =
      obs.counter("surrogate.session_cache_misses");
  m["runtime.jobs"] = obs.counter("runtime.jobs");
  m["runtime.blocks"] = obs.counter("runtime.blocks");
  m["fullchip.tile_solves"] = obs.counter("fullchip.tiles_solved");
  const double tiles = obs.calls("fullchip.tile");
  m["fullchip.tile_ms_mean"] = tiles > 0 ? 1e3 * obs.span("fullchip.tile") / tiles : 0.0;
  m["fullchip.stitch_s"] = obs.span("fullchip.stitch");
  m["serve.journal_commit_count"] = obs.calls("serve.journal_commit");
  m["serve.journal_commit_s"] = obs.span("serve.journal_commit");
  m["serve.job_run_s"] = obs.span("serve.job_run");
  m["serve.jobs_rejected"] = obs.counter("serve.jobs_rejected");
  m["serve.jobs_retried"] = obs.counter("serve.jobs_retried");
}

}  // namespace neurfill::perfbench
