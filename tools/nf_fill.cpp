// nf_fill: model-based dummy filling of a GLF layout from the command line.
//
// Run `nf_fill --help` for the full flag list.  pkb/mm need a pre-trained
// surrogate (see examples/train_surrogate); with none available a reduced
// surrogate is trained on the fly (surrogate/provider.hpp), while a corrupt
// one is an error.
//
// Robustness (docs/robustness.md): `--deadline-s` bounds the wall clock and
// returns the best feasible fill with a [timed-out] report flag;
// `--snapshot` checkpoints the optimization periodically and `--resume`
// continues a killed run to a bitwise-identical result; SIGINT/SIGTERM
// write a final snapshot and exit 128+signal (130/143).  Exit codes: 0
// success, 1 runtime/input failure (structured one-line error, no stack
// trace), 2 usage error.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "fill/pipeline.hpp"
#include "fill/report.hpp"
#include "fullchip/driver.hpp"
#include "geom/glf_io.hpp"
#include "layout/fill_insertion.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/provider.hpp"

using namespace neurfill;

namespace {

std::atomic<bool> g_interrupt{false};
std::atomic<int> g_signal{0};
void handle_signal(int sig) {
  g_signal.store(sig);
  g_interrupt.store(true);
}

/// The surrogate for a pkb/mm solve on `ext`: the artifact at `prefix`, or
/// the provider's quick-trained fallback when none exists there.  Any other
/// load failure is a hard input error (exit 1, no trace).
std::shared_ptr<const CmpSurrogate> obtain_surrogate(
    const std::string& prefix, const WindowExtraction& ext,
    const CmpSimulator& sim) {
  SurrogateProvider provider;
  Expected<std::shared_ptr<const CmpSurrogate>> surrogate =
      provider.get(prefix, ext, sim);
  if (!surrogate.ok()) throw ErrorException(surrogate.error());
  return std::move(*surrogate);
}

Deadline deadline_after(double seconds) {
  return seconds > 0.0 ? Deadline::after_seconds(seconds) : Deadline();
}

struct RunFlags {
  bool report = false;
  bool drc = false;
  double deadline_s = 0.0;  ///< 0 = no deadline
  std::string snapshot_path;
  bool resume = false;
};

int run(const std::string& in_path, const std::string& out_path,
        const std::string& method, const std::string& surrogate_prefix,
        const ExtractOptions& eopt, const RunFlags& flags) {
  Layout layout = read_glf_file(in_path);
  const FillProblem problem =
      make_fill_problem(layout, eopt, CmpProcessParams());
  const WindowExtraction& ext = problem.extraction();

  FillRequest request;
  request.method = method;
  request.neurfill.deadline = deadline_after(flags.deadline_s);
  if (is_model_based(method)) {
    request.surrogate =
        obtain_surrogate(surrogate_prefix, ext, problem.simulator());
    request.neurfill.snapshot_path = flags.snapshot_path;
    request.neurfill.resume = flags.resume;
    request.neurfill.interrupt = &g_interrupt;
  }
  const FillRunResult result = run_fill(problem, request);

  const Layout original = layout;  // scoring must see the pre-fill design
  std::size_t dummies = 0;
  if (flags.drc) {
    const DrcInsertStats stats = insert_dummies_drc(layout, ext, result.x);
    dummies = stats.placed;
    std::fprintf(stderr,
                 "DRC insertion: realized %.0f of %.0f um^2 (%zu sites "
                 "blocked)\n",
                 stats.realized_um2, stats.requested_um2, stats.blocked_sites);
  } else {
    dummies = insert_dummies(layout, ext, result.x);
  }
  write_glf_file(out_path, layout);
  std::fprintf(stderr, "%s: inserted %zu dummies in %.1fs (%ld evaluations)%s%s\n",
               result.method.c_str(), dummies, result.runtime_s,
               result.objective_evaluations,
               result.timed_out ? " [timed-out]" : "",
               result.degraded ? " [degraded]" : "");
  if (flags.report) {
    const MethodReport rep = score_fill_result(problem, original, result);
    print_table3_header(std::cout);
    print_table3_row(std::cout, layout.name, rep);
  }
  return 0;
}

int run_tiled(const std::string& in_path, const std::string& out_path,
              const std::string& surrogate_prefix, const RunFlags& flags,
              fullchip::FullChipOptions fopt) {
  // Index, never parse: the full chip is only ever touched one tile region
  // at a time.  Buckets of a few windows keep region queries sharp without
  // inflating the index.
  const double w = fopt.extract.window_um;
  const GlfRegionIndex index = GlfRegionIndex::build(in_path, 4.0 * w);

  if (fopt.store_dir.empty()) fopt.store_dir = out_path + ".tiles";
  fopt.resume = flags.resume;
  fopt.deadline = deadline_after(flags.deadline_s);
  fopt.interrupt = &g_interrupt;
  if (is_model_based(fopt.method)) {
    // Every tile solve shares one surrogate; a missing artifact is
    // quick-trained on tile (0,0)'s halo region.
    fopt.surrogate_factory = [&surrogate_prefix, &fopt, &index, w] {
      const fullchip::TileGrid grid = fullchip::tile_grid(index, fopt);
      const Layout local =
          fullchip::load_tile_layout(index, grid.tile(0, 0), w);
      CmpProcessParams params = fopt.process;
      params.window_um = w;
      return obtain_surrogate(surrogate_prefix,
                              extract_windows(local, fopt.extract),
                              CmpSimulator(params));
    };
  }

  const fullchip::FullChipResult result = fullchip::fullchip_fill(index, fopt);
  const std::size_t dummies =
      fullchip::write_fullchip_result(index, out_path, result, w);
  std::fprintf(stderr,
               "%s-tiled: %zu tiles (%zu solved, %zu loaded), %d stitch "
               "pass(es), seam %.4f; inserted %zu dummies in %.1fs "
               "(%ld evaluations)%s%s\n",
               fopt.method.c_str(), result.tiles_total, result.tiles_solved,
               result.tiles_loaded, result.stitch_passes + 1,
               result.final_seam, dummies, result.runtime_s,
               result.evaluations, result.timed_out ? " [timed-out]" : "",
               result.degraded ? " [degraded]" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_path;
  std::string out_path;
  std::string method = "pkb";
  std::string surrogate_prefix = "data/unet_cmp";
  RunFlags flags;
  ExtractOptions eopt;
  bool tiled = false;
  fullchip::FullChipOptions fopt;  ///< --tiled settings, parsed in place
  CommonToolOptions common;
  const auto shown = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return std::string(buf);
  };

  ArgParser parser("nf_fill", "Model-based dummy filling of a GLF layout.");
  parser.add_positional("layout.glf", "input GLF layout", &in_path);
  parser.add_positional("out.glf", "output layout with dummies inserted",
                        &out_path);
  parser.add_choice("--method",
                    std::vector<std::string>(kFillMethods.begin(),
                                             kFillMethods.end()),
                    "filling method (default pkb)", &method);
  parser.add_string("--surrogate", "PREFIX",
                    "surrogate weight prefix (default data/unet_cmp)",
                    &surrogate_prefix);
  parser.add_double("--window", "UM",
                    "window edge in um (default " + shown(eopt.window_um) +
                        ")",
                    &eopt.window_um);
  parser.add_flag("--report", "print the Table-III score row for the result",
                  &flags.report);
  parser.add_flag("--drc", "insert dummies with design-rule checking",
                  &flags.drc);
  parser.add_double("--deadline-s", "SEC",
                    "wall-clock budget; expiry returns the best feasible "
                    "fill flagged [timed-out] (default: none)",
                    &flags.deadline_s);
  parser.add_string("--snapshot", "PATH",
                    "checkpoint the pkb/mm optimization state to PATH "
                    "(atomic, CRC-checksummed)",
                    &flags.snapshot_path);
  parser.add_flag("--resume",
                  "continue from --snapshot PATH; the resumed run's fill is "
                  "bitwise identical to an uninterrupted one",
                  &flags.resume);
  parser.add_flag("--tiled",
                  "out-of-core full-chip mode: solve halo tiles through the "
                  "pool and stitch them (docs/fullchip.md)",
                  &tiled);
  parser.add_int("--tile-windows", "N",
                 "tile core edge in windows (default " +
                     std::to_string(fopt.tile_windows) + ")",
                 &fopt.tile_windows);
  parser.add_int("--halo-windows", "H",
                 "halo ring width in windows (default: derived from the "
                 "planarization length)",
                 &fopt.halo_windows);
  parser.add_double("--stitch-tol", "T",
                    "stop stitching when the worst cross-tile seam falls "
                    "under T (default " + shown(fopt.stitch_tol) + ")",
                    &fopt.stitch_tol);
  parser.add_int("--stitch-passes", "N",
                 "max refinement passes after the initial tile pass "
                 "(default " + std::to_string(fopt.max_stitch_passes) + ")",
                 &fopt.max_stitch_passes);
  parser.add_string("--tile-store", "DIR",
                    "spill directory for solved tiles (default: "
                    "out.glf + \".tiles\"); with --resume, completed tiles "
                    "are loaded instead of re-solved",
                    &fopt.store_dir);
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
  if (tiled) {
    if (method != "lin" && !is_model_based(method)) {
      std::fprintf(stderr,
                   "nf_fill: --tiled supports lin, pkb, mm (method '%s' "
                   "needs the monolithic path)\n",
                   method.c_str());
      return 2;
    }
    if (flags.report || flags.drc || !flags.snapshot_path.empty()) {
      std::fprintf(stderr,
                   "nf_fill: --tiled is incompatible with --report/--drc/"
                   "--snapshot (the tile store is the tiled run's "
                   "checkpoint)\n");
      return 2;
    }
    if (fopt.tile_windows < 1 || fopt.max_stitch_passes < 0 ||
        !(fopt.stitch_tol > 0.0)) {
      std::fprintf(stderr,
                   "nf_fill: --tile-windows must be >= 1, --stitch-passes "
                   ">= 0, --stitch-tol > 0\n");
      return 2;
    }
  } else if (flags.resume && flags.snapshot_path.empty()) {
    std::fprintf(stderr, "nf_fill: --resume requires --snapshot PATH\n");
    return 2;
  }
  if (!flags.snapshot_path.empty() && !is_model_based(method))
    std::fprintf(stderr,
                 "nf_fill: note: --snapshot/--resume only apply to pkb/mm\n");
  fopt.method = method;
  fopt.extract = eopt;
  // SIGTERM and SIGINT share one checkpoint-consistent handler: the solve
  // writes a final snapshot and the tool exits 128+signal (130 for SIGINT,
  // 143 for SIGTERM — docs/robustness.md).
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::fprintf(stderr, "nf_fill: method=%s threads=%d\n", method.c_str(),
               runtime::thread_count());

  int rc = 0;
  try {
    rc = tiled ? run_tiled(in_path, out_path, surrogate_prefix, flags, fopt)
               : run(in_path, out_path, method, surrogate_prefix, eopt, flags);
  } catch (const ErrorException& e) {
    if (e.err.code == ErrorCode::kInterrupted) {
      std::fprintf(stderr, "nf_fill: %s\n", e.err.message.c_str());
      const int sig = g_signal.load();
      rc = 128 + (sig > 0 ? sig : SIGINT);
    } else {
      std::fprintf(stderr, "error: %s\n", e.err.to_string().c_str());
      rc = 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  if (!finish_common_options(common) && rc == 0) rc = 1;
  return rc;
}
