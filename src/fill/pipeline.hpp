#pragma once

// The one place a fill method name becomes a solve (paper Fig. 7): windows
// and coefficients, then lin/tao/cai directly, or the CMP neural network
// calibrated on the simulator followed by NeurFill (PKB or MM).  nf_fill,
// the nf_serve job runner, the tiled driver's tile solve and the benches
// all go through make_fill_problem + run_fill.
//
// GLF I/O, dummy insertion and snapshot policy stay with each caller,
// because they really differ (--drc/--report, the daemon's corrupt-snapshot
// quarantine, the tile's fringe pinning).  The surrogate comes from
// surrogate/provider.hpp.

#include <array>
#include <memory>
#include <string>

#include "cmp/simulator.hpp"
#include "fill/baselines.hpp"
#include "fill/neurfill.hpp"
#include "fill/problem.hpp"
#include "geom/layout.hpp"
#include "layout/window_grid.hpp"
#include "surrogate/cmp_network.hpp"

namespace neurfill {

/// Every fill method.
inline constexpr std::array<const char*, 5> kFillMethods = {"lin", "tao",
                                                            "cai", "pkb", "mm"};

bool is_fill_method(const std::string& method);
/// pkb and mm: the methods that solve through the CMP neural network, and
/// so the only ones that need a surrogate.
bool is_model_based(const std::string& method);

/// Extracts `layout`'s windows, builds the simulator on the extraction's
/// window (`process.window_um` is replaced by `extract.window_um`) and
/// derives the Table-II coefficients (one simulation).
FillProblem make_fill_problem(const Layout& layout,
                              const ExtractOptions& extract,
                              const CmpProcessParams& process);

struct FillRequest {
  std::string method = "pkb";  ///< one of kFillMethods
  /// pkb/mm options.  `neurfill.deadline` bounds every method.
  NeurFillOptions neurfill;
  TaoOptions tao;
  CaiOptions cai;
  /// The CMP surrogate; read by pkb and mm only, which require it.
  std::shared_ptr<const CmpSurrogate> surrogate;
};

/// Solves `problem` with `request.method`.  lin, tao and cai run directly;
/// pkb and mm build the CmpNetwork on `request.surrogate`, anchor it with
/// calibrate_network (two simulations) and run neurfill_pkb/neurfill_mm.
/// Throws ErrorException(kInvalidArgument) for an unknown method or a
/// pkb/mm request without a surrogate.
FillRunResult run_fill(const FillProblem& problem, const FillRequest& request);

}  // namespace neurfill
