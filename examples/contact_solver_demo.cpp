// Demonstrates the two pressure models of the CMP simulator (Fig. 2 step 2):
// the default Greenwood-Williamson asperity model and the high-fidelity
// Polonsky-Keer elastic contact solver, on the classic flat-punch and
// single-bump cases, then compares full polish results on a design.
//
// Usage: contact_solver_demo

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "cmp/contact_solver.hpp"
#include "cmp/pad_model.hpp"
#include "cmp/simulator.hpp"
#include "common/timer.hpp"
#include "geom/designs.hpp"

using namespace neurfill;

namespace {

/// The converged pressure field; a failed solve ends the demo.
GridD solve_contact(const ElasticContactSolver& solver, const GridD& height,
                    double nominal_pressure) {
  Expected<GridD> p = solver.try_solve(height, nominal_pressure);
  if (!p.ok()) {
    std::fprintf(stderr, "error: %s\n", p.error().to_string().c_str());
    std::exit(1);
  }
  return std::move(*p);
}

}  // namespace

int main() {
  // 1. Flat punch: the elastic solver concentrates pressure at the punch
  // edges (a contact-mechanics signature the asperity model cannot show).
  const std::size_t n = 16;
  ElasticContactSolver solver(n, n);
  GridD flat(n, n, 0.0);
  const GridD p_flat = solve_contact(solver, flat, 1.0);
  std::printf("flat punch, elastic pressure across the mid row:\n  ");
  for (std::size_t j = 0; j < n; ++j) std::printf("%5.2f ", p_flat(n / 2, j));
  std::printf("\n  (edges > centre; solved in %d CG iterations)\n\n",
              solver.last_iterations());

  // 2. Single bump: load concentrates on the protrusion.
  GridD bump(n, n, 0.0);
  bump(n / 2, n / 2) = 500.0;
  const GridD p_bump = solve_contact(solver, bump, 1.0);
  double total = 0.0, on_bump = p_bump(n / 2, n / 2);
  for (const double v : p_bump) total += v;
  std::printf("500A bump: carries %.1f%% of the total load\n",
              100.0 * on_bump / total);
  const GridD p_asp = asperity_pressure(bump, 600.0, 1.0);
  std::printf("asperity model on the same bump: %.1f%% (softer response)\n\n",
              100.0 * p_asp(n / 2, n / 2) /
                  (1.0 * static_cast<double>(n * n)));

  // 3. Full polish with either model on a real design.
  const Layout layout = make_design('a', 16, 100.0, 1);
  const WindowExtraction ext = extract_windows(layout);
  for (const auto mode : {PressureModel::kAsperity, PressureModel::kElastic}) {
    CmpProcessParams params;
    params.pressure_model = mode;
    CmpSimulator sim(params);
    Timer t;
    const auto heights = sim.simulate_heights(ext, {});
    double lo = heights[0][0], hi = heights[0][0];
    for (const auto& h : heights)
      for (const double v : h) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    std::printf("%-8s pressure model: post-CMP range %.1fA (%.2fs)\n",
                mode == PressureModel::kAsperity ? "asperity" : "elastic",
                hi - lo, t.elapsed_seconds());
  }
  std::printf(
      "\nboth models planarize, but pure elastic contact lets low regions\n"
      "separate completely (p = 0, polishing stops), leaving a larger final\n"
      "range; real pads keep asperity contact everywhere, which is why the\n"
      "Greenwood-Williamson model is the production default and the\n"
      "elastic solver the contact-mechanics reference.\n");
  return 0;
}
