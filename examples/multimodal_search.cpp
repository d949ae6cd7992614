// Multi-modal starting-points search (Section IV-D): reproduces the spirit
// of Fig. 6 on a layout with two fillable windows, where the quality score
// has several local optima, then shows NMMSO + MSP-SQP picking the best one.
//
// Usage: multimodal_search

#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "fill/neurfill.hpp"
#include "geom/designs.hpp"
#include "opt/nmmso.hpp"
#include "surrogate/trainer.hpp"

using namespace neurfill;

int main() {
  // A tiny layout whose extraction leaves exactly two windows with large
  // slack: the quality score over (x1, x2) is a 2-D landscape we can print.
  const Layout layout = make_design('a', 8, 100.0, /*seed=*/4);
  WindowExtraction ext = extract_windows(layout);
  CmpSimulator simulator;
  const ScoreCoefficients coeffs = make_coefficients(layout, ext, simulator);
  FillProblem problem(ext, simulator, coeffs);

  // Freeze all variables except the two with the largest slack.
  const Box full = problem.bounds();
  std::size_t v1 = 0, v2 = 1;
  for (std::size_t i = 0; i < full.hi.size(); ++i) {
    if (full.hi[i] > full.hi[v1]) {
      v2 = v1;
      v1 = i;
    } else if (i != v1 && full.hi[i] > full.hi[v2]) {
      v2 = i;
    }
  }
  std::printf("free windows: #%zu (slack %.2f) and #%zu (slack %.2f)\n", v1,
              full.hi[v1], v2, full.hi[v2]);

  const ObjectiveFn quality2d = [&](const VecD& q, VecD*) {
    VecD v(problem.num_vars(), 0.0);
    v[v1] = q[0];
    v[v2] = q[1];
    return problem.evaluate(problem.unflatten(v)).s_qual;
  };

  // Print the score topography (Fig. 6 analogue) as a coarse ASCII map.
  const int steps = 12;
  std::printf("\nquality score over (x%zu, x%zu):\n", v1, v2);
  for (int i = steps; i >= 0; --i) {
    for (int j = 0; j <= steps; ++j) {
      const VecD q{full.hi[v1] * j / steps, full.hi[v2] * i / steps};
      const double s = quality2d(q, nullptr);
      std::printf("%5.3f ", s);
    }
    std::printf("\n");
  }

  // NMMSO locates the peak regions.
  Box box2;
  box2.lo = {0.0, 0.0};
  box2.hi = {full.hi[v1], full.hi[v2]};
  NmmsoOptions nopt;
  nopt.max_evaluations = 800;
  nopt.merge_distance = 0.08;
  nopt.seed = 9;
  Nmmso nmmso(quality2d, box2, nopt);
  const std::vector<Mode> modes = nmmso.run();
  std::printf("\nNMMSO located %zu mode(s):\n", modes.size());
  for (std::size_t m = 0; m < modes.size() && m < 6; ++m)
    std::printf("  mode %zu: x=(%.3f, %.3f) quality=%.4f\n", m, modes[m].x[0],
                modes[m].x[1], modes[m].value);

  // MSP-SQP refinement from the best modes.
  const ObjectiveFn neg = [&](const VecD& q, VecD* grad) {
    const double f = -quality2d(q, nullptr);
    if (grad) *grad = numerical_gradient([&](const VecD& z, VecD*) {
      return -quality2d(z, nullptr);
    }, q, 1e-5);
    return f;
  };
  SqpResult best;
  best.f = std::numeric_limits<double>::infinity();
  for (std::size_t m = 0; m < modes.size() && m < 3; ++m) {
    SqpResult refined = sqp_minimize(neg, modes[m].x, box2);
    if (refined.f < best.f) best = std::move(refined);
  }
  std::printf("\nafter MSP-SQP refinement, best quality = %.4f at (%.3f, %.3f)\n",
              -best.f, best.x[0], best.x[1]);
  return 0;
}
