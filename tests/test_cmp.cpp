// Unit and property tests for the full-chip CMP simulator: pad model,
// elastic contact solver, DSH removal rates, and the time-stepped simulator.

#include <cmath>

#include <gtest/gtest.h>

#include "cmp/contact_solver.hpp"
#include "cmp/dsh_model.hpp"
#include "cmp/pad_model.hpp"
#include "cmp/simulator.hpp"
#include "common/rng.hpp"
#include "geom/designs.hpp"

namespace neurfill {
namespace {

TEST(PadModel, KernelNormalizedAndPeaked) {
  const GridD k = make_character_kernel(60.0, 100.0);
  double sum = 0.0;
  for (const double v : k) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  const std::size_t c = k.rows() / 2;
  EXPECT_GT(k(c, c), k(0, 0));
}

TEST(PadModel, LargerCharLengthWiderKernel) {
  const GridD k1 = make_character_kernel(30.0, 100.0);
  const GridD k2 = make_character_kernel(300.0, 100.0);
  EXPECT_GT(k2.rows(), k1.rows());
}

TEST(PadModel, AsperityPressureLoadBalance) {
  Rng rng(1);
  GridD z(8, 8, 0.0);
  for (auto& v : z) v = rng.uniform(0, 1000);
  const GridD p = asperity_pressure(z, 500.0, 5.0);
  double mean = 0.0;
  for (const double v : p) mean += v;
  mean /= static_cast<double>(p.size());
  EXPECT_NEAR(mean, 5.0, 1e-9);
}

TEST(PadModel, HigherRegionsCarryMorePressure) {
  GridD z(4, 4, 0.0);
  z(1, 1) = 800.0;
  const GridD p = asperity_pressure(z, 500.0, 5.0);
  for (std::size_t k = 0; k < p.size(); ++k) {
    if (k != 1 * 4 + 1) {
      EXPECT_LT(p[k], p(1, 1));
    }
  }
}

TEST(PadModel, FlatSurfaceUniformPressure) {
  GridD z(5, 5, 123.0);
  const GridD p = asperity_pressure(z, 500.0, 3.0);
  for (const double v : p) EXPECT_NEAR(v, 3.0, 1e-9);
}

TEST(ElasticContact, FlatPunchEdgeConcentration) {
  // A rigid flat punch on an elastic half-space concentrates pressure at
  // the punch edges (classic contact mechanics), with everything in contact
  // and the total load conserved.
  ElasticContactSolver solver(8, 8);
  GridD z(8, 8, 0.0);
  // A flat surface has no height range; the solve must still converge on
  // the deflection field's rounding floor.
  const Expected<GridD> solved = solver.try_solve(z, 2.0);
  ASSERT_TRUE(solved.ok()) << solved.error().to_string();
  const GridD& p = *solved;
  double total = 0.0;
  for (const double v : p) {
    EXPECT_GT(v, 0.0);  // full contact on a flat surface
    total += v;
  }
  EXPECT_NEAR(total, 2.0 * 64.0, 1e-6);
  EXPECT_GT(p(0, 0), p(3, 3));  // corners load highest
  EXPECT_GT(p(0, 3), p(3, 3));  // edges above centre
  // Four-fold symmetry.
  EXPECT_NEAR(p(0, 0), p(7, 7), 0.02 * p(0, 0));
  EXPECT_NEAR(p(2, 3), p(5, 4), 0.02 * p(2, 3));
}

TEST(ElasticContact, DeflectionLinearity) {
  ElasticContactSolver solver(8, 8);
  GridD p1(8, 8, 0.0), p2(8, 8, 0.0);
  p1(2, 2) = 1.0;
  p2(5, 6) = 2.0;
  GridD ps(8, 8, 0.0);
  ps(2, 2) = 1.0;
  ps(5, 6) = 2.0;
  const GridD u1 = solver.deflection(p1);
  const GridD u2 = solver.deflection(p2);
  const GridD us = solver.deflection(ps);
  for (std::size_t k = 0; k < us.size(); ++k)
    EXPECT_NEAR(us[k], u1[k] + u2[k], 1e-9);
}

TEST(ElasticContact, DeflectionDecaysWithDistance) {
  ElasticContactSolver solver(16, 16);
  GridD p(16, 16, 0.0);
  p(8, 8) = 1.0;
  const GridD u = solver.deflection(p);
  EXPECT_GT(u(8, 8), u(8, 12));
  EXPECT_GT(u(8, 12), u(8, 15));
  EXPECT_GT(u(8, 15), 0.0);
}

TEST(ElasticContact, HighBumpConcentratesPressure) {
  ElasticContactSolver::Options opt;
  // Stiff pad: deflection under the full load (~64 * 1.12 * 100 / E*) stays
  // below the bump height, so only the bump can be in contact.
  opt.effective_modulus = 1e5;
  ElasticContactSolver solver(8, 8, opt);
  GridD z(8, 8, 0.0);
  z(3, 3) = 100.0;
  const Expected<GridD> solved = solver.try_solve(z, 1.0);
  ASSERT_TRUE(solved.ok()) << solved.error().to_string();
  const GridD& p = *solved;
  double total = 0.0;
  for (const double v : p) total += v;
  EXPECT_GT(p(3, 3) / total, 0.5);
  // Load conserved.
  EXPECT_NEAR(total, 64.0, 1e-6);
}

TEST(ElasticContact, PressureNonNegative) {
  Rng rng(2);
  ElasticContactSolver solver(8, 8);
  GridD z(8, 8, 0.0);
  for (auto& v : z) v = rng.uniform(0, 500);
  const Expected<GridD> solved = solver.try_solve(z, 4.0);
  ASSERT_TRUE(solved.ok()) << solved.error().to_string();
  const GridD& p = *solved;
  for (const double v : p) EXPECT_GE(v, 0.0);
}

TEST(Dsh, BlanketRateAtZeroStep) {
  DshParams params;
  params.preston_k = 2.0;
  params.velocity = 3.0;
  // h = 0: pad touches everything; total removal = Preston blanket rate.
  const DshRates r = dsh_removal_rates(0.5, 0.0, 4.0, params);
  EXPECT_NEAR(r.up, 2.0 * 3.0 * 4.0, 1e-9);
  EXPECT_NEAR(r.down, r.up, 1e-9);
}

TEST(Dsh, LargeStepPolishesOnlyUp) {
  DshParams params;
  const DshRates r = dsh_removal_rates(0.5, 100.0 * params.critical_step, 4.0,
                                       params);
  EXPECT_NEAR(r.down, 0.0, 1e-9);
  // All pressure borne by the up fraction: rate = blanket / rho.
  EXPECT_NEAR(r.up, params.preston_k * 4.0 / 0.5, 1e-6);
}

TEST(Dsh, LowerDensityPolishesFaster) {
  DshParams params;
  const DshRates sparse = dsh_removal_rates(0.2, 2000.0, 4.0, params);
  const DshRates dense = dsh_removal_rates(0.8, 2000.0, 4.0, params);
  EXPECT_GT(sparse.up, dense.up);
}

TEST(Dsh, MassBalanceEqualsPreston) {
  DshParams params;
  params.preston_k = 1.7;
  params.velocity = 1.3;
  // Densities above the model's effective-contact floor (0.15); below it the
  // clamp intentionally breaks exact balance (the floor models load shared
  // with the neighbourhood).
  for (const double rho : {0.2, 0.4, 0.9}) {
    for (const double h : {0.0, 200.0, 1000.0}) {
      const DshRates r = dsh_removal_rates(rho, h, 5.0, params);
      // The DSH partition redistributes removal between up and down areas
      // but conserves the Preston blanket rate exactly.
      const double total = rho * r.up + (1.0 - rho) * r.down;
      EXPECT_NEAR(total, params.preston_k * 5.0 * params.velocity, 1e-9);
    }
  }
}

TEST(Dsh, MonotoneDecreasingStepHeightGap) {
  // rr_up >= rr_down always: steps can only shrink.
  DshParams params;
  for (const double rho : {0.05, 0.5, 0.95})
    for (const double h : {0.0, 50.0, 500.0, 5000.0}) {
      const DshRates r = dsh_removal_rates(rho, h, 3.0, params);
      EXPECT_GE(r.up, r.down - 1e-12);
    }
}

CmpProcessParams fast_params() {
  CmpProcessParams p;
  p.polish_time_s = 20.0;
  p.dt_s = 1.0;
  return p;
}

TEST(Simulator, UniformDensityGivesFlatProfile) {
  CmpSimulator sim(fast_params());
  LayerSimInput in;
  in.density = GridD(16, 16, 0.5);
  in.avg_width_um = GridD(16, 16, 20.0);
  in.perimeter_um = GridD(16, 16, 1000.0);
  in.incoming_height = GridD(16, 16, 0.0);
  const LayerSimResult r = sim.simulate_layer(in);
  double lo = r.height[0], hi = r.height[0];
  for (const double v : r.height) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_NEAR(hi - lo, 0.0, 1e-6);
}

TEST(Simulator, SparseRegionsEndLower) {
  // The planarization physics the whole paper rests on: low-density windows
  // polish faster and end lower, which is why dummies are added there.
  CmpSimulator sim(fast_params());
  GridD density(16, 16, 0.7);
  for (std::size_t i = 4; i < 12; ++i)
    for (std::size_t j = 4; j < 12; ++j) density(i, j) = 0.15;
  LayerSimInput in;
  in.density = density;
  in.avg_width_um = GridD(16, 16, 20.0);
  in.perimeter_um = GridD(16, 16, 1000.0);
  in.incoming_height = GridD(16, 16, 0.0);
  const LayerSimResult r = sim.simulate_layer(in);
  EXPECT_LT(r.height(8, 8), r.height(1, 1));
}

TEST(Simulator, FillImprovesUniformity) {
  const Layout layout = make_design('a', 16, 100.0, 3);
  const WindowExtraction ext = extract_windows(layout);
  CmpSimulator sim(fast_params());
  const auto h0 = sim.simulate_heights(ext, {});
  // Fill all slack: densities become much more uniform.
  std::vector<GridD> x;
  for (const auto& l : ext.layers) x.push_back(l.slack);
  const auto h1 = sim.simulate_heights(ext, x);
  double var0 = 0.0, var1 = 0.0;
  for (std::size_t l = 0; l < h0.size(); ++l) {
    double m0 = 0.0, m1 = 0.0;
    for (std::size_t k = 0; k < h0[l].size(); ++k) {
      m0 += h0[l][k];
      m1 += h1[l][k];
    }
    m0 /= static_cast<double>(h0[l].size());
    m1 /= static_cast<double>(h1[l].size());
    for (std::size_t k = 0; k < h0[l].size(); ++k) {
      var0 += (h0[l][k] - m0) * (h0[l][k] - m0);
      var1 += (h1[l][k] - m1) * (h1[l][k] - m1);
    }
  }
  EXPECT_LT(var1, var0);
}

TEST(Simulator, MoreFillRaisesHeight) {
  // Monotonicity: adding fill to a window raises (or keeps) its height.
  const Layout layout = make_design('b', 8, 100.0, 3);
  const WindowExtraction ext = extract_windows(layout);
  CmpSimulator sim(fast_params());
  std::vector<GridD> x0(ext.num_layers(), GridD(ext.rows, ext.cols, 0.0));
  std::vector<GridD> x1 = x0;
  // Pick a window with slack on layer 1.
  std::size_t pick = 0;
  for (std::size_t k = 0; k < ext.layers[1].slack.size(); ++k)
    if (ext.layers[1].slack[k] > 0.3) pick = k;
  x1[1][pick] = ext.layers[1].slack[pick];
  const auto h0 = sim.simulate_heights(ext, x0);
  const auto h1 = sim.simulate_heights(ext, x1);
  EXPECT_GT(h1[1][pick], h0[1][pick]);
}

TEST(Simulator, DishingGrowsWithWidth) {
  CmpSimulator sim(fast_params());
  LayerSimInput in;
  in.density = GridD(8, 8, 0.5);
  in.avg_width_um = GridD(8, 8, 10.0);
  in.perimeter_um = GridD(8, 8, 1000.0);
  in.incoming_height = GridD(8, 8, 0.0);
  in.avg_width_um(2, 2) = 80.0;
  const LayerSimResult r = sim.simulate_layer(in);
  EXPECT_GT(r.dishing(2, 2), r.dishing(0, 0));
}

TEST(Simulator, ErosionNonNegativeAndZeroSomewhere) {
  const Layout layout = make_design('c', 8, 100.0, 2);
  const WindowExtraction ext = extract_windows(layout);
  CmpSimulator sim(fast_params());
  const auto res = sim.simulate(ext, {});
  for (const auto& r : res) {
    double min_er = 1e300;
    for (const double v : r.erosion) {
      EXPECT_GE(v, -1e-9);
      min_er = std::min(min_er, v);
    }
    EXPECT_NEAR(min_er, 0.0, 1e-9);
  }
}

TEST(Simulator, ElasticModelAgreesOnDirection) {
  // Both pressure models must agree that sparse regions end lower.
  CmpProcessParams p = fast_params();
  p.pressure_model = PressureModel::kElastic;
  p.polish_time_s = 10.0;
  CmpSimulator sim(p);
  GridD density(8, 8, 0.7);
  density(4, 4) = 0.1;
  density(4, 5) = 0.1;
  LayerSimInput in;
  in.density = density;
  in.avg_width_um = GridD(8, 8, 20.0);
  in.perimeter_um = GridD(8, 8, 1000.0);
  in.incoming_height = GridD(8, 8, 0.0);
  const LayerSimResult r = sim.simulate_layer(in);
  EXPECT_LT(r.height(4, 4), r.height(0, 0));
  // The first polish step's envelope is flat; its contact solve converges
  // like every other, with no retry and no fallback.
  EXPECT_FALSE(sim.health().any_degraded());
}

TEST(Simulator, MultiLayerTopographyPropagates) {
  // A density depression on layer 0 must leave a visible imprint in layer 1
  // even when layer 1 itself is uniform.
  CmpSimulator sim(fast_params());
  const std::size_t n = 12;
  WindowExtraction ext;
  ext.window_um = 100.0;
  ext.rows = ext.cols = n;
  ext.layers.resize(2);
  for (auto& l : ext.layers) {
    l.wire_density = GridD(n, n, 0.6);
    l.dummy_density = GridD(n, n, 0.0);
    l.perimeter_um = GridD(n, n, 1000.0);
    l.avg_width_um = GridD(n, n, 20.0);
    l.slack = GridD(n, n, 0.2);
    for (auto& st : l.slack_type) st = GridD(n, n, 0.05);
    l.nonoverlap_slack = GridD(n, n, 0.3);
  }
  for (std::size_t i = 3; i < 9; ++i)
    for (std::size_t j = 3; j < 9; ++j)
      ext.layers[0].wire_density(i, j) = 0.1;
  const auto res = sim.simulate(ext, {});
  // Layer 1 is uniform; any height variation there comes from the inherited
  // topography.
  double lo = res[1].height[0], hi = res[1].height[0];
  for (const double v : res[1].height) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi - lo, 1.0);
  EXPECT_LT(res[1].height(6, 6), res[1].height(0, 0));
}

TEST(Simulator, RejectsBadInputs) {
  CmpSimulator sim(fast_params());
  LayerSimInput in;
  in.density = GridD(4, 4, 0.5);
  in.avg_width_um = GridD(3, 3, 1.0);  // mismatched
  in.perimeter_um = GridD(4, 4, 0.0);
  in.incoming_height = GridD(4, 4, 0.0);
  EXPECT_THROW(sim.simulate_layer(in), std::invalid_argument);
  CmpProcessParams bad;
  bad.polish_time_s = -1.0;
  EXPECT_THROW(CmpSimulator{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace neurfill
