// Tests for the NMMSO multi-modal optimizer on functions with known peaks.

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "opt/nmmso.hpp"

namespace neurfill {
namespace {

Box box1d(double lo, double hi) {
  Box b;
  b.lo = {lo};
  b.hi = {hi};
  return b;
}

/// CEC niching benchmark F1: sin^6(5 pi x) on [0, 1] has five equal maxima
/// at x = 0.1, 0.3, 0.5, 0.7, 0.9.
double equal_maxima(double x) {
  const double s = std::sin(5.0 * M_PI * x);
  return std::pow(s, 6.0);
}

TEST(Nmmso, FindsAllFiveEqualMaxima) {
  const ObjectiveFn f = [](const VecD& x, VecD*) { return equal_maxima(x[0]); };
  NmmsoOptions opt;
  opt.max_evaluations = 6000;
  opt.merge_distance = 0.04;
  opt.seed = 42;
  Nmmso solver(f, box1d(0.0, 1.0), opt);
  const std::vector<Mode> modes = solver.run();
  // Count distinct true peaks hit to within 0.03 with near-optimal value.
  const double peaks[] = {0.1, 0.3, 0.5, 0.7, 0.9};
  int found = 0;
  for (const double p : peaks) {
    for (const Mode& m : modes) {
      if (std::fabs(m.x[0] - p) < 0.03 && m.value > 0.95) {
        ++found;
        break;
      }
    }
  }
  EXPECT_GE(found, 4) << "NMMSO must locate (nearly) all equal maxima";
}

TEST(Nmmso, TwoGaussianPeaks2d) {
  // Two unequal Gaussian bumps; both must be located.
  const ObjectiveFn f = [](const VecD& x, VecD*) {
    const double d1 = (x[0] - 0.25) * (x[0] - 0.25) +
                      (x[1] - 0.25) * (x[1] - 0.25);
    const double d2 = (x[0] - 0.75) * (x[0] - 0.75) +
                      (x[1] - 0.75) * (x[1] - 0.75);
    return std::exp(-d1 / 0.005) + 0.7 * std::exp(-d2 / 0.005);
  };
  Box b;
  b.lo = {0.0, 0.0};
  b.hi = {1.0, 1.0};
  NmmsoOptions opt;
  opt.max_evaluations = 8000;
  opt.merge_distance = 0.08;
  opt.seed = 7;
  Nmmso solver(f, b, opt);
  const auto modes = solver.run();
  bool found1 = false, found2 = false;
  for (const Mode& m : modes) {
    if (std::hypot(m.x[0] - 0.25, m.x[1] - 0.25) < 0.08 && m.value > 0.8)
      found1 = true;
    if (std::hypot(m.x[0] - 0.75, m.x[1] - 0.75) < 0.08 && m.value > 0.55)
      found2 = true;
  }
  EXPECT_TRUE(found1);
  EXPECT_TRUE(found2);
  // Best mode first, and it is the taller peak.
  EXPECT_GT(modes.front().value, 0.9);
}

TEST(Nmmso, RespectsEvaluationBudget) {
  int count = 0;
  const ObjectiveFn f = [&count](const VecD& x, VecD*) {
    ++count;
    return -x[0] * x[0];
  };
  NmmsoOptions opt;
  opt.max_evaluations = 300;
  Nmmso solver(f, box1d(-1.0, 1.0), opt);
  solver.run();
  // Budget may overshoot by at most one batch of swarm evolutions.
  EXPECT_LE(count, opt.max_evaluations + opt.max_evolutions + 2);
  EXPECT_EQ(count, solver.evaluations_used());
}

TEST(Nmmso, DeterministicForSeed) {
  const ObjectiveFn f = [](const VecD& x, VecD*) { return equal_maxima(x[0]); };
  NmmsoOptions opt;
  opt.max_evaluations = 1000;
  opt.seed = 11;
  const auto m1 = Nmmso(f, box1d(0.0, 1.0), opt).run();
  const auto m2 = Nmmso(f, box1d(0.0, 1.0), opt).run();
  ASSERT_EQ(m1.size(), m2.size());
  for (std::size_t i = 0; i < m1.size(); ++i) {
    EXPECT_EQ(m1[i].value, m2[i].value);
    EXPECT_EQ(m1[i].x[0], m2[i].x[0]);
  }
}

TEST(Nmmso, EvaluationCounterCountsEveryEvaluation) {
  // opt.nmmso_evaluations counts every objective call of a run, not only
  // the planned moves: the initial point, the merge and hive-off midpoints
  // and the immigrants too, exactly what evaluations_used() reports.
  const ObjectiveFn f = [](const VecD& x, VecD*) { return equal_maxima(x[0]); };
  NmmsoOptions opt;
  opt.max_evaluations = 1000;
  opt.seed = 11;
  Nmmso solver(f, box1d(0.0, 1.0), opt);
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const obs::Counter& counted = obs::counter("opt.nmmso_evaluations");
  const std::int64_t before = counted.value();
  solver.run();
  const std::int64_t grown = counted.value() - before;
  obs::set_metrics_enabled(was_enabled);
  EXPECT_EQ(grown, solver.evaluations_used());
}

TEST(Nmmso, MergesDuplicateSwarmsOnUnimodal) {
  // On a single smooth peak the merge rules must keep the swarm count low.
  const ObjectiveFn f = [](const VecD& x, VecD*) {
    return -((x[0] - 0.4) * (x[0] - 0.4));
  };
  NmmsoOptions opt;
  opt.max_evaluations = 3000;
  opt.merge_distance = 0.05;
  opt.seed = 3;
  Nmmso solver(f, box1d(0.0, 1.0), opt);
  const auto modes = solver.run();
  EXPECT_NEAR(modes.front().x[0], 0.4, 0.02);
  // Immigrants continuously add swarms, but merging should prevent blowup.
  EXPECT_LE(modes.size(), 40u);
}

TEST(Nmmso, RejectsBadBox) {
  const ObjectiveFn f = [](const VecD&, VecD*) { return 0.0; };
  Box bad;
  bad.lo = {1.0};
  bad.hi = {0.0};
  EXPECT_THROW(Nmmso(f, bad, NmmsoOptions()), std::invalid_argument);
}

}  // namespace
}  // namespace neurfill
