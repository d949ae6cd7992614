// Tests for the optimization substrate: box-QP, L-BFGS Hessian, SQP, MSP.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "opt/box_qp.hpp"
#include "opt/sqp.hpp"

namespace neurfill {
namespace {

Box make_box(std::size_t n, double lo, double hi) {
  Box b;
  b.lo.assign(n, lo);
  b.hi.assign(n, hi);
  return b;
}

TEST(BoxQp, UnconstrainedQuadratic) {
  // q(d) = 0.5*(d-c)'D(d-c) with diagonal D -> min at d = c when inside box.
  const VecD c{1.0, -2.0, 0.5};
  const VecD D{2.0, 1.0, 4.0};
  VecD g(3);
  for (int i = 0; i < 3; ++i) g[static_cast<std::size_t>(i)] =
      -D[static_cast<std::size_t>(i)] * c[static_cast<std::size_t>(i)];
  const HessVec B = [&D](const VecD& v, VecD& out) {
    out.resize(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) out[i] = D[i] * v[i];
  };
  const BoxQpResult r = solve_box_qp(B, g, make_box(3, -10.0, 10.0));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(r.d[i], c[i], 1e-6);
}

TEST(BoxQp, ActiveBoundIsRespected) {
  // Minimum at c = (3, -3) but box is [-1, 1]^2: solution clamps to (1, -1)
  // for a diagonal Hessian.
  const VecD g{-3.0, 3.0};
  const HessVec B = [](const VecD& v, VecD& out) { out = v; };
  const BoxQpResult r = solve_box_qp(B, g, make_box(2, -1.0, 1.0));
  EXPECT_NEAR(r.d[0], 1.0, 1e-8);
  EXPECT_NEAR(r.d[1], -1.0, 1e-8);
}

TEST(BoxQp, CoupledHessian) {
  // B = [[2,1],[1,2]], g = [-3,-3]: unconstrained solution d = (1,1).
  const HessVec B = [](const VecD& v, VecD& out) {
    out.resize(2);
    out[0] = 2.0 * v[0] + v[1];
    out[1] = v[0] + 2.0 * v[1];
  };
  const BoxQpResult r = solve_box_qp(B, VecD{-3.0, -3.0},
                                     make_box(2, -5.0, 5.0));
  EXPECT_NEAR(r.d[0], 1.0, 1e-6);
  EXPECT_NEAR(r.d[1], 1.0, 1e-6);
  // Partially active: box [0, 0.5] x [0, 5] forces d0 = 0.5; then
  // d1 = (3 - 0.5) / 2 = 1.25.
  Box tight;
  tight.lo = {0.0, 0.0};
  tight.hi = {0.5, 5.0};
  const BoxQpResult r2 = solve_box_qp(B, VecD{-3.0, -3.0}, tight);
  EXPECT_NEAR(r2.d[0], 0.5, 1e-6);
  EXPECT_NEAR(r2.d[1], 1.25, 1e-6);
}

TEST(BoxQp, LargerRandomProblemKktHolds) {
  Rng rng(3);
  const std::size_t n = 40;
  // SPD tridiagonal-ish Hessian.
  const HessVec B = [n](const VecD& v, VecD& out) {
    out.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] += 3.0 * v[i];
      if (i > 0) out[i] += -1.0 * v[i - 1];
      if (i + 1 < n) out[i] += -1.0 * v[i + 1];
    }
  };
  VecD g(n);
  for (auto& v : g) v = rng.uniform(-2.0, 2.0);
  const Box box = make_box(n, -0.3, 0.3);
  const BoxQpResult r = solve_box_qp(B, g, box);
  // KKT: projected gradient ~ 0.
  VecD Bd(n);
  B(r.d, Bd);
  for (std::size_t i = 0; i < n; ++i) {
    double pg = Bd[i] + g[i];
    if (r.d[i] <= box.lo[i] + 1e-10 && pg > 0.0) pg = 0.0;
    if (r.d[i] >= box.hi[i] - 1e-10 && pg < 0.0) pg = 0.0;
    EXPECT_NEAR(pg, 0.0, 1e-5) << "KKT violated at " << i;
  }
}

/// Records every vector B is applied to.
struct CountingHessVec {
  HessVec inner;
  std::vector<VecD> inputs;
  HessVec fn() {
    return [this](const VecD& v, VecD& out) {
      inputs.push_back(v);
      inner(v, out);
    };
  }
};

TEST(BoxQp, OneRoundCostsThreeProducts) {
  // B = I with the minimizer inside the box: one round, whose Cauchy step
  // lands on d = -g.  Products: B*0 at the round top, B*pg for the Cauchy
  // step length, B*trial in the backtrack.  CG has nothing to do, so the
  // second round's B*d and the final q(d) reuse B*trial.  (Recomputing q0,
  // the CG residual, that round top and the final q(d) made it 7.)
  CountingHessVec B{[](const VecD& v, VecD& out) { out = v; }, {}};
  const VecD g{0.5, -0.25, 1.0};
  const BoxQpResult r = solve_box_qp(B.fn(), g, make_box(3, -10.0, 10.0));
  EXPECT_EQ(r.outer_iterations, 2);
  EXPECT_EQ(B.inputs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(r.d[i], -g[i]);
  EXPECT_EQ(r.objective, 0.5 * (0.25 + 0.0625 + 1.0) - (0.25 + 0.0625 + 1.0));
}

TEST(BoxQp, NeverMultipliesOneVectorTwice) {
  // Random SPD problems with active bounds take several rounds; in all of
  // them every Hessian product is of a new vector (B*d at a round top is
  // the Cauchy backtrack's product unless CG moved d).
  int most_rounds = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const std::size_t n = 6 + static_cast<std::size_t>(rng.uniform_index(20));
    std::vector<double> M(n * n), A(n * n, 0.0);
    for (auto& v : M) v = rng.uniform(-1, 1);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t k = 0; k < n; ++k)
          A[i * n + j] += M[k * n + i] * M[k * n + j];
        if (i == j) A[i * n + j] += 0.5;
      }
    CountingHessVec B{[&A, n](const VecD& v, VecD& out) {
                        out.assign(n, 0.0);
                        for (std::size_t i = 0; i < n; ++i)
                          for (std::size_t j = 0; j < n; ++j)
                            out[i] += A[i * n + j] * v[j];
                      },
                      {}};
    VecD g(n);
    for (auto& v : g) v = rng.uniform(-3, 3);
    const BoxQpResult r = solve_box_qp(B.fn(), g, make_box(n, -0.3, 0.3));
    most_rounds = std::max(most_rounds, r.outer_iterations);
    for (std::size_t a = 0; a < B.inputs.size(); ++a)
      for (std::size_t b = a + 1; b < B.inputs.size(); ++b)
        ASSERT_NE(B.inputs[a], B.inputs[b])
            << "seed " << seed << ": products " << a << " and " << b;
  }
  EXPECT_GE(most_rounds, 3);
}

TEST(LbfgsHessian, SecantConditionHolds) {
  // After update(s, y), BFGS guarantees B s = y.
  LbfgsHessian h(5);
  const VecD s{1.0, 2.0, -1.0};
  const VecD y{2.0, 1.0, 0.5};
  h.update(s, y);
  VecD Bs;
  h.apply(s, Bs);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(Bs[i], y[i], 1e-10);
}

TEST(LbfgsHessian, StaysPositiveDefinite) {
  Rng rng(5);
  LbfgsHessian h(6);
  for (int k = 0; k < 20; ++k) {
    VecD s(4), y(4);
    for (auto& v : s) v = rng.uniform(-1, 1);
    for (auto& v : y) v = rng.uniform(-1, 1);  // may violate curvature
    h.update(s, y);
    VecD v(4), Bv;
    for (auto& x : v) x = rng.uniform(-1, 1);
    h.apply(v, Bv);
    double vBv = 0.0;
    for (std::size_t i = 0; i < 4; ++i) vBv += v[i] * Bv[i];
    EXPECT_GT(vBv, 0.0) << "after update " << k;
  }
}

/// The L-BFGS Hessian one dot at a time: the damped terms rebuilt from
/// the raw (s, y) history as LbfgsHessian documents, each product's dots
/// run as separate serial chains and the terms added to every element in
/// order.  LbfgsHessian::apply steps all chains side by side and must give
/// the same bits.  This TU builds with the opt TUs' flags, contraction off.
struct SerialLbfgs {
  struct Term {
    VecD y, Bs;
    double sy, sBs;
  };
  double sigma;
  std::vector<Term> terms;
  int damped = 0;

  static double dot(const VecD& a, const VecD& b) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
  }

  SerialLbfgs(double sigma_in, const std::vector<std::pair<VecD, VecD>>& raw)
      : sigma(sigma_in) {
    for (const auto& [s, y_raw] : raw) {
      const VecD Bs = apply(s);
      const double sBs = dot(s, Bs);
      if (sBs <= 1e-300) continue;
      double sy = dot(s, y_raw);
      VecD y = y_raw;
      if (sy < 0.2 * sBs) {
        const double theta = 0.8 * sBs / (sBs - sy);
        for (std::size_t i = 0; i < y.size(); ++i)
          y[i] = theta * y_raw[i] + (1.0 - theta) * Bs[i];
        sy = dot(s, y);
        ++damped;
      }
      terms.push_back({y, Bs, sy, sBs});
    }
  }

  VecD apply(const VecD& v) const {
    VecD out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) out[i] = sigma * v[i];
    for (const Term& t : terms) {
      const double yv = dot(t.y, v) / t.sy;
      const double bv = dot(t.Bs, v) / t.sBs;
      for (std::size_t i = 0; i < v.size(); ++i)
        out[i] += t.y[i] * yv - t.Bs[i] * bv;
    }
    return out;
  }
};

bool same_bits(const VecD& a, const VecD& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           std::uint64_t ux = 0, uy = 0;
           std::memcpy(&ux, &x, sizeof x);
           std::memcpy(&uy, &y, sizeof y);
           return ux == uy;
         });
}

TEST(LbfgsHessian, ApplyMatchesSerialReferenceBitwise) {
  // 0..10 updates into an 8-pair memory (so 0..8 pairs, with evictions),
  // odd and even n, pairs with poor or negative curvature that Powell
  // damping blends, and a Hessian rebuilt from its exported state.
  Rng rng(20261019);
  int damped = 0;
  for (const std::size_t n : {1u, 2u, 7u, 64u, 257u, 1000u})
    for (int updates = 0; updates <= 10; ++updates) {
      LbfgsHessian h(8);
      for (int k = 0; k < updates; ++k) {
        VecD s(n), y(n);
        const double curvature = rng.uniform(-1.0, 3.0);
        for (std::size_t i = 0; i < n; ++i) {
          s[i] = rng.uniform(-1.0, 1.0);
          y[i] = curvature * s[i] + 0.3 * rng.uniform(-1.0, 1.0);
        }
        h.update(s, y);
      }
      double sigma = 0.0;
      std::vector<std::pair<VecD, VecD>> pairs;
      h.export_state(&sigma, &pairs);
      ASSERT_EQ(pairs.size(), std::min<std::size_t>(updates, 8));
      const SerialLbfgs ref(sigma, pairs);
      damped += ref.damped;
      LbfgsHessian restored(8);
      restored.restore_state(sigma, pairs);
      for (int trial = 0; trial < 3; ++trial) {
        VecD v(n);
        for (auto& x : v) x = rng.uniform(-2.0, 2.0);
        const VecD want = ref.apply(v);
        VecD got, got_restored;
        h.apply(v, got);
        restored.apply(v, got_restored);
        ASSERT_TRUE(same_bits(got, want))
            << "n=" << n << " updates=" << updates << " trial=" << trial;
        ASSERT_TRUE(same_bits(got_restored, want))
            << "restored n=" << n << " updates=" << updates;
      }
    }
  EXPECT_GT(damped, 0);
}

TEST(Sqp, ConvexQuadraticConverges) {
  const ObjectiveFn f = [](const VecD& x, VecD* grad) {
    double v = 0.0;
    if (grad) grad->assign(x.size(), 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double c = static_cast<double>(i) - 1.0;
      v += (x[i] - c) * (x[i] - c);
      if (grad) (*grad)[i] = 2.0 * (x[i] - c);
    }
    return v;
  };
  const SqpResult r =
      sqp_minimize(f, VecD{5.0, 5.0, 5.0}, make_box(3, -10.0, 10.0));
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], -1.0, 1e-4);
  EXPECT_NEAR(r.x[1], 0.0, 1e-4);
  EXPECT_NEAR(r.x[2], 1.0, 1e-4);
}

TEST(Sqp, AcceptedFirstTrialCostsOneEvaluation) {
  // f = 0.5 * sum a_i (x_i - c_i)^2 with curvatures a_i in [0.5, 1], none
  // above the initial model Hessian I: the Armijo search accepts alpha = 1
  // at every iteration (no value-only call shows it), so each iteration
  // evaluates its trial once, with the gradient — one evaluation per
  // iteration plus the start's.
  const VecD a{1.0, 0.8, 0.65, 0.5, 0.9, 0.55};
  int value_only = 0;
  const ObjectiveFn f = [&](const VecD& x, VecD* grad) {
    double v = 0.0;
    if (grad) grad->assign(x.size(), 0.0);
    else ++value_only;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double e = x[i] - 0.1 * static_cast<double>(i);
      v += 0.5 * a[i] * e * e;
      if (grad) (*grad)[i] = a[i] * e;
    }
    return v;
  };
  SqpOptions opt;
  opt.max_iterations = 5;
  const VecD x0(a.size(), 4.0);
  const Box box = make_box(a.size(), -10.0, 10.0);
  const SqpResult r = sqp_minimize(f, x0, box, opt);
  EXPECT_EQ(r.iterations, 5);
  EXPECT_FALSE(r.converged);  // the cap, not convergence, ended the run
  EXPECT_EQ(r.function_evaluations, r.iterations + 1);
  EXPECT_EQ(value_only, 0);  // no trial was rejected, none re-evaluated

  // Value-first trials re-evaluate every accepted step for its gradient:
  // twice the evaluations, the same iterates bit for bit.
  opt.gradient_at_first_trial = false;
  const SqpResult twice = sqp_minimize(f, x0, box, opt);
  EXPECT_EQ(twice.function_evaluations, 2 * twice.iterations + 1);
  EXPECT_EQ(twice.x, r.x);
  EXPECT_EQ(twice.f, r.f);
}

TEST(Sqp, RosenbrockWithinBox) {
  const ObjectiveFn f = [](const VecD& x, VecD* grad) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    if (grad) {
      (*grad).assign(2, 0.0);
      (*grad)[0] = -2.0 * a - 400.0 * x[0] * b;
      (*grad)[1] = 200.0 * b;
    }
    return a * a + 100.0 * b * b;
  };
  SqpOptions opt;
  opt.max_iterations = 300;
  const SqpResult r = sqp_minimize(f, VecD{-1.2, 1.0},
                                   make_box(2, -2.0, 2.0), opt);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(Sqp, BindingBoundSolution) {
  // min (x+2)^2 with x in [0, 1]: solution is at the lower bound 0.
  const ObjectiveFn f = [](const VecD& x, VecD* grad) {
    if (grad) (*grad) = {2.0 * (x[0] + 2.0)};
    return (x[0] + 2.0) * (x[0] + 2.0);
  };
  const SqpResult r = sqp_minimize(f, VecD{0.7}, make_box(1, 0.0, 1.0));
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.0, 1e-8);
}

TEST(Sqp, StartOutsideBoxIsClamped) {
  const ObjectiveFn f = [](const VecD& x, VecD* grad) {
    if (grad) (*grad) = {2.0 * x[0]};
    return x[0] * x[0];
  };
  const SqpResult r = sqp_minimize(f, VecD{99.0}, make_box(1, -1.0, 1.0));
  EXPECT_NEAR(r.x[0], 0.0, 1e-6);
}

TEST(Sqp, HonorsIterationBudget) {
  const ObjectiveFn f = [](const VecD& x, VecD* grad) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    if (grad) {
      (*grad) = {-2.0 * a - 400.0 * x[0] * b, 200.0 * b};
    }
    return a * a + 100.0 * b * b;
  };
  SqpOptions opt;
  opt.max_iterations = 3;
  const SqpResult r =
      sqp_minimize(f, VecD{-1.2, 1.0}, make_box(2, -2.0, 2.0), opt);
  EXPECT_LE(r.iterations, 3);
}

TEST(MspSqp, PicksBestBasinOfMultimodal) {
  // f(x) = (x^2 - 1)^2 + 0.1*x has minima near -1 (lower) and +1.
  const ObjectiveFn f = [](const VecD& x, VecD* grad) {
    const double v = x[0] * x[0] - 1.0;
    if (grad) (*grad) = {4.0 * x[0] * v + 0.1};
    return v * v + 0.1 * x[0];
  };
  // One SQP run per start, keeping the lowest f: the best basin is x ~ -1.
  std::vector<SqpResult> results;
  for (const VecD& x0 : {VecD{0.9}, VecD{-0.9}, VecD{1.5}})
    results.push_back(sqp_minimize(f, x0, make_box(1, -2.0, 2.0)));
  EXPECT_GT(results[0].x[0], 0.0);  // the start at 0.9 stays in its basin
  const SqpResult& best = *std::min_element(
      results.begin(), results.end(),
      [](const SqpResult& a, const SqpResult& b) { return a.f < b.f; });
  EXPECT_LT(best.x[0], 0.0);
  EXPECT_NEAR(best.x[0], -1.0, 0.05);
}

TEST(NumericalGradient, MatchesAnalytic) {
  const ObjectiveFn f = [](const VecD& x, VecD*) {
    return std::sin(x[0]) + x[1] * x[1];
  };
  const VecD x{0.3, -0.7};
  const VecD g = numerical_gradient(f, x, 1e-6);
  EXPECT_NEAR(g[0], std::cos(0.3), 1e-6);
  EXPECT_NEAR(g[1], -1.4, 1e-6);
}

}  // namespace
}  // namespace neurfill
