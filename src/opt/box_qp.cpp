#include "opt/box_qp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace neurfill {

namespace {

double dot(const VecD& a, const VecD& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// q(d) = 0.5 d'Bd + g'd from a known product Bd = B * d; both dot chains
/// step in one loop, each in index order.
double quad_value(const VecD& Bd, const VecD& g, const VecD& d) {
  double dBd = 0.0, gd = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    dBd += d[i] * Bd[i];
    gd += g[i] * d[i];
  }
  return 0.5 * dBd + gd;
}

}  // namespace

BoxQpResult solve_box_qp(const HessVec& B, const VecD& g, const Box& box,
                         const BoxQpOptions& options) {
  const std::size_t n = g.size();
  if (box.lo.size() != n || box.hi.size() != n)
    throw std::invalid_argument("solve_box_qp: box size mismatch");
  for (std::size_t i = 0; i < n; ++i)
    if (box.lo[i] > box.hi[i])
      throw std::invalid_argument("solve_box_qp: empty box");

  BoxQpResult res;
  res.d.assign(n, 0.0);
  box.clamp(res.d);

  VecD Bd(n), grad(n), Bpg(n), pg(n), trial(n), Btrial(n);
  VecD r(n), p(n), Bp(n);
  std::vector<bool> active(n, false);
  // Bd holds B * res.d while bd_known: no vector is multiplied twice.
  bool bd_known = false;

  const double gscale = std::max(1.0, std::sqrt(dot(g, g)));

  for (int outer = 0; outer < options.max_outer; ++outer) {
    res.outer_iterations = outer + 1;
    // Gradient of the quadratic at d.
    if (!bd_known) B(res.d, Bd);
    bd_known = true;
    for (std::size_t i = 0; i < n; ++i) grad[i] = Bd[i] + g[i];
    // Projected gradient: zero where the bound blocks descent.
    const double tol_b = 1e-12;
    double pgpg = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      pg[i] = grad[i];
      if (res.d[i] <= box.lo[i] + tol_b && grad[i] > 0.0) pg[i] = 0.0;
      if (res.d[i] >= box.hi[i] - tol_b && grad[i] < 0.0) pg[i] = 0.0;
      pgpg += pg[i] * pg[i];
    }
    if (std::sqrt(pgpg) < options.tolerance * gscale) break;

    // --- Cauchy phase: projected steepest-descent step with backtracking.
    B(pg, Bpg);
    const double curv = dot(pg, Bpg);
    double alpha = curv > 0.0 ? pgpg / curv : 1.0;
    const double q0 = quad_value(Bd, g, res.d);
    for (int bt = 0; bt < 20; ++bt) {
      for (std::size_t i = 0; i < n; ++i)
        trial[i] = std::clamp(res.d[i] - alpha * pg[i], box.lo[i], box.hi[i]);
      B(trial, Btrial);
      if (quad_value(Btrial, g, trial) < q0) break;
      alpha *= 0.5;
    }
    // The backtrack's last product is B times the Cauchy point.
    res.d = trial;
    std::swap(Bd, Btrial);

    // --- Active set at the Cauchy point.
    for (std::size_t i = 0; i < n; ++i)
      active[i] = (res.d[i] <= box.lo[i] + tol_b) ||
                  (res.d[i] >= box.hi[i] - tol_b);

    // --- CG in the free subspace, truncated at the box boundary.
    double rr = 0.0;
    for (std::size_t i = 0; i < n; ++i) {  // residual = -grad on free set
      r[i] = active[i] ? 0.0 : -(Bd[i] + g[i]);
      rr += r[i] * r[i];
    }
    if (rr < 1e-30) continue;
    bd_known = false;  // CG moves d
    p = r;
    for (int cg = 0; cg < options.max_cg; ++cg) {
      B(p, Bp);
      // p'Bp and the longest step before a free component hits its bound,
      // in one walk over p.  The minimum is exact, so folding rr / p'Bp in
      // after the walk selects the same value as folding it in first.
      double pBp = 0.0;
      double bound_step = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        if (active[i]) {
          Bp[i] = 0.0;
        } else if (p[i] != 0.0) {
          bound_step = std::min(bound_step,
                                p[i] > 0.0 ? (box.hi[i] - res.d[i]) / p[i]
                                           : (box.lo[i] - res.d[i]) / p[i]);
        }
        pBp += p[i] * Bp[i];
      }
      if (pBp <= 1e-30) break;  // nonconvex or flat direction: stop CG
      double step = rr / pBp;
      // Truncate the step at the first bound hit.
      const double max_step = std::min(step, bound_step);
      const bool hit_bound = max_step < step;
      step = std::max(0.0, std::min(step, max_step));
      for (std::size_t i = 0; i < n; ++i) res.d[i] += step * p[i];
      if (hit_bound) break;  // active set changed: restart outer loop
      double rr_new = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        r[i] -= step * Bp[i];
        rr_new += r[i] * r[i];
      }
      if (rr_new < options.tolerance * options.tolerance * gscale * gscale)
        break;
      const double beta = rr_new / rr;
      rr = rr_new;
      for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    }
    box.clamp(res.d);
  }
  if (!bd_known) B(res.d, Bd);
  res.objective = quad_value(Bd, g, res.d);
  return res;
}

}  // namespace neurfill
