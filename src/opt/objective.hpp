#pragma once

#include <functional>
#include <vector>

namespace neurfill {

using VecD = std::vector<double>;

/// A smooth objective for *maximization* is wrapped by callers as negated
/// minimization; all solvers in this library minimize.
///
/// The function returns f(x) and, when `grad` is non-null, fills it with
/// the gradient (same size as x).  Implementations may be expensive (a CMP
/// simulation) so solvers economize on calls with gradients.
using ObjectiveFn = std::function<double(const VecD& x, VecD* grad)>;

/// Simple box constraints lo <= x <= hi (elementwise).
struct Box {
  VecD lo;
  VecD hi;

  std::size_t size() const { return lo.size(); }
  void clamp(VecD& x) const;
  bool contains(const VecD& x, double tol = 1e-12) const;
};

/// Central-difference numerical gradient: 2n extra function evaluations.
/// This is exactly what the conventional model-based flow (Cai [12]) must
/// do against a black-box CMP simulator, and what Table I's "gradient
/// calculation" row measures for the simulator column.
VecD numerical_gradient(const ObjectiveFn& f, const VecD& x,
                        double eps = 1e-6);

}  // namespace neurfill
