#pragma once

#include <functional>

#include "opt/objective.hpp"

namespace neurfill {

/// Hessian-vector product: out = B * v (caller guarantees symmetry and
/// positive definiteness on the feasible cone).
using HessVec = std::function<void(const VecD& v, VecD& out)>;

struct BoxQpOptions {
  int max_outer = 25;        ///< active-set refresh rounds
  int max_cg = 50;           ///< CG iterations per free-subspace solve
  double tolerance = 1e-8;   ///< on the projected gradient norm
};

struct BoxQpResult {
  VecD d;            ///< the minimizer
  double objective;  ///< q(d)
  int outer_iterations = 0;
};

/// Minimizes q(d) = 0.5 d'Bd + g'd subject to lo <= d <= hi using the
/// More-Toraldo scheme: a projected-gradient (Cauchy point) phase fixes the
/// active set, then conjugate gradients minimize in the free subspace;
/// alternate until the projected gradient vanishes.  No vector is
/// multiplied by B twice: the product at the Cauchy point carries into CG's
/// residual and, when CG does not move d, into the next round.  This is the
/// QP subproblem solver of the SQP optimizer (Eq. 5d's bounds are the only
/// constraints of the filling problem).
BoxQpResult solve_box_qp(const HessVec& B, const VecD& g, const Box& box,
                         const BoxQpOptions& options = BoxQpOptions());

}  // namespace neurfill
