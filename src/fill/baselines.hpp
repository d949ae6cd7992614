#pragma once

#include <string>

#include "fill/problem.hpp"
#include "opt/sqp.hpp"

namespace neurfill {

/// Outcome of one filling method run, with the bookkeeping Table III needs.
struct FillRunResult {
  std::string method;
  std::vector<GridD> x;
  double runtime_s = 0.0;
  int iterations = 0;
  long objective_evaluations = 0;  ///< simulator or network calls
  /// The run deadline expired before the optimization finished; x is the
  /// honest best feasible fill found so far (docs/robustness.md).
  bool timed_out = false;
  /// Numeric poison (NaN/Inf) was survived along the way — backtracked,
  /// dropped, or degraded to a fallback — so quality may be reduced.
  bool degraded = false;
  int numeric_recoveries = 0;  ///< poisoned evaluations recovered in SQP
};

/// Lin [10]-style rule-based filler: a linear search of the per-layer target
/// density picks the density assignment minimizing post-fill density
/// variance with minimum fill as tie-break, then Eq. 18 realizes it.  Pure
/// rule: no CMP simulation at all, which is why it runs in seconds and why
/// its planarity lags the model-based methods.
FillRunResult lin_rule_fill(const FillProblem& problem, int steps = 33);

/// Tao [11]-style rule-based SQP: minimizes a rule objective (density
/// variance + spatial density gradient + fill amount) with analytic
/// gradients using the same SQP engine, starting from the Lin solution.
struct TaoOptions {
  double weight_variance = 1.0;
  double weight_gradient = 0.25;
  double weight_fill = 0.02;
  SqpOptions sqp;
};
FillRunResult tao_rule_sqp(const FillProblem& problem,
                           const TaoOptions& options = TaoOptions());

/// Cai [12]-style model-based flow: PKB starting point judged by the true
/// simulator, then SQP where each gradient is obtained **numerically**
/// through the full-chip CMP simulator (one simulation per variable) — the
/// conventional expensive flow NeurFill accelerates.
struct CaiOptions {
  int pkb_steps = 5;
  SqpOptions sqp;  ///< keep max_iterations small; gradients cost n sims each
  CaiOptions() {
    sqp.max_iterations = 6;
    // A rejected first trial would cost n wasted simulations.
    sqp.gradient_at_first_trial = false;
  }
};
FillRunResult cai_model_fill(const FillProblem& problem,
                             const CaiOptions& options = CaiOptions());

}  // namespace neurfill
