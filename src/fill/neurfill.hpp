#pragma once

#include <atomic>
#include <string>

#include "common/deadline.hpp"
#include "fill/baselines.hpp"
#include "fill/problem.hpp"
#include "opt/nmmso.hpp"
#include "opt/sqp.hpp"
#include "surrogate/cmp_network.hpp"

namespace neurfill {

/// Options of the NeurFill framework (Fig. 7).
struct NeurFillOptions {
  SqpOptions sqp;
  int pkb_steps = 9;      ///< linear-search samples of the PKB start
  NmmsoOptions nmmso;     ///< multi-modal search budget (MM variant)
  int mm_starts = 4;      ///< top modes refined by MSP-SQP
  /// Wall-clock budget for the whole optimization (docs/robustness.md):
  /// expiry stops the MSP drive and returns the best feasible fill with
  /// FillRunResult::timed_out set.
  Deadline deadline;
  /// When non-empty, the MSP drive state is snapshotted here (atomically,
  /// CRC-checksummed) at every completed start and every SQP iteration, so
  /// a killed run can continue with --resume.
  std::string snapshot_path;
  /// Continue from snapshot_path (missing file = fresh run; a mismatched
  /// method/dimension or corrupt snapshot throws ErrorException).  Resumed
  /// runs produce bitwise-identical fills to uninterrupted ones.
  bool resume = false;
  /// Operator interrupt (borrowed, e.g. from a SIGINT handler): a final
  /// snapshot is written (when snapshot_path is set) and
  /// ErrorException(kInterrupted) is thrown.
  const std::atomic<bool>* interrupt = nullptr;
  NeurFillOptions() {
    sqp.max_iterations = 40;
    nmmso.max_evaluations = 400;
  }
};

/// Anchors the network's relaxed planarity metrics to the true simulator on
/// two fills (zero and full slack): fits a log-space power correction
/// (exp(a) * raw^b) per metric through the two anchor points and installs
/// it on the network.  Costs exactly two simulator runs; exponents are
/// clamped to [0.1, 10] so a degenerate anchor pair (or a surrogate blind
/// to fill) cannot flip or explode the gradients.  Rationale: the
/// surrogate's height-prediction error adds a nearly fill-independent bias
/// to the quadratic sigma metric, which distorts the planarity-vs-PD trade
/// even when the gradients are sound; the anchored correction restores the
/// absolute scale while preserving monotonicity.
void calibrate_network(CmpNetwork& network, const FillProblem& problem);

/// The differentiable objective of the framework: value = -(S_plan + S_PD)
/// where S_plan and grad(S_plan) come from one forward/backward pass of the
/// CMP neural network (Eq. 11) and S_PD and grad(S_PD) are analytic
/// (Eq. 17).  `eval_counter`, when non-null, counts network evaluations.
ObjectiveFn make_network_objective(const FillProblem& problem,
                                   const CmpNetwork& network,
                                   long* eval_counter = nullptr);

/// Batched network quality S_plan + S_PD (to maximize) of B candidate
/// fills: one CmpNetwork::evaluate_batch call (one batched UNet forward per
/// layer) plus per-candidate analytic PD scores.  Each value is exactly the
/// negation of make_network_objective's at the same point, so NMMSO's move
/// batches and the PKB sweep mix it freely with scalar calls.
/// `eval_counter` advances by B per call.
std::vector<double> network_batch_quality(
    const FillProblem& problem, const CmpNetwork& network,
    const std::vector<std::vector<GridD>>& xs, long* eval_counter = nullptr);

/// NeurFill (PKB): prior-knowledge-based starting point (judged by the
/// network's quality) followed by SQP with backward-propagation gradients.
FillRunResult neurfill_pkb(const FillProblem& problem,
                           const CmpNetwork& network,
                           const NeurFillOptions& options = NeurFillOptions());

/// NeurFill (MM): NMMSO multi-modal starting-points search over the quality
/// landscape, then MSP-SQP refinement of the best modes; returns the best
/// local optimum found (Section IV-D/E).
FillRunResult neurfill_mm(const FillProblem& problem, const CmpNetwork& network,
                          const NeurFillOptions& options = NeurFillOptions());

}  // namespace neurfill
