#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/deadline.hpp"
#include "common/rng.hpp"
#include "opt/objective.hpp"

namespace neurfill {

/// One located peak region of the objective.
struct Mode {
  VecD x;
  double value = 0.0;  ///< objective value (maximization)
};

struct NmmsoOptions {
  int max_evaluations = 4000;
  int swarm_size = 10;          ///< particle cap per swarm
  int max_evolutions = 8;       ///< swarms advanced per iteration
  double merge_distance = 0.05; ///< normalized gbest distance triggering merge checks
  double immigrant_prob = 0.1;  ///< chance of seeding a fresh random swarm
  double inertia = 0.5;         ///< PSO w
  double cognitive = 1.5;       ///< PSO c1
  double social = 1.5;          ///< PSO c2
  std::uint64_t seed = 1;
  /// Expiry stops the search and returns the modes found so far (checked
  /// between iterations, where the swarm state is consistent).
  Deadline deadline;
  /// Operator interrupt (borrowed, e.g. from a SIGINT handler).  Checked
  /// between iterations; when set, run() throws ErrorException(kInterrupted)
  /// — partial multi-modal state is not checkpointable, so the caller
  /// restarts the (deterministic) search on resume.
  const std::atomic<bool>* interrupt = nullptr;
};

/// Niching Migratory Multi-Swarm Optimiser [Fieldsend, CEC 2014], the
/// multi-modal starting-points search of NeurFill (Section IV-D).  The
/// optimizer *maximizes* f over the box and returns one mode per surviving
/// swarm: the potential peak regions of the quality score, each of which the
/// MSP-SQP framework then refines.
///
/// Faithful to the reference algorithm in its essential mechanics: swarms
/// are seeded from a single random particle; swarms whose gbests are close
/// or fail the midpoint valley test merge; swarms evolve by PSO velocity
/// updates (new particles are sampled inside the nearest-swarm half-radius
/// while a swarm is below its particle cap); improved particles that are
/// separated from their gbest by a valley hive off into new swarms; random
/// immigrants keep exploring.
class Nmmso {
 public:
  /// `f` is evaluated without gradients (multi-modal search is derivative
  /// free); pass nullptr-tolerant objectives.
  Nmmso(ObjectiveFn f, Box box, const NmmsoOptions& options = NmmsoOptions());

  /// Runs until the evaluation budget is exhausted; returns the located
  /// modes sorted best first.
  std::vector<Mode> run();

  int evaluations_used() const { return evaluations_; }

  /// True when the last run() stopped on an expired deadline; the returned
  /// modes are the honest best-so-far.
  bool timed_out() const { return timed_out_; }

  /// Poisoned (non-finite) evaluations observed and dropped: the poisoned
  /// member is discarded (spawn) or barred from pbest/gbest (PSO move)
  /// instead of failing the search (docs/robustness.md).
  long poisoned_drops() const { return poisoned_drops_; }

 private:
  struct Particle {
    VecD x, v;
    VecD pbest_x;
    double pbest_val = 0.0;
  };
  struct Swarm {
    std::vector<Particle> particles;
    VecD gbest_x;
    double gbest_val = 0.0;
    bool just_changed = true;  ///< flags merge re-checks
  };

  /// One planned swarm advance: every random draw is made at planning time,
  /// every planned move of an iteration is evaluated before any is applied
  /// (so no move sees another's effect), and the state changes are applied
  /// afterwards in planning order.  Swarm/particle indices stay valid
  /// between phases because each iteration plans at most one move per
  /// (distinct) swarm and merges only happen between iterations.
  struct PlannedMove {
    std::size_t swarm = 0;
    bool spawn = false;        ///< below-cap spawn vs. PSO update
    std::size_t particle = 0;  ///< PSO only: index of the moved particle
    VecD x;                    ///< new position = the evaluation point
    VecD v;                    ///< PSO only: updated velocity
    double value = 0.0;        ///< filled by evaluate_moves()
  };

  double evaluate(const VecD& x);
  double sanitize_value(double v);
  VecD random_point();
  double normalized_distance(const VecD& a, const VecD& b) const;
  void try_merges();
  PlannedMove plan_evolution(std::size_t swarm_index);
  void evaluate_moves(std::vector<PlannedMove>& moves);
  void apply_move(const PlannedMove& move);
  Swarm make_swarm(VecD x, double val);

  ObjectiveFn f_;
  Box box_;
  NmmsoOptions opt_;
  Rng rng_;
  std::vector<Swarm> swarms_;
  int evaluations_ = 0;
  bool timed_out_ = false;
  long poisoned_drops_ = 0;
};

}  // namespace neurfill
