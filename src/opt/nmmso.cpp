#include "opt/nmmso.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "obs/trace.hpp"

namespace neurfill {

Nmmso::Nmmso(ObjectiveFn f, Box box, const NmmsoOptions& options)
    : f_(std::move(f)), box_(std::move(box)), opt_(options), rng_(options.seed) {
  if (box_.lo.empty() || box_.lo.size() != box_.hi.size())
    throw std::invalid_argument("Nmmso: bad box");
  for (std::size_t i = 0; i < box_.lo.size(); ++i)
    if (box_.hi[i] < box_.lo[i])
      throw std::invalid_argument("Nmmso: empty box");
}

double Nmmso::evaluate(const VecD& x) {
  ++evaluations_;
  NF_COUNTER_ADD("opt.nmmso_evaluations", 1);
  return sanitize_value(f_(x, nullptr));
}

double Nmmso::sanitize_value(double v) {
  if (NF_FAULT("nmmso.poison")) v = std::numeric_limits<double>::quiet_NaN();
  if (!std::isfinite(v)) [[unlikely]] {
    // Poisoned member: map to -inf so it can never become a pbest/gbest
    // (and a poisoned spawn is discarded in apply_move) — the rest of the
    // search proceeds untouched.
    ++poisoned_drops_;
    NF_COUNTER_ADD("opt.nmmso_poison_drops", 1);
    return -std::numeric_limits<double>::infinity();
  }
  return v;
}

VecD Nmmso::random_point() {
  VecD x(box_.lo.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = rng_.uniform(box_.lo[i], box_.hi[i]);
  return x;
}

double Nmmso::normalized_distance(const VecD& a, const VecD& b) const {
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double range = std::max(box_.hi[i] - box_.lo[i], 1e-300);
    const double d = (a[i] - b[i]) / range;
    d2 += d * d;
  }
  return std::sqrt(d2 / static_cast<double>(a.size()));
}

Nmmso::Swarm Nmmso::make_swarm(VecD x, double val) {
  Swarm s;
  Particle p;
  p.x = x;
  p.v.assign(x.size(), 0.0);
  p.pbest_x = x;
  p.pbest_val = val;
  s.particles.push_back(std::move(p));
  s.gbest_x = std::move(x);
  s.gbest_val = val;
  s.just_changed = true;
  return s;
}

void Nmmso::try_merges() {
  // For every flagged swarm find its nearest neighbour; merge if the gbests
  // are within the merge distance, or if the midpoint between them is at
  // least as fit as the worse gbest (no valley: same peak region).
  bool merged_any = true;
  while (merged_any && swarms_.size() > 1) {
    merged_any = false;
    for (std::size_t i = 0; i < swarms_.size() && !merged_any; ++i) {
      if (!swarms_[i].just_changed) continue;
      swarms_[i].just_changed = false;
      double best_d = std::numeric_limits<double>::infinity();
      std::size_t nearest = i;
      for (std::size_t j = 0; j < swarms_.size(); ++j) {
        if (j == i) continue;
        const double d =
            normalized_distance(swarms_[i].gbest_x, swarms_[j].gbest_x);
        if (d < best_d) {
          best_d = d;
          nearest = j;
        }
      }
      if (nearest == i) continue;
      bool do_merge = best_d < opt_.merge_distance;
      if (!do_merge && evaluations_ < opt_.max_evaluations) {
        VecD mid(box_.lo.size());
        for (std::size_t k = 0; k < mid.size(); ++k)
          mid[k] = 0.5 * (swarms_[i].gbest_x[k] + swarms_[nearest].gbest_x[k]);
        const double mid_val = evaluate(mid);
        const double worse =
            std::min(swarms_[i].gbest_val, swarms_[nearest].gbest_val);
        do_merge = mid_val >= worse;
      }
      if (do_merge) {
        Swarm& keep = swarms_[i].gbest_val >= swarms_[nearest].gbest_val
                          ? swarms_[i]
                          : swarms_[nearest];
        Swarm& drop = swarms_[i].gbest_val >= swarms_[nearest].gbest_val
                          ? swarms_[nearest]
                          : swarms_[i];
        for (auto& p : drop.particles) keep.particles.push_back(std::move(p));
        // Keep the fittest particles up to the cap.
        std::sort(keep.particles.begin(), keep.particles.end(),
                  [](const Particle& a, const Particle& b) {
                    return a.pbest_val > b.pbest_val;
                  });
        if (static_cast<int>(keep.particles.size()) > opt_.swarm_size)
          keep.particles.resize(static_cast<std::size_t>(opt_.swarm_size));
        keep.just_changed = true;
        const std::size_t drop_idx =
            static_cast<std::size_t>(&drop - swarms_.data());
        swarms_.erase(swarms_.begin() + static_cast<std::ptrdiff_t>(drop_idx));
        merged_any = true;
      }
    }
  }
}

Nmmso::PlannedMove Nmmso::plan_evolution(std::size_t swarm_index) {
  const Swarm& swarm = swarms_[swarm_index];
  const std::size_t dims = box_.lo.size();
  PlannedMove move;
  move.swarm = swarm_index;
  if (static_cast<int>(swarm.particles.size()) < opt_.swarm_size) {
    // Below the cap: sample a new particle around the gbest, within half the
    // normalized distance to the nearest other swarm (Fieldsend's
    // initialization sphere), so the swarm stays inside its niche.
    move.spawn = true;
    double radius = 0.1;
    for (const Swarm& other : swarms_) {
      if (&other == &swarm) continue;
      radius = std::min(
          radius, 0.5 * normalized_distance(swarm.gbest_x, other.gbest_x));
    }
    move.x.resize(dims);
    for (std::size_t i = 0; i < dims; ++i) {
      const double range = box_.hi[i] - box_.lo[i];
      move.x[i] =
          std::clamp(swarm.gbest_x[i] + rng_.normal(0.0, radius) * range,
                     box_.lo[i], box_.hi[i]);
    }
    return move;
  }
  // At the cap: PSO velocity update of a random particle.
  move.particle = static_cast<std::size_t>(
      rng_.uniform_index(swarm.particles.size()));
  const Particle& p = swarm.particles[move.particle];
  move.v.resize(dims);
  move.x.resize(dims);
  for (std::size_t i = 0; i < dims; ++i) {
    move.v[i] = opt_.inertia * p.v[i] +
                opt_.cognitive * rng_.uniform() * (p.pbest_x[i] - p.x[i]) +
                opt_.social * rng_.uniform() * (swarm.gbest_x[i] - p.x[i]);
    move.x[i] = std::clamp(p.x[i] + move.v[i], box_.lo[i], box_.hi[i]);
  }
  return move;
}

void Nmmso::evaluate_moves(std::vector<PlannedMove>& moves) {
  NF_TRACE_SPAN("opt.nmmso_batch");
  for (PlannedMove& m : moves) m.value = evaluate(m.x);
}

void Nmmso::apply_move(const PlannedMove& move) {
  Swarm& swarm = swarms_[move.swarm];
  const std::size_t dims = box_.lo.size();
  const double val = move.value;
  if (move.spawn) {
    // A poisoned spawn is dropped outright: admitting a -inf member would
    // only pad the swarm toward its cap with dead weight.
    if (val == -std::numeric_limits<double>::infinity()) return;
    Particle p;
    p.x = move.x;
    p.v.assign(dims, 0.0);
    p.pbest_x = move.x;
    p.pbest_val = val;
    if (val > swarm.gbest_val) {
      swarm.gbest_val = val;
      swarm.gbest_x = move.x;
      swarm.just_changed = true;
    }
    swarm.particles.push_back(std::move(p));
    return;
  }
  Particle& p = swarm.particles[move.particle];
  const VecD old_x = p.x;
  p.v = move.v;
  p.x = move.x;
  if (val > p.pbest_val) {
    p.pbest_val = val;
    p.pbest_x = p.x;
  }
  if (val > swarm.gbest_val) {
    // Hive-off test: if there is a valley between the improved particle and
    // the previous gbest, the particle has found a *different* peak and
    // seeds a new swarm; otherwise it becomes the new gbest.
    bool hive = false;
    if (evaluations_ < opt_.max_evaluations &&
        normalized_distance(p.x, swarm.gbest_x) > opt_.merge_distance) {
      VecD mid(dims);
      for (std::size_t i = 0; i < dims; ++i)
        mid[i] = 0.5 * (p.x[i] + swarm.gbest_x[i]);
      const double mid_val = evaluate(mid);
      hive = mid_val < std::min(val, swarm.gbest_val);
    }
    if (hive) {
      Swarm fresh = make_swarm(p.x, val);
      p.x = old_x;  // the particle stays home; the new peak gets the swarm
      swarms_.push_back(std::move(fresh));
    } else {
      swarm.gbest_val = val;
      swarm.gbest_x = p.x;
      swarm.just_changed = true;
    }
  }
}

std::vector<Mode> Nmmso::run() {
  NF_TRACE_SPAN("opt.nmmso");
  swarms_.clear();
  evaluations_ = 0;
  timed_out_ = false;
  // A deadline raised from inside the objective (reference-simulator runs)
  // lands between state mutations, so the swarms remain a consistent
  // best-so-far set to report from.
  try {
  {
    VecD x = random_point();
    const double v = evaluate(x);
    swarms_.push_back(make_swarm(std::move(x), v));
  }
  while (evaluations_ < opt_.max_evaluations) {
    if (opt_.interrupt && opt_.interrupt->load(std::memory_order_relaxed))
      throw ErrorException(Error(ErrorCode::kInterrupted, "opt.nmmso",
                                 "interrupt acknowledged between iterations"));
    if (opt_.deadline.expired()) {
      timed_out_ = true;
      break;
    }
    try_merges();
    // Evolve a random subset of swarms, always including the fittest.
    std::vector<std::size_t> order(swarms_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::size_t best = 0;
    for (std::size_t i = 1; i < swarms_.size(); ++i)
      if (swarms_[i].gbest_val > swarms_[best].gbest_val) best = i;
    rng_.shuffle(order);
    std::vector<std::size_t> chosen{best};
    for (const std::size_t i : order) {
      if (static_cast<int>(chosen.size()) >= opt_.max_evolutions) break;
      if (i != best) chosen.push_back(i);
    }
    // Plan one move per chosen swarm (all RNG draws), evaluate them all,
    // then apply in planning order.  Indices stay valid: apply_move() only
    // appends swarms and particles.  Each planned move reserves one primary
    // evaluation so the moves never overrun the budget.
    std::vector<PlannedMove> moves;
    moves.reserve(chosen.size());
    for (const std::size_t i : chosen) {
      if (evaluations_ + static_cast<int>(moves.size()) >=
          opt_.max_evaluations)
        break;
      moves.push_back(plan_evolution(i));
    }
    evaluate_moves(moves);
    for (const PlannedMove& m : moves) apply_move(m);
    if (rng_.bernoulli(opt_.immigrant_prob) &&
        evaluations_ < opt_.max_evaluations) {
      VecD x = random_point();
      const double v = evaluate(x);
      swarms_.push_back(make_swarm(std::move(x), v));
    }
  }
  } catch (const ErrorException& e) {
    if (e.err.code != ErrorCode::kDeadlineExceeded) throw;
    timed_out_ = true;
  }
  std::vector<Mode> modes;
  modes.reserve(swarms_.size());
  for (const Swarm& s : swarms_) modes.push_back({s.gbest_x, s.gbest_val});
  std::sort(modes.begin(), modes.end(),
            [](const Mode& a, const Mode& b) { return a.value > b.value; });
  return modes;
}

}  // namespace neurfill
