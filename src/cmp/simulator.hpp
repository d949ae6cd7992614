#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/deadline.hpp"
#include "common/fft.hpp"
#include "common/grid2d.hpp"
#include "layout/window_grid.hpp"

namespace neurfill {

/// Degradation ledger of a simulator (docs/robustness.md).  Counters are
/// atomics because simulations run concurrently (training-data labelling,
/// tile solves); the ledger lives behind a shared_ptr so the copies the fill
/// problem makes of its simulator all account to one ledger — a degraded
/// solve anywhere in a run is visible from the report at the end.
struct SimulatorHealth {
  std::atomic<long> contact_retries{0};   ///< contact solves retried
  std::atomic<long> contact_degraded{0};  ///< solves that fell back (damped
                                          ///< restart / best-iterate /
                                          ///< asperity substitute)
  std::atomic<long> contact_poisoned{0};  ///< NaN-poisoned solves observed

  bool any_degraded() const {
    return contact_degraded.load(std::memory_order_relaxed) > 0;
  }
};

/// Pressure-distribution model used inside the simulator (Fig. 2 step 2).
enum class PressureModel {
  kAsperity,  ///< Greenwood-Williamson exponential asperity contact (default)
  kElastic,   ///< full Polonsky-Keer half-space contact solve (reference)
};

/// Process parameters of the full-chip CMP simulator.  Heights in Angstrom,
/// times in seconds; pressure and velocity are in consistent arbitrary units
/// absorbed by the Preston coefficient.
struct CmpProcessParams {
  double window_um = 100.0;       ///< simulation window edge
  double char_length_um = 60.0;   ///< pad character length (20-100 um)
  double nominal_pressure = 5.0;  ///< applied down-force per window
  double velocity = 1.0;          ///< relative pad velocity
  double preston_k = 8.0;         ///< Angstrom removed per unit p*v*s
  double critical_step = 400.0;   ///< DSH h_c (A)
  double trench_depth = 3000.0;   ///< post-deposition step height (A)
  double asperity_lambda = 1200.0; ///< asperity height scale (A)
  double polish_time_s = 60.0;    ///< total polish time per layer
  double dt_s = 2.0;              ///< integration step
  /// Fraction of a layer's post-CMP topography that propagates into the next
  /// layer's envelope (incoming topography).
  double topo_transfer = 0.8;
  /// Dishing: recess of the metal surface, growing with feature width.
  double dish_coeff = 120.0;      ///< A at the width saturation limit
  double dish_ref_width_um = 40.0;
  PressureModel pressure_model = PressureModel::kAsperity;
};

/// Per-layer simulator input: everything the CMP model knows about a layer.
struct LayerSimInput {
  GridD density;          ///< total pattern density incl. dummies and fill
  GridD avg_width_um;     ///< mean feature width per window
  GridD perimeter_um;     ///< wire perimeter per window
  GridD incoming_height;  ///< topography inherited from the layer below (A)
};

/// Per-layer simulator output.
struct LayerSimResult {
  GridD height;      ///< average post-CMP surface height per window (A)
  GridD dishing;     ///< metal recess per window (A)
  GridD erosion;     ///< oxide/metal loss vs. the chip's highest window (A)
  GridD final_step;  ///< residual step height (A)
};

/// Full-chip CMP simulator (Fig. 2): envelope heights -> contact pressure ->
/// DSH removal rates -> Preston-equation time stepping, iterated until the
/// polish time is reached, then chained across layers bottom-up.
class CmpSimulator {
 public:
  explicit CmpSimulator(const CmpProcessParams& params = {});

  const CmpProcessParams& params() const { return params_; }

  /// Simulates one layer's polish.
  LayerSimResult simulate_layer(const LayerSimInput& input) const;

  /// Simulates all layers of an extracted layout with additional fill `x`
  /// (fraction units, one grid per layer; pass {} for no fill).  Returns the
  /// per-layer results, bottom layer first.
  std::vector<LayerSimResult> simulate(const WindowExtraction& ext,
                                       const std::vector<GridD>& x) const;

  /// Convenience: just the height profiles (the metric inputs).
  std::vector<GridD> simulate_heights(const WindowExtraction& ext,
                                      const std::vector<GridD>& x) const;

  /// Degradation ledger, shared across copies of this simulator.
  SimulatorHealth& health() const { return *health_; }

  /// Deadline for subsequent simulate calls (default: infinite).  An
  /// expired deadline raises ErrorException(kDeadlineExceeded) at the next
  /// polish step; optimizer loops catch it and return their best-so-far.
  void set_deadline(const Deadline& deadline) { deadline_ = deadline; }

 private:
  CmpProcessParams params_;
  GridD kernel_;  ///< character-length smoothing kernel
  Deadline deadline_;
  std::shared_ptr<SimulatorHealth> health_ =
      std::make_shared<SimulatorHealth>();
};

}  // namespace neurfill
