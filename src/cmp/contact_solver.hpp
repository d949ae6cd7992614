#pragma once

#include <vector>

#include "common/error.hpp"
#include "common/fft.hpp"
#include "common/grid2d.hpp"

namespace neurfill {

/// Diagnostics of one contact solve (docs/robustness.md).  On failure the
/// caller can inspect how the solve went wrong (residual trail) and degrade
/// to the best iterate seen instead of aborting.
struct ContactDiag {
  bool converged = false;
  int iterations = 0;
  /// Complementarity residual RMS per iteration, in order.
  std::vector<double> residual_trail;
  /// Lowest residual RMS seen and the pressure field that produced it
  /// (empty until the first completed iteration).
  double best_residual_rms = 0.0;
  GridD best_pressure;
  /// Pressure field at exit.
  GridD final_pressure;
};

/// Reference elastic contact solver (Polonsky & Keer style) for the pad /
/// wafer interface: given the surface height profile, find the contact
/// pressure distribution p >= 0 such that
///
///   u = G * p            (elastic half-space deflection, convolution)
///   u_i - h_i = -delta   where p_i > 0   (contact)
///   u_i - h_i >= -delta  where p_i = 0   (separation)
///   mean(p) = nominal    (load balance; delta is the rigid approach)
///
/// G is the Boussinesq kernel g(r) ~ 1 / (pi E* r) discretized per window.
/// The complementarity problem is solved with projected conjugate gradients,
/// using FFT circular convolution on a zero-padded grid.
///
/// This is the "solve the PDEs of contact mechanics" step of Fig. 2 in its
/// full form; the production simulator defaults to the cheaper asperity
/// model (pad_model.hpp) and this solver serves as the high-fidelity option
/// and cross-check.
class ElasticContactSolver {
 public:
  struct Options {
    double effective_modulus = 1.0;  ///< E* of the pad (pressure/height unit)
    double window_um = 100.0;        ///< discretization pitch
    int max_iterations = 400;
    double tolerance = 1e-8;  ///< relative complementarity residual
  };

  ElasticContactSolver(std::size_t rows, std::size_t cols, const Options& opt);
  ElasticContactSolver(std::size_t rows, std::size_t cols)
      : ElasticContactSolver(rows, cols, Options()) {}

  /// Heights in the same length unit used by `effective_modulus`.  On
  /// success returns the converged pressure field, with mean equal to
  /// `nominal_pressure`.  On failure returns a structured error —
  /// kNonConverged when the iteration budget ran out, kNumericPoison when a
  /// non-finite deflection appeared — and, when `diag` is non-null, fills
  /// it with the residual trail plus the best and final iterates so the
  /// caller can degrade gracefully.  Fault sites: contact.stall (suppresses
  /// convergence), contact.nan (poisons the deflection field).
  ///
  /// A solve converges once the complementarity residual RMS falls under
  /// max(tolerance * height range, 64 * eps * max|u| of the first
  /// deflection): the second term is the rounding floor of the deflection
  /// field, which a flat surface (zero height range) would otherwise have
  /// to beat.
  [[nodiscard]] Expected<GridD> try_solve(const GridD& height, double nominal_pressure,
                            ContactDiag* diag = nullptr) const;

  /// Deflection field for a given pressure (exposed for testing).
  GridD deflection(const GridD& pressure) const;

  int last_iterations() const { return last_iterations_; }

 private:
  std::size_t rows_, cols_;
  Options opt_;
  CircularConvolver green_;
  mutable int last_iterations_ = 0;

  static GridD make_green_kernel(std::size_t rows, std::size_t cols,
                                 const Options& opt);
};

}  // namespace neurfill
