#include "cmp/contact_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace neurfill {

namespace {
/// Measured cost of one cell update in the Polonsky-Keer loops (predicated
/// load + multiply-add over doubles), from bench_runtime_scaling traces.
/// Feeds runtime::grain_for_cost, so the per-block work is ~25 us and whole
/// loops under ~50 us run as one inline block; the derived grain is a pure
/// function of the grid shape (never the thread count), so the blocked
/// reductions below combine in the same order at every thread count — the
/// solver's pressure field is bitwise identical serial vs. parallel.
constexpr double kCellCostNs = 3.0;

/// Grids at or below this many cells run the *entire* solve inside a
/// runtime SerialRegion.  Profiling with --trace showed a 64x64 solve
/// spending ~97% of its time in 128x128 FFT passes chopped into ~16-block
/// jobs of a few hundred microseconds: at 4-8 threads the fork/join
/// handshakes cost more than the parallel FFT saves, and on an
/// oversubscribed host they made 4t *slower* than 1t (0.96x in the old
/// BENCH_runtime.json baseline).  Because the parallel primitives are
/// bitwise-deterministic, forcing serial execution changes scheduling only,
/// never results.
constexpr std::size_t kSerialSolveCells = 64 * 64;

/// Deterministic blocked sum over f(k) for k in [0, n).
template <typename F>
double blocked_sum(std::size_t grain, std::size_t n, F&& f) {
  return runtime::parallel_reduce(
      grain, n, 0.0,
      [&](std::size_t k0, std::size_t k1) {
        double s = 0.0;
        for (std::size_t k = k0; k < k1; ++k) s += f(k);
        return s;
      },
      [](double a, double b) { return a + b; });
}
}  // namespace

GridD ElasticContactSolver::make_green_kernel(std::size_t rows,
                                              std::size_t cols,
                                              const Options& opt) {
  // Deflection influence of a unit uniform pressure patch (window) on the
  // centre of another window, Boussinesq half-space:
  //   self:  u = c0 * a / E*,  c0 = 4 ln(1+sqrt(2)) / pi  (square patch)
  //   far:   u = a^2 / (pi E* d)
  // Build on a doubled grid so the circular convolution acts as a linear
  // (zero-padded) one for in-range outputs.
  const double a = opt.window_um;
  const double estar = opt.effective_modulus;
  const double c0 = 4.0 * std::log(1.0 + std::sqrt(2.0)) / M_PI;
  const std::size_t R = 2 * rows, C = 2 * cols;
  GridD k(R, C, 0.0);
  for (std::size_t i = 0; i < R; ++i) {
    const double di =
        (i < rows) ? static_cast<double>(i) : static_cast<double>(i) - static_cast<double>(R);
    for (std::size_t j = 0; j < C; ++j) {
      const double dj =
          (j < cols) ? static_cast<double>(j) : static_cast<double>(j) - static_cast<double>(C);
      const double d = std::hypot(di, dj) * a;
      k(i, j) = (d < 0.5 * a) ? c0 * a / estar : a * a / (M_PI * estar * d);
    }
  }
  return k;
}

ElasticContactSolver::ElasticContactSolver(std::size_t rows, std::size_t cols,
                                           const Options& opt)
    : rows_(rows), cols_(cols), opt_(opt), green_([&] {
        // Same small-grid rule as solve(): the constructor's kernel FFT on
        // the doubled grid is not worth a fork/join either.
        std::optional<runtime::ThreadPool::SerialRegion> serial;
        if (rows * cols <= kSerialSolveCells) serial.emplace();
        return CircularConvolver(make_green_kernel(rows, cols, opt));
      }()) {
  if (rows == 0 || cols == 0)
    throw std::invalid_argument("ElasticContactSolver: empty grid");
  if (opt.effective_modulus <= 0.0)
    throw std::invalid_argument("ElasticContactSolver: E* must be positive");
}

GridD ElasticContactSolver::deflection(const GridD& pressure) const {
  NF_CHECK(pressure.rows() == rows_ && pressure.cols() == cols_,
           "deflection: pressure grid %zu x %zu, solver %zu x %zu",
           pressure.rows(), pressure.cols(), rows_, cols_);
  return green_.apply(pressure);
}

[[nodiscard]] Expected<GridD> ElasticContactSolver::try_solve(const GridD& height,
                                                double nominal_pressure,
                                                ContactDiag* diag) const {
  if (height.rows() != rows_ || height.cols() != cols_)
    throw std::invalid_argument("ElasticContactSolver: shape mismatch");
  if (nominal_pressure <= 0.0)
    throw std::invalid_argument("ElasticContactSolver: pressure must be positive");
  NF_TRACE_SPAN("contact.solve");
  NF_COUNTER_ADD("contact.solves", 1);
  const std::size_t n = rows_ * cols_;
  // Small solves run entirely serial (cell loops *and* the nested FFT
  // passes inside green_.apply degrade inline); see kSerialSolveCells.
  // The guard depends only on the grid shape, so results are unchanged.
  std::optional<runtime::ThreadPool::SerialRegion> serial;
  if (n <= kSerialSolveCells) serial.emplace();
  const std::size_t cell_grain = runtime::grain_for_cost(kCellCostNs, n);
  const double total_load = nominal_pressure * static_cast<double>(n);

  // Polonsky-Keer: minimize complementarity energy with CG restricted to the
  // current contact set, re-projecting after each step.
  GridD p(rows_, cols_, nominal_pressure);
  GridD d(rows_, cols_, 0.0);   // CG direction
  GridD r(rows_, cols_, 0.0);   // residual (gap deviation on contact set)
  double g_old = 1.0;
  bool restart_cg = true;

  const double href = [&] {
    double lo = height[0], hi = height[0];
    for (const double h : height) {
      lo = std::min(lo, h);
      hi = std::max(hi, h);
    }
    return std::max(hi - lo, 1e-12);
  }();

  // Accept threshold: relative to the height range, floored at the first
  // deflection field's rounding (set on iteration 0) so a flat surface,
  // whose range is zero, can still converge.
  double accept = opt_.tolerance * href;

  last_iterations_ = 0;
  bool converged = false;
  double last_rms = std::numeric_limits<double>::quiet_NaN();
  double best_rms = std::numeric_limits<double>::infinity();
  const char* stall = "iteration budget exhausted";
  for (int it = 0; it < opt_.max_iterations; ++it) {
    ++last_iterations_;
    NF_TRACE_SPAN("contact.iteration");
    NF_COUNTER_ADD("contact.iterations", 1);
    GridD u = green_.apply(p);
    if (NF_FAULT("contact.nan"))
      u[0] = std::numeric_limits<double>::quiet_NaN();
    // The FFT-applied Green's operator must return finite deflections; a
    // NaN here would silently poison the whole pressure field on the next
    // projection.  This is a routine event under injection (and plausible
    // on pathological inputs), so it reports rather than aborts — p still
    // holds the last good projected iterate.
    for (std::size_t k = 0; k < n; ++k) {
      if (!std::isfinite(u[k])) [[unlikely]] {
        if (diag) {
          diag->converged = false;
          diag->iterations = last_iterations_;
          diag->final_pressure = std::move(p);
        }
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "non-finite deflection %g at cell %zu on iteration %d",
                      u[k], k, last_iterations_);
        return Error(ErrorCode::kNumericPoison, "cmp.contact", msg);
      }
    }
    if (it == 0) {
      double umax = 0.0;
      for (std::size_t k = 0; k < n; ++k) umax = std::max(umax, std::abs(u[k]));
      accept = std::max(
          accept, 64.0 * std::numeric_limits<double>::epsilon() * umax);
    }
    // Gap up to the unknown rigid approach delta: g_i = u_i - h_i.  On the
    // contact set g should be constant (= -delta); use its contact-set mean
    // as the working delta estimate.
    // Contact-set mean gap: a blocked two-component reduction (sum, count)
    // combined in fixed block order.
    struct GapStat {
      double sum = 0.0;
      std::size_t count = 0;
    };
    const GapStat gap = runtime::parallel_reduce(
        cell_grain, n, GapStat{},
        [&](std::size_t k0, std::size_t k1) {
          GapStat s;
          for (std::size_t k = k0; k < k1; ++k) {
            if (p[k] > 0.0) {
              s.sum += u[k] - height[k];
              ++s.count;
            }
          }
          return s;
        },
        [](GapStat a, const GapStat& b) {
          a.sum += b.sum;
          a.count += b.count;
          return a;
        });
    const std::size_t nc = gap.count;
    if (nc == 0) {
      converged = true;  // degenerate full-separation state; legacy accept
      break;
    }
    const double gbar = gap.sum / static_cast<double>(nc);
    NF_CHECK_FINITE(gbar);

    // Residual update writes r (disjoint per cell) while reducing |r|^2.
    const double g_new = blocked_sum(cell_grain, n, [&](std::size_t k) {
      r[k] = (p[k] > 0.0) ? (u[k] - height[k] - gbar) : 0.0;
      return r[k] * r[k];
    });
    last_rms = std::sqrt(g_new / static_cast<double>(nc));
    NF_GAUGE_SET("contact.residual_rms", last_rms);
    if (diag) {
      diag->residual_trail.push_back(last_rms);
      if (last_rms < best_rms) {
        best_rms = last_rms;
        diag->best_residual_rms = last_rms;
        diag->best_pressure = p;
      }
    }
    // contact.stall suppresses the convergence accept (the && short-circuit
    // means the site is hit exactly when the solve would have converged).
    if (last_rms < accept && !NF_FAULT("contact.stall")) {
      converged = true;
      break;
    }

    const double beta = restart_cg ? 0.0 : g_new / g_old;
    restart_cg = false;
    g_old = g_new;
    runtime::parallel_for(cell_grain, n, [&](std::size_t k0, std::size_t k1) {
      for (std::size_t k = k0; k < k1; ++k)
        d[k] = (p[k] > 0.0) ? (-r[k] + beta * d[k]) : 0.0;
    });

    // Step length along d: alpha = (r.r) / (d.(G d)) over the contact set.
    const GridD Gd = green_.apply(d);
    const double denom = blocked_sum(
        cell_grain, n,
        [&](std::size_t k) { return p[k] > 0.0 ? d[k] * Gd[k] : 0.0; });
    if (std::abs(denom) < 1e-300) {
      stall = "conjugate-gradient stagnation (step denominator underflow)";
      break;
    }
    const double alpha = g_new / denom;
    NF_CHECK_FINITE(alpha);
    NF_CHECK(g_new >= 0.0, "contact solver: negative residual norm %g", g_new);

    // Take the step and project to p >= 0.  Points whose pressure hits zero
    // leave the contact set; CG restarts when the set changes.
    // Both projection passes write disjoint cells and reduce an "any cell
    // left/entered the contact set" flag (order-independent OR).
    bool set_changed = runtime::parallel_reduce(
        cell_grain, n, false,
        [&](std::size_t k0, std::size_t k1) {
          bool changed = false;
          for (std::size_t k = k0; k < k1; ++k) {
            if (p[k] <= 0.0) continue;
            const double np = p[k] + alpha * d[k];
            if (np <= 0.0) {
              p[k] = 0.0;
              changed = true;
            } else {
              p[k] = np;
            }
          }
          return changed;
        },
        [](bool a, bool b) { return a || b; });

    // Points outside contact that penetrate (gap < -delta) re-enter.
    const GridD u2 = green_.apply(p);
    set_changed = runtime::parallel_reduce(
        cell_grain, n, set_changed,
        [&](std::size_t k0, std::size_t k1) {
          bool changed = false;
          for (std::size_t k = k0; k < k1; ++k) {
            if (p[k] == 0.0 && u2[k] - height[k] < gbar) {
              p[k] = 1e-6 * nominal_pressure;
              changed = true;
            }
          }
          return changed;
        },
        [](bool a, bool b) { return a || b; });
    if (set_changed) restart_cg = true;

    // Load balance.
    const double sum = blocked_sum(cell_grain, n, [&](std::size_t k) { return p[k]; });
    if (sum <= 0.0) {
      p.fill(nominal_pressure);
      restart_cg = true;
      continue;
    }
    const double scale = total_load / sum;
    runtime::parallel_for(cell_grain, n, [&](std::size_t k0, std::size_t k1) {
      for (std::size_t k = k0; k < k1; ++k) p[k] *= scale;
    });
  }
  // Postconditions: the iterate is a physical pressure field (this holds
  // for non-converged exits too — projection keeps p >= 0 throughout).
  for (std::size_t k = 0; k < n; ++k)
    NF_CHECK(p[k] >= 0.0, "contact solver: negative pressure %g at %zu", p[k],
             k);
  NF_CHECK_ALL_FINITE("contact solver: pressure field", p.data(), p.size());
  if (diag) {
    diag->converged = converged;
    diag->iterations = last_iterations_;
  }
  if (converged) {
    if (diag) diag->final_pressure = p;
    return p;
  }
  if (diag) diag->final_pressure = std::move(p);
  char msg[192];
  std::snprintf(msg, sizeof(msg),
                "%s: residual rms %.3g (accept threshold %.3g) after %d "
                "iterations",
                stall, last_rms, accept, last_iterations_);
  return Error(ErrorCode::kNonConverged, "cmp.contact", msg);
}

}  // namespace neurfill
