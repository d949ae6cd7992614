#include "fill/problem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geom/glf_io.hpp"

namespace neurfill {

FillProblem::FillProblem(WindowExtraction ext, CmpSimulator simulator,
                         ScoreCoefficients coeffs)
    : ext_(std::move(ext)), sim_(std::move(simulator)),
      coeffs_(std::move(coeffs)) {
  if (ext_.num_layers() == 0)
    throw std::invalid_argument("FillProblem: empty extraction");
}

void FillProblem::set_bounds_override(Box box) {
  if (box.lo.size() != num_vars() || box.hi.size() != num_vars())
    throw std::invalid_argument("set_bounds_override: size mismatch");
  bounds_override_ = std::move(box);
}

Box FillProblem::bounds() const {
  if (!bounds_override_.lo.empty()) return bounds_override_;
  Box b;
  b.lo.assign(num_vars(), 0.0);
  b.hi.reserve(num_vars());
  for (const auto& layer : ext_.layers)
    for (const double s : layer.slack) b.hi.push_back(std::max(0.0, s));
  return b;
}

VecD FillProblem::flatten(const std::vector<GridD>& x) const {
  if (x.size() != ext_.num_layers())
    throw std::invalid_argument("flatten: layer count mismatch");
  VecD v;
  v.reserve(num_vars());
  for (const auto& g : x) {
    if (g.rows() != ext_.rows || g.cols() != ext_.cols)
      throw std::invalid_argument("flatten: grid shape mismatch");
    v.insert(v.end(), g.begin(), g.end());
  }
  return v;
}

std::vector<GridD> FillProblem::unflatten(const VecD& v) const {
  if (v.size() != num_vars())
    throw std::invalid_argument("unflatten: size mismatch");
  std::vector<GridD> x(ext_.num_layers(), GridD(ext_.rows, ext_.cols, 0.0));
  std::size_t k = 0;
  for (auto& g : x)
    for (auto& val : g) val = v[k++];
  return x;
}

std::vector<GridD> FillProblem::zero_fill() const {
  return std::vector<GridD>(ext_.num_layers(), GridD(ext_.rows, ext_.cols, 0.0));
}

QualityBreakdown FillProblem::evaluate(const std::vector<GridD>& x) const {
  ++sim_calls_;
  const std::vector<GridD> heights = sim_.simulate_heights(ext_, x);
  const PlanarityMetrics pm = compute_planarity(heights);
  const PdEstimate pd = estimate_pd(ext_, x);
  return assemble_quality(pm, pd.overlay_um2, pd.fill_um2, coeffs_);
}

ObjectiveFn FillProblem::make_simulator_objective() const {
  return [this](const VecD& v, VecD* grad) -> double {
    const std::vector<GridD> x = unflatten(v);
    const QualityBreakdown q = evaluate(x);
    if (grad) {
      // Planarity part: black-box numerical gradient (the expensive path of
      // the conventional flow — one simulation per variable with forward
      // differences).
      grad->assign(v.size(), 0.0);
      const double eps = 1e-4;
      VecD vp = v;
      for (std::size_t i = 0; i < v.size(); ++i) {
        const double orig = vp[i];
        vp[i] = orig + eps;
        const QualityBreakdown qp = evaluate(unflatten(vp));
        vp[i] = orig;
        (*grad)[i] = -(qp.s_plan - q.s_plan) / eps;
      }
      // PD part: analytic (Eq. 17).
      const PdScore pd = pd_score_and_gradient(ext_, x, coeffs_);
      std::size_t k = 0;
      for (const auto& g : pd.grad)
        for (const double gv : g) (*grad)[k++] -= gv;
    }
    return -q.s_qual;
  };
}

ScoreCoefficients make_coefficients(const Layout& layout,
                                    const WindowExtraction& ext,
                                    const CmpSimulator& sim) {
  ScoreCoefficients c;
  c.design_name = layout.name;
  const std::vector<GridD> h0 = sim.simulate_heights(
      ext, std::vector<GridD>(ext.num_layers(), GridD(ext.rows, ext.cols, 0.0)));
  const PlanarityMetrics pm = compute_planarity(h0);
  // Floors keep betas positive even for a nearly-flat unfilled design.
  c.beta_sigma = std::max(pm.sigma, 1.0);
  c.beta_sigma_star = std::max(pm.sigma_star, 1.0);
  // The unfilled design often has zero outlier mass; floor the budget at a
  // small fraction of the line-deviation scale so the outlier score stays a
  // graded signal instead of a 0/1 cliff.
  c.beta_ol = std::max(pm.outliers, 0.01 * c.beta_sigma_star);
  double total_slack_um2 = 0.0;
  for (const auto& l : ext.layers)
    for (const double s : l.slack) total_slack_um2 += s;
  total_slack_um2 *= ext.window_area_um2();
  c.beta_fa = std::max(0.5 * total_slack_um2, 1.0);
  c.beta_ov = c.beta_fa;  // Table II uses beta_ov == beta_fa
  // File-size budget.  The paper uses 2x the input GDS, which works because
  // industrial designs dwarf their fill files; synthetic designs are small,
  // so the budget is the larger of that and the size of a worst-case
  // (full-slack) fill file — keeping the score a graded signal here too.
  {
    Layout full_fill = layout;
    for (auto& l : full_fill.layers) {
      l.wires.clear();
      l.dummies.clear();
    }
    std::vector<GridD> full;
    full.reserve(ext.num_layers());
    for (const auto& l : ext.layers) full.push_back(l.slack);
    insert_dummies(full_fill, ext, full);
    c.beta_fs = std::max(2.0 * static_cast<double>(glf_encoded_size(layout)),
                         static_cast<double>(glf_encoded_size(full_fill)));
  }
  c.beta_t = 1200.0;
  c.beta_m = 8.0 * 1024.0 * 1024.0 * 1024.0;
  return c;
}

std::vector<GridD> target_density_fill(const WindowExtraction& ext,
                                       const std::vector<double>& td) {
  if (td.size() != ext.num_layers())
    throw std::invalid_argument("target_density_fill: layer count mismatch");
  std::vector<GridD> x(ext.num_layers(), GridD(ext.rows, ext.cols, 0.0));
  for (std::size_t l = 0; l < ext.num_layers(); ++l) {
    const auto& d = ext.layers[l];
    for (std::size_t k = 0; k < d.slack.size(); ++k) {
      const double rho = d.wire_density[k] + d.dummy_density[k];
      const double s = d.slack[k];
      // Eq. 18.
      if (td[l] < rho) {
        x[l][k] = 0.0;
      } else if (td[l] > rho + s) {
        x[l][k] = s;
      } else {
        x[l][k] = td[l] - rho;
      }
    }
  }
  return x;
}

namespace {

/// Feasible target-density range per layer: from the mean density (no fill
/// below it changes anything) to the max achievable density.
void pkb_density_range(const WindowExtraction& ext, std::vector<double>& lo,
                       std::vector<double>& hi) {
  const std::size_t L = ext.num_layers();
  lo.assign(L, 1.0);
  hi.assign(L, 0.0);
  for (std::size_t l = 0; l < L; ++l) {
    const auto& d = ext.layers[l];
    double mean_rho = 0.0;
    for (std::size_t k = 0; k < d.slack.size(); ++k) {
      const double rho = d.wire_density[k] + d.dummy_density[k];
      mean_rho += rho;
      hi[l] = std::max(hi[l], rho + d.slack[k]);
    }
    lo[l] = mean_rho / static_cast<double>(d.slack.size());
  }
}

/// The step-s candidate of the coupled linear sweep: the same td step index
/// is applied to all layers (the paper searches each layer's td by a linear
/// sweep; the coupled sweep keeps the search O(steps) simulations instead
/// of steps^L).
std::vector<GridD> pkb_candidate(const WindowExtraction& ext,
                                 const std::vector<double>& lo,
                                 const std::vector<double>& hi, int s,
                                 int steps) {
  const double t = static_cast<double>(s) / static_cast<double>(steps - 1);
  std::vector<double> td(lo.size());
  for (std::size_t l = 0; l < td.size(); ++l)
    td[l] = lo[l] + t * (hi[l] - lo[l]);
  return target_density_fill(ext, td);
}

}  // namespace

std::vector<GridD> pkb_starting_point(
    const WindowExtraction& ext,
    const std::function<double(const std::vector<GridD>&)>& quality,
    int steps) {
  if (steps < 2) throw std::invalid_argument("pkb_starting_point: steps < 2");
  std::vector<double> lo, hi;
  pkb_density_range(ext, lo, hi);
  double best_q = -1e300;
  std::vector<GridD> best;
  for (int s = 0; s < steps; ++s) {
    std::vector<GridD> x = pkb_candidate(ext, lo, hi, s, steps);
    const double q = quality(x);
    if (q > best_q) {
      best_q = q;
      best = std::move(x);
    }
  }
  return best;
}

}  // namespace neurfill
