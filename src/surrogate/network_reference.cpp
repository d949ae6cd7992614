#include "surrogate/network_reference.hpp"

#include <stdexcept>

#include "nn/ops.hpp"

namespace neurfill {

CmpNetwork::Eval reference_evaluate(const CmpNetwork& network,
                                    const std::vector<GridD>& x,
                                    bool with_grad) {
  using nn::Tensor;
  using MetricCalibration = CmpNetwork::MetricCalibration;
  const std::vector<StaticLayerFeatures>& layers = network.static_features();
  if (x.size() != layers.size())
    throw std::invalid_argument("reference_evaluate: layer count mismatch");
  const std::size_t rows = network.rows(), cols = network.cols();
  const int pr = layers[0].padded_rows, pc = layers[0].padded_cols;

  std::vector<Tensor> fills;
  fills.reserve(x.size());
  for (const GridD& g : x) {
    std::vector<float> data(static_cast<std::size_t>(pr) * pc, 0.0f);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j)
        data[i * static_cast<std::size_t>(pc) + j] =
            static_cast<float>(g(i, j));
    fills.push_back(
        Tensor::from_data({1, 1, pr, pc}, std::move(data), with_grad));
  }
  const std::vector<Tensor> heights =
      network.surrogate().forward_heights(layers, fills);

  // Validity mask: metrics are computed over the un-padded N x M region.
  std::vector<float> mask_data(static_cast<std::size_t>(pr) * pc, 0.0f);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      mask_data[i * static_cast<std::size_t>(pc) + j] = 1.0f;
  const Tensor mask = Tensor::from_data({1, 1, pr, pc}, std::move(mask_data));
  const float count = static_cast<float>(rows * cols);

  // Objective layers (Eqs. 10a-c), masked to the valid region.
  Tensor sigma_total = Tensor::scalar(0.0f);
  Tensor sigma_star_total = Tensor::scalar(0.0f);
  Tensor ol_total = Tensor::scalar(0.0f);
  for (const Tensor& h : heights) {
    const Tensor hm = nn::mul(h, mask);
    const Tensor mean_h = nn::mul_scalar(nn::sum(hm), 1.0f / count);
    const Tensor dev = nn::mul(nn::sub(h, mean_h), mask);
    const Tensor var = nn::mul_scalar(nn::sum(nn::square(dev)), 1.0f / count);
    sigma_total = nn::add(sigma_total, var);
    // Line deviation: per-column mean over the valid rows.
    const Tensor col_mean =
        nn::mul_scalar(nn::sum_axis(hm, 2), 1.0f / static_cast<float>(rows));
    const Tensor col_dev = nn::mul(nn::sub(h, col_mean), mask);
    sigma_star_total = nn::add(sigma_star_total, nn::sum(nn::abs_op(col_dev)));
    // Outliers: smooth max(0, H - (mean + 3*sigma_l)).
    const Tensor sig_l = nn::sqrt_op(nn::add_scalar(var, 1e-6f));
    const Tensor threshold = nn::add(mean_h, nn::mul_scalar(sig_l, 3.0f));
    const Tensor excess = nn::sub(h, threshold);
    const Tensor smooth = nn::softplus(
        excess, static_cast<float>(network.surrogate().config().outlier_eta));
    ol_total = nn::add(ol_total, nn::sum(nn::mul(smooth, mask)));
  }

  // Simulator-anchored log-space corrections (identity unless calibrated):
  // corrected = exp(a) * (raw + eps)^b, computed differentiably.
  const auto apply_cal = [](const Tensor& t, const MetricCalibration& c) {
    if (c.a == 0.0 && c.b == 1.0) return t;
    const Tensor log_t = nn::log_op(nn::add_scalar(t, 1e-6f));
    return nn::exp_op(nn::add_scalar(
        nn::mul_scalar(log_t, static_cast<float>(c.b)),
        static_cast<float>(c.a)));
  };
  sigma_total = apply_cal(sigma_total, network.sigma_calibration());
  sigma_star_total =
      apply_cal(sigma_star_total, network.sigma_star_calibration());
  ol_total = apply_cal(ol_total, network.outlier_calibration());

  // Merging layer (Eq. 5b) with the Eq. 6 score function (relu = max(0,.)).
  const auto score_term = [](const Tensor& t, double alpha, double beta) {
    return nn::mul_scalar(
        nn::relu(nn::add_scalar(nn::mul_scalar(t, -1.0f / static_cast<float>(beta)),
                                1.0f)),
        static_cast<float>(alpha));
  };
  const ScoreCoefficients& coeffs = network.coefficients();
  Tensor s_plan =
      nn::add(score_term(sigma_total, coeffs.alpha_sigma, coeffs.beta_sigma),
              nn::add(score_term(sigma_star_total, coeffs.alpha_sigma_star,
                                 coeffs.beta_sigma_star),
                      score_term(ol_total, coeffs.alpha_ol, coeffs.beta_ol)));

  CmpNetwork::Eval out;
  out.s_plan = s_plan.item();
  out.sigma = sigma_total.item();
  out.sigma_star = sigma_star_total.item();
  out.outliers = ol_total.item();
  out.heights.reserve(heights.size());
  for (const Tensor& h : heights)
    out.heights.push_back(
        crop_to_grid(h, static_cast<int>(rows), static_cast<int>(cols)));

  if (with_grad) {
    s_plan.backward();
    out.grad.reserve(fills.size());
    for (const Tensor& f : fills) {
      GridD g(rows, cols, 0.0);
      if (f.has_grad()) {
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t j = 0; j < cols; ++j)
            g(i, j) = f.grad()[i * static_cast<std::size_t>(pc) + j];
      }
      out.grad.push_back(std::move(g));
    }
  }
  return out;
}

}  // namespace neurfill
