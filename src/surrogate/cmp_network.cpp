#include "surrogate/cmp_network.hpp"

#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "nn/ops.hpp"
#include "nn/serialize.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/infer.hpp"

namespace neurfill {

CmpSurrogate::CmpSurrogate(const SurrogateConfig& config, std::uint64_t seed)
    : config_(config) {
  if (config.unet.in_channels != FeatureConstants::kInChannels)
    throw std::invalid_argument(
        "CmpSurrogate: UNet in_channels must match the feature planes");
  Rng rng(seed);
  unet_ = std::make_shared<nn::UNet>(config.unet, rng);
}

nn::Tensor CmpSurrogate::incoming_from_height(
    const nn::Tensor& height_ang) const {
  // Attenuated, zero-mean copy in normalized units — the same chaining rule
  // the simulator applies between layers.
  const nn::Tensor centered = nn::sub(height_ang, nn::mean(height_ang));
  return nn::mul_scalar(
      centered,
      static_cast<float>(config_.topo_transfer / config_.features.height_scale));
}

std::vector<nn::Tensor> CmpSurrogate::forward_heights(
    const std::vector<StaticLayerFeatures>& layers,
    const std::vector<nn::Tensor>& fills,
    const std::vector<nn::Tensor>& incoming_override) const {
  using nn::Tensor;
  if (layers.empty() || layers.size() != fills.size())
    throw std::invalid_argument("forward_heights: layer/fill mismatch");
  if (!incoming_override.empty() && incoming_override.size() != layers.size())
    throw std::invalid_argument("forward_heights: incoming override mismatch");
  const int pr = layers[0].padded_rows, pc = layers[0].padded_cols;
  const std::vector<int> plane{1, 1, pr, pc};
  const auto& fc = config_.features;

  std::vector<Tensor> heights;
  heights.reserve(layers.size());
  Tensor incoming = Tensor::zeros(plane);  // normalized units
  for (std::size_t l = 0; l < layers.size(); ++l) {
    if (!incoming_override.empty()) incoming = incoming_override[l];
    const Tensor input =
        assemble_layer_input(layers[l], fc, fills[l], incoming);
    const Tensor h_norm = unet_->forward(input);
    // Hard-center the prediction: every planarity objective (Eqs. 1-3) and
    // the layer chaining are invariant to a layer's mean height, so the
    // surrogate regresses *topography* (zero-mean profiles).  This removes
    // the per-sample mean-level mode — the hardest-to-learn and least
    // useful component — from the problem entirely.
    const Tensor h_centered = nn::sub(h_norm, nn::mean(h_norm));
    // Denormalize to Angstrom (offset kept for API symmetry; zero after
    // calibration).
    const Tensor h_ang = nn::add_scalar(
        nn::mul_scalar(h_centered, static_cast<float>(fc.height_scale)),
        static_cast<float>(fc.height_offset));
    heights.push_back(h_ang);
    if (l + 1 < layers.size() && incoming_override.empty())
      incoming = incoming_from_height(h_ang);
  }
  return heights;
}

[[nodiscard]] Expected<void> save_surrogate(const CmpSurrogate& s,
                              const std::string& path_prefix) {
  const std::string meta_path = path_prefix + ".meta";
  std::ofstream meta(meta_path);
  if (!meta)
    return Error(ErrorCode::kIo, "surrogate.io",
                 "'" + meta_path + "': cannot open for writing");
  const SurrogateConfig& c = s.config();
  meta << "unet " << c.unet.in_channels << ' ' << c.unet.out_channels << ' '
       << c.unet.base_channels << ' ' << c.unet.depth << ' '
       << (c.unet.use_group_norm ? 1 : 0) << '\n';
  meta << "features " << c.features.window_um << ' '
       << c.features.dummy_edge_um << ' ' << c.features.perimeter_norm << ' '
       << c.features.width_ref_um << ' ' << c.features.height_scale << ' '
       << c.features.height_offset << '\n';
  meta << "chain " << c.topo_transfer << ' ' << c.outlier_eta << '\n';
  meta.flush();
  if (!meta)
    return Error(ErrorCode::kIo, "surrogate.io",
                 "'" + meta_path + "': write failed");
  return nn::save_parameters(s.unet(), path_prefix + ".weights");
}

[[nodiscard]] Expected<std::shared_ptr<CmpSurrogate>> load_surrogate(
    const std::string& path_prefix) {
  const std::string meta_path = path_prefix + ".meta";
  std::ifstream meta(meta_path);
  if (!meta)
    return Error(ErrorCode::kNotFound, "surrogate.io",
                 "'" + meta_path + "': no such file");
  SurrogateConfig c;
  std::string kw;
  int use_norm = 0;
  if (!(meta >> kw >> c.unet.in_channels >> c.unet.out_channels >>
        c.unet.base_channels >> c.unet.depth >> use_norm) ||
      kw != "unet")
    return Error(ErrorCode::kCorrupt, "surrogate.io",
                 "'" + meta_path + "': bad meta (unet line)");
  c.unet.use_group_norm = use_norm != 0;
  if (!(meta >> kw >> c.features.window_um >> c.features.dummy_edge_um >>
        c.features.perimeter_norm >> c.features.width_ref_um >>
        c.features.height_scale >> c.features.height_offset) ||
      kw != "features")
    return Error(ErrorCode::kCorrupt, "surrogate.io",
                 "'" + meta_path + "': bad meta (features line)");
  if (!(meta >> kw >> c.topo_transfer >> c.outlier_eta) || kw != "chain")
    return Error(ErrorCode::kCorrupt, "surrogate.io",
                 "'" + meta_path + "': bad meta (chain line)");
  if (c.unet.in_channels != FeatureConstants::kInChannels)
    return Error(ErrorCode::kCorrupt, "surrogate.io",
                 "'" + meta_path + "': unet in_channels " +
                     std::to_string(c.unet.in_channels) + " != expected " +
                     std::to_string(FeatureConstants::kInChannels));
  auto s = std::make_shared<CmpSurrogate>(c, /*seed=*/0);
  Expected<void> weights =
      nn::load_parameters(s->unet(), path_prefix + ".weights");
  if (!weights.ok()) return weights.error();
  return s;
}

CmpNetwork::CmpNetwork(std::shared_ptr<const CmpSurrogate> surrogate,
                       const WindowExtraction& ext, ScoreCoefficients coeffs)
    : surrogate_(std::move(surrogate)), coeffs_(std::move(coeffs)),
      rows_(ext.rows), cols_(ext.cols) {
  if (!surrogate_) throw std::invalid_argument("CmpNetwork: null surrogate");
  const int divisor = 1 << surrogate_->config().unet.depth;
  static_ = build_static_features(ext, surrogate_->config().features, divisor);
  // Graph-compile the UNet once for this extraction's padded plane; every
  // evaluate() — gradients included — and predict_heights() then runs
  // tape-free.  Acquired through the process-wide session cache, so
  // repeated constructions over the same frozen surrogate and plane size
  // (the fullchip tile loop) share one compiled session and its pre-packed
  // weight panels.
  if (surrogate_->fast_inference_enabled())
    fast_ = acquire_surrogate_inference(*surrogate_, static_[0].padded_rows,
                                        static_[0].padded_cols);
}

CmpNetwork::~CmpNetwork() = default;

nn::Tensor CmpNetwork::make_fill_tensor(const GridD& x,
                                        bool requires_grad) const {
  const int pr = static_[0].padded_rows, pc = static_[0].padded_cols;
  std::vector<float> data(static_cast<std::size_t>(pr) * pc, 0.0f);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j)
      data[i * static_cast<std::size_t>(pc) + j] =
          static_cast<float>(x(i, j));
  return nn::Tensor::from_data({1, 1, pr, pc}, std::move(data), requires_grad);
}

CmpNetwork::Eval CmpNetwork::evaluate(const std::vector<GridD>& x,
                                      bool with_grad) const {
  using nn::Tensor;
  if (x.size() != static_.size())
    throw std::invalid_argument("CmpNetwork::evaluate: layer count mismatch");
  // The compiled path serves values and gradients tape-free; the autograd
  // pipeline below is the reference it is pinned against bitwise
  // (tests/test_inference.cpp), reached only with fast inference disabled.
  if (fast_) return evaluate_fast(x, with_grad);

  // A gradient sweep accumulates into the shared UNet's parameter
  // gradients, so reference evaluations with gradients run one at a time
  // (concurrent MSP starts would otherwise race on them).
  static std::mutex reference_mutex;
  std::unique_lock<std::mutex> lock(reference_mutex, std::defer_lock);
  if (with_grad) lock.lock();
  std::vector<Tensor> fills;
  fills.reserve(x.size());
  for (const GridD& g : x) fills.push_back(make_fill_tensor(g, with_grad));
  const std::vector<Tensor> heights =
      surrogate_->forward_heights(static_, fills);

  // Validity mask: metrics are computed over the un-padded N x M region.
  const int pr = static_[0].padded_rows, pc = static_[0].padded_cols;
  std::vector<float> mask_data(static_cast<std::size_t>(pr) * pc, 0.0f);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j)
      mask_data[i * static_cast<std::size_t>(pc) + j] = 1.0f;
  const Tensor mask = Tensor::from_data({1, 1, pr, pc}, std::move(mask_data));
  const float count = static_cast<float>(rows_ * cols_);

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
        nn::mul_scalar(nn::sum_axis(hm, 2), 1.0f / static_cast<float>(rows_));
    const Tensor col_dev = nn::mul(nn::sub(h, col_mean), mask);
    sigma_star_total = nn::add(sigma_star_total, nn::sum(nn::abs_op(col_dev)));
    // Outliers: smooth max(0, H - (mean + 3*sigma_l)).
    const Tensor sig_l = nn::sqrt_op(nn::add_scalar(var, 1e-6f));
    const Tensor threshold = nn::add(mean_h, nn::mul_scalar(sig_l, 3.0f));
    const Tensor excess = nn::sub(h, threshold);
    const Tensor smooth = nn::softplus(
        excess, static_cast<float>(surrogate_->config().outlier_eta));
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
  sigma_total = apply_cal(sigma_total, cal_sigma_);
  sigma_star_total = apply_cal(sigma_star_total, cal_sigma_star_);
  ol_total = apply_cal(ol_total, cal_ol_);

  // Merging layer (Eq. 5b) with the Eq. 6 score function (relu = max(0,.)).
  const auto score_term = [](const Tensor& t, double alpha, double beta) {
    return nn::mul_scalar(
        nn::relu(nn::add_scalar(nn::mul_scalar(t, -1.0f / static_cast<float>(beta)),
                                1.0f)),
        static_cast<float>(alpha));
  };
  Tensor s_plan =
      nn::add(score_term(sigma_total, coeffs_.alpha_sigma, coeffs_.beta_sigma),
              nn::add(score_term(sigma_star_total, coeffs_.alpha_sigma_star,
                                 coeffs_.beta_sigma_star),
                      score_term(ol_total, coeffs_.alpha_ol, coeffs_.beta_ol)));

  Eval out;
  out.s_plan = s_plan.item();
  out.sigma = sigma_total.item();
  out.sigma_star = sigma_star_total.item();
  out.outliers = ol_total.item();
  out.heights.reserve(heights.size());
  for (const Tensor& h : heights)
    out.heights.push_back(
        crop_to_grid(h, static_cast<int>(rows_), static_cast<int>(cols_)));

  if (with_grad) {
    s_plan.backward();
    out.grad.reserve(fills.size());
    for (const Tensor& f : fills) {
      GridD g(rows_, cols_, 0.0);
      if (f.has_grad()) {
        for (std::size_t i = 0; i < rows_; ++i)
          for (std::size_t j = 0; j < cols_; ++j)
            g(i, j) = f.grad()[i * static_cast<std::size_t>(pc) + j];
      }
      out.grad.push_back(std::move(g));
    }
  }
  return out;
}

void CmpNetwork::set_calibration(const MetricCalibration& sigma,
                                 const MetricCalibration& sigma_star,
                                 const MetricCalibration& outliers) {
  cal_sigma_ = sigma;
  cal_sigma_star_ = sigma_star;
  cal_ol_ = outliers;
}

namespace {

/// Pads a fill grid into a flat padded plane (zeros outside the valid
/// region — the same layout make_fill_tensor produces).
void fill_to_plane(const GridD& x, std::size_t rows, std::size_t cols, int pc,
                   std::vector<float>& plane) {
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      plane[i * static_cast<std::size_t>(pc) + j] =
          static_cast<float>(x(i, j));
}

/// Crops a padded flat plane back to rows x cols (crop_to_grid on floats).
GridD crop_plane(const std::vector<float>& plane, std::size_t rows,
                 std::size_t cols, int pc) {
  GridD g(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      g(i, j) = plane[i * static_cast<std::size_t>(pc) + j];
  return g;
}

}  // namespace

ObjectiveHead CmpNetwork::objective_head() const {
  ObjectiveHead head;
  head.rows = rows_;
  head.cols = cols_;
  head.eta = static_cast<float>(surrogate_->config().outlier_eta);
  head.cal[0] = cal_sigma_;
  head.cal[1] = cal_sigma_star_;
  head.cal[2] = cal_ol_;
  head.alpha[0] = coeffs_.alpha_sigma;
  head.alpha[1] = coeffs_.alpha_sigma_star;
  head.alpha[2] = coeffs_.alpha_ol;
  head.beta[0] = coeffs_.beta_sigma;
  head.beta[1] = coeffs_.beta_sigma_star;
  head.beta[2] = coeffs_.beta_ol;
  return head;
}

CmpNetwork::Eval CmpNetwork::evaluate_fast(const std::vector<GridD>& x,
                                           bool with_grad) const {
  const int pr = static_[0].padded_rows, pc = static_[0].padded_cols;
  const std::size_t n = static_cast<std::size_t>(pr) * pc;

  std::vector<std::vector<float>> fills(x.size());
  std::vector<const float*> fill_ptrs;
  fill_ptrs.reserve(x.size());
  for (std::size_t l = 0; l < x.size(); ++l) {
    fills[l].assign(n, 0.0f);
    fill_to_plane(x[l], rows_, cols_, pc, fills[l]);
    fill_ptrs.push_back(fills[l].data());
  }
  std::vector<std::vector<float>> heights;
  if (!with_grad) {
    fast_->predict_heights(static_, fill_ptrs, heights);
    return make_eval(heights, nullptr);
  }
  std::vector<std::vector<float>> d_fills;
  const ObjectiveValue v = fast_->evaluate_with_vjp(
      static_, fill_ptrs, objective_head(), heights, d_fills);
  Eval out = make_eval(heights, &v);
  out.grad.reserve(d_fills.size());
  for (const std::vector<float>& d : d_fills)
    out.grad.push_back(crop_plane(d, rows_, cols_, pc));
  return out;
}

CmpNetwork::Eval CmpNetwork::make_eval(
    const std::vector<std::vector<float>>& heights,
    const ObjectiveValue* value) const {
  const int pr = static_[0].padded_rows, pc = static_[0].padded_cols;
  const ObjectiveValue v =
      value ? *value : score_height_planes(objective_head(), pr, pc, heights);
  Eval out;
  out.s_plan = v.s_plan;
  out.sigma = v.sigma;
  out.sigma_star = v.sigma_star;
  out.outliers = v.outliers;
  out.heights.reserve(heights.size());
  for (const std::vector<float>& height : heights)
    out.heights.push_back(crop_plane(height, rows_, cols_, pc));
  return out;
}

std::vector<CmpNetwork::Eval> CmpNetwork::evaluate_batch(
    const std::vector<std::vector<GridD>>& xs) const {
  std::vector<Eval> out(xs.size());
  if (xs.empty()) return out;
  for (const std::vector<GridD>& x : xs)
    if (x.size() != static_.size())
      throw std::invalid_argument(
          "CmpNetwork::evaluate_batch: layer count mismatch");
  if (!fast_) {
    // Autograd reference (fast inference disabled): same values, one
    // candidate at a time through the tape.
    for (std::size_t b = 0; b < xs.size(); ++b) out[b] = evaluate(xs[b], false);
    return out;
  }

  const int pc = static_[0].padded_cols;
  const std::size_t n =
      static_cast<std::size_t>(static_[0].padded_rows) * pc;
  const std::size_t B = xs.size();
  const std::size_t L = static_.size();

  std::vector<std::vector<float>> planes(B * L);
  std::vector<std::vector<const float*>> fill_ptrs(B);
  for (std::size_t b = 0; b < B; ++b) {
    fill_ptrs[b].reserve(L);
    for (std::size_t l = 0; l < L; ++l) {
      std::vector<float>& plane = planes[b * L + l];
      plane.assign(n, 0.0f);
      fill_to_plane(xs[b][l], rows_, cols_, pc, plane);
      fill_ptrs[b].push_back(plane.data());
    }
  }

  // One batched session run per layer for all candidates; each candidate's
  // height planes are byte-identical to a solo predict_heights.
  std::vector<std::vector<std::vector<float>>> heights;
  fast_->predict_heights_batch(static_, fill_ptrs, heights);

  // Candidates score independently (per-thread scratch); roughly 20 ns per
  // plane element across the metric passes.
  const std::size_t grain = runtime::grain_for_cost(
      20.0 * static_cast<double>(L) * static_cast<double>(n), B);
  runtime::parallel_for(grain, B, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b)
      out[b] = make_eval(heights[b], nullptr);
  });
  return out;
}

std::vector<GridD> CmpNetwork::predict_heights(
    const std::vector<GridD>& x) const {
  // One value evaluation's heights; scoring them costs a few plane passes
  // next to the UNet forward.
  if (fast_) return evaluate_fast(x, false).heights;
  std::vector<nn::Tensor> fills;
  fills.reserve(x.size());
  for (const GridD& g : x) fills.push_back(make_fill_tensor(g, false));
  const auto heights = surrogate_->forward_heights(static_, fills);
  std::vector<GridD> out;
  out.reserve(heights.size());
  for (const auto& h : heights)
    out.push_back(
        crop_to_grid(h, static_cast<int>(rows_), static_cast<int>(cols_)));
  return out;
}

}  // namespace neurfill
