#include "surrogate/cmp_network.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "nn/ops.hpp"
#include "nn/serialize.hpp"
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
  inference_ = acquire_surrogate_inference(
      *surrogate_, static_[0].padded_rows, static_[0].padded_cols);
}

CmpNetwork::~CmpNetwork() = default;

void CmpNetwork::set_calibration(const MetricCalibration& sigma,
                                 const MetricCalibration& sigma_star,
                                 const MetricCalibration& outliers) {
  cal_sigma_ = sigma;
  cal_sigma_star_ = sigma_star;
  cal_ol_ = outliers;
}

namespace {

/// Pads a fill grid into a flat padded plane (zeros outside the valid
/// region).
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

CmpNetwork::Eval CmpNetwork::evaluate(const std::vector<GridD>& x,
                                      bool with_grad) const {
  if (x.size() != static_.size())
    throw std::invalid_argument("CmpNetwork::evaluate: layer count mismatch");
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
    inference_->predict_heights(static_, fill_ptrs, heights);
    return make_eval(heights, nullptr);
  }
  std::vector<std::vector<float>> d_fills;
  const ObjectiveValue v = inference_->evaluate_with_vjp(
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

std::vector<GridD> CmpNetwork::predict_heights(
    const std::vector<GridD>& x) const {
  // One value evaluation's heights; scoring them costs a few plane passes
  // next to the UNet forward.
  return evaluate(x, false).heights;
}

}  // namespace neurfill
