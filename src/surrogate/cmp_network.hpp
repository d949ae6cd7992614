#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fill/score_coeffs.hpp"
#include "layout/window_grid.hpp"
#include "nn/unet.hpp"
#include "surrogate/features.hpp"

namespace neurfill {

class SurrogateInference;  // surrogate/infer.hpp (tape-free fast path)
struct ObjectiveHead;
struct ObjectiveValue;

/// Configuration of the trained surrogate artifact.
struct SurrogateConfig {
  nn::UNetConfig unet;  ///< in_channels must equal FeatureConstants::kInChannels
  FeatureConstants features;
  double topo_transfer = 0.8;  ///< must match the simulator's layer chaining
  /// Sharpness (1/Angstrom) of the smooth outlier relaxation: the paper's
  /// Eq. 10c replaces the non-differentiable max(0, .) with a sigmoid; we
  /// use softplus with the same role (ablated in bench_ablation_eta).
  double outlier_eta = 0.05;

  SurrogateConfig() {
    unet.in_channels = FeatureConstants::kInChannels;
    unet.out_channels = 1;
    unet.base_channels = 8;
    unet.depth = 3;
    unet.use_group_norm = true;  // stabilizes the regression (see trainer)
  }
};

/// The trained CMP surrogate: a UNet plus its feature/normalization
/// constants.  This is what pre-training produces and what checkpoints
/// store.
class CmpSurrogate {
 public:
  CmpSurrogate(const SurrogateConfig& config, std::uint64_t seed);

  nn::UNet& unet() { return *unet_; }
  const nn::UNet& unet() const { return *unet_; }
  const SurrogateConfig& config() const { return config_; }
  SurrogateConfig& mutable_config() { return config_; }

  /// Forward pass from padded feature planes: returns per-layer height
  /// tensors in Angstrom, [1,1,pr,pc], chained through the incoming
  /// topography exactly like the simulator's layer loop.  `fills` are the
  /// padded fill tensors (may require grad).
  ///
  /// `incoming_override`, when non-empty, supplies the normalized incoming
  /// topography plane per layer instead of chaining the network's own
  /// predictions (teacher forcing during pre-training: the simulator labels
  /// provide the true lower-layer topography, so early-training noise in
  /// layer l does not corrupt the regression target of layer l+1).
  std::vector<nn::Tensor> forward_heights(
      const std::vector<StaticLayerFeatures>& layers,
      const std::vector<nn::Tensor>& fills,
      const std::vector<nn::Tensor>& incoming_override = {}) const;

  /// The normalized incoming plane layer l+1 would see given layer l's
  /// height map (A); used both internally and to build teacher-forcing
  /// planes from simulator labels.
  nn::Tensor incoming_from_height(const nn::Tensor& height_ang) const;

 private:
  SurrogateConfig config_;
  std::shared_ptr<nn::UNet> unet_;
};

/// Saves/loads the surrogate as <path>.meta (text config) + <path>.weights
/// (CRC-checksummed NFCP container, written atomically).  Failures come
/// back as structured nf::Error values naming the file and, for weight
/// corruption, the failing section and expected-vs-actual checksum — tools
/// print error.to_string() and exit 1, no stack trace.
[[nodiscard]] Expected<void> save_surrogate(const CmpSurrogate& s,
                              const std::string& path_prefix);
[[nodiscard]] Expected<std::shared_ptr<CmpSurrogate>> load_surrogate(
    const std::string& path_prefix);

/// The CMP neural network of Fig. 4, bound to one extraction and one score
/// coefficient set: extraction layer -> pre-trained UNet -> objective layers
/// (Eqs. 10a-c) -> merging layer (Eq. 5b).  evaluate() runs the forward pass
/// for S_plan and, when requested, one backward propagation for
/// grad(S_plan) (Eq. 11) — the paper's 8134x-speedup path.  Every
/// evaluation runs tape-free through the graph-compiled InferenceSession
/// and its reverse pass (docs/inference.md); the autograd pipeline it is
/// pinned against bitwise lives in surrogate/network_reference.hpp.
class CmpNetwork {
 public:
  CmpNetwork(std::shared_ptr<const CmpSurrogate> surrogate,
             const WindowExtraction& ext, ScoreCoefficients coeffs);
  ~CmpNetwork();  // out-of-line: SurrogateInference is incomplete here

  struct Eval {
    double s_plan = 0.0;
    double sigma = 0.0;        ///< relaxed Eq. 1 value (A^2)
    double sigma_star = 0.0;   ///< relaxed Eq. 2 value (A)
    double outliers = 0.0;     ///< relaxed Eq. 3 value (A)
    std::vector<GridD> heights;  ///< predicted post-CMP heights (A)
    std::vector<GridD> grad;     ///< d S_plan / d x, filled when requested
  };

  /// S_plan, the relaxed metrics and the predicted heights of fill `x`
  /// (one grid per layer) and, with `with_grad`, dS_plan/dx.  The value is
  /// bitwise the same with and without gradients (the SQP line search mixes
  /// both).  Thread-safe.
  Eval evaluate(const std::vector<GridD>& x, bool with_grad) const;

  /// Predicted heights only (a cheap forward; used by quality callbacks).
  std::vector<GridD> predict_heights(const std::vector<GridD>& x) const;

  /// Log-space power correction applied to a relaxed metric before scoring:
  /// corrected = exp(a) * raw^b.  A surrogate's predicted height field
  /// carries its own error variance, which biases the *absolute* sigma /
  /// sigma* / ol values (their gradients stay informative); anchoring this
  /// map on two true simulations (see calibrate_network) matches both
  /// anchors exactly and stays positive and monotone for any b > 0.
  /// Defaults are the identity (a = 0, b = 1).
  struct MetricCalibration {
    double a = 0.0;
    double b = 1.0;
  };
  void set_calibration(const MetricCalibration& sigma,
                       const MetricCalibration& sigma_star,
                       const MetricCalibration& outliers);
  const MetricCalibration& sigma_calibration() const { return cal_sigma_; }
  const MetricCalibration& sigma_star_calibration() const {
    return cal_sigma_star_;
  }
  const MetricCalibration& outlier_calibration() const { return cal_ol_; }

  const ScoreCoefficients& coefficients() const { return coeffs_; }
  const CmpSurrogate& surrogate() const { return *surrogate_; }
  /// The extraction's fill-independent planes, padded for the UNet.
  const std::vector<StaticLayerFeatures>& static_features() const {
    return static_;
  }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t num_layers() const { return static_.size(); }

 private:
  /// This network's objective layers (coefficients, calibration, region).
  ObjectiveHead objective_head() const;
  /// Eval from one candidate's predicted height planes, scoring them unless
  /// `value` already holds the objective.
  Eval make_eval(const std::vector<std::vector<float>>& heights,
                 const ObjectiveValue* value) const;

  std::shared_ptr<const CmpSurrogate> surrogate_;
  std::vector<StaticLayerFeatures> static_;
  ScoreCoefficients coeffs_;
  std::size_t rows_ = 0, cols_ = 0;
  MetricCalibration cal_sigma_, cal_sigma_star_, cal_ol_;
  /// The compiled surrogate, shared through the process-wide session cache
  /// (surrogate/infer.hpp), so tile solves over the same surrogate and
  /// plane size reuse one compiled session.
  std::shared_ptr<const SurrogateInference> inference_;
};

}  // namespace neurfill
