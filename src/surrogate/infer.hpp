#pragma once

#include <vector>

#include "nn/infer/session.hpp"
#include "surrogate/cmp_network.hpp"
#include "surrogate/features.hpp"

namespace neurfill {

/// The objective layers of one CmpNetwork in flat-plane form (Fig. 4):
/// Eqs. 10a-c over the valid rows x cols region of the padded height
/// planes, the log-space metric calibration, and the Eq. 5b merge.
struct ObjectiveHead {
  std::size_t rows = 0, cols = 0;  ///< valid (un-padded) region
  float eta = 0.05f;               ///< outlier softplus sharpness
  /// sigma, sigma*, outliers — in that order in every array below.
  CmpNetwork::MetricCalibration cal[3];
  double alpha[3] = {0.0, 0.0, 0.0};
  double beta[3] = {1.0, 1.0, 1.0};
};

struct ObjectiveValue {
  float s_plan = 0.0f;
  float sigma = 0.0f;       ///< calibrated relaxed Eq. 1
  float sigma_star = 0.0f;  ///< calibrated relaxed Eq. 2
  float outliers = 0.0f;    ///< calibrated relaxed Eq. 3
};

/// Objective layers applied to per-layer height planes (padded_rows x
/// padded_cols, row-major).  Every float operation mirrors the autograd
/// metric pipeline op by op, so the value is bitwise the autograd one.
/// Thread-safe (per-thread scratch).
ObjectiveValue score_height_planes(const ObjectiveHead& head, int padded_rows,
                                   int padded_cols,
                                   const std::vector<std::vector<float>>& heights);

/// Tape-free surrogate evaluation: CmpSurrogate::forward_heights without
/// the autograd tensors.  The extraction-layer arithmetic (density /
/// perimeter / width / global-mean planes) runs as nn/kernels.hpp
/// elementwise maps over flat planes, and the UNet runs through a graph-compiled
/// nn::InferenceSession, so a forward pass allocates nothing in steady
/// state and returns heights bitwise identical to the autograd path
/// (pinned by tests/test_inference.cpp — every float operation replicates
/// the op-by-op rounding of assemble_layer_input / forward_heights).
///
/// One instance is bound to one padded plane size; CmpNetwork builds one
/// per extraction, tools build one per chip (or per tile).
class SurrogateInference {
 public:
  /// Largest candidate batch the compiled session plans its arena for up
  /// front (predict_heights_batch still accepts bigger batches; the arena
  /// then grows once).  Sized for one NMMSO move batch.
  static constexpr int kDefaultMaxBatch = 32;

  /// Compiles the surrogate's UNet for padded_rows x padded_cols planes
  /// (must be divisible by 2^depth).  Holds shared ownership of the
  /// parameter storage; weights are snapshotted at compile time (packed
  /// panels) — rebuild after weight updates.
  SurrogateInference(const CmpSurrogate& surrogate, int padded_rows,
                     int padded_cols);

  int padded_rows() const { return rows_; }
  int padded_cols() const { return cols_; }

  /// Per-layer post-CMP heights in Angstrom, chained through the incoming
  /// topography like the simulator's layer loop.  `fills[l]` is the padded
  /// fill plane (padded_rows x padded_cols, row-major); `heights` is
  /// resized to one plane per layer.  Equivalent to forward_heights with
  /// no incoming override.
  void predict_heights(const std::vector<StaticLayerFeatures>& layers,
                       const std::vector<const float*>& fills,
                       std::vector<std::vector<float>>& heights) const;

  /// Batched predict_heights over B candidate fill solutions that share the
  /// static layer features: `fills[b][l]` is candidate b's padded fill
  /// plane for layer l, `heights[b][l]` its height plane.  Per layer, the B
  /// candidate feature stacks are assembled into one [B, C, H, W] input and
  /// the UNet runs once at batch B; extraction and the post-processing
  /// chain run per candidate slice with the identical kernel sequence, so
  /// every candidate's heights are byte-identical to a predict_heights call
  /// on that candidate alone (pinned by tests/test_inference.cpp).  The
  /// layer loop stays serial — layer l+1's incoming topography chains from
  /// layer l — batching is across candidates within a layer.
  void predict_heights_batch(
      const std::vector<StaticLayerFeatures>& layers,
      const std::vector<std::vector<const float*>>& fills,
      std::vector<std::vector<std::vector<float>>>& heights) const;

  /// S_plan through `head` and its vector-Jacobian product with respect to
  /// every fill plane in one call: a saving forward (predict_heights'
  /// arithmetic, plus the compiled session's reverse-pass record per layer),
  /// then hand-derived adjoints of the merge, calibration, objective,
  /// post-processing and extraction layers around InferenceSession::run_vjp,
  /// layer by layer from the top.  `d_fills[l]` receives dS_plan/dfill_l
  /// over the padded plane.  Wherever a value feeds several consumers, the
  /// adjoint contributions accumulate in the autograd sweep's order
  /// (docs/inference.md), so value, heights and cotangents are bitwise the
  /// autograd ones.  Thread-safe; no steady-state allocation beyond the
  /// outputs.
  ObjectiveValue evaluate_with_vjp(
      const std::vector<StaticLayerFeatures>& layers,
      const std::vector<const float*>& fills, const ObjectiveHead& head,
      std::vector<std::vector<float>>& heights,
      std::vector<std::vector<float>>& d_fills) const;

  /// The compiled UNet (batched NCHW entry point for tools and tests).
  const nn::InferenceSession& session() const { return session_; }

 private:
  FeatureConstants features_;
  double topo_transfer_ = 0.8;
  nn::InferenceSession session_;
  int rows_ = 0, cols_ = 0;
};

/// Process-wide cache of compiled SurrogateInference sessions, keyed by the
/// surrogate's architecture + extraction constants, a hash of its parameter
/// bytes, and the padded plane size.  Compiling a session packs
/// every constant conv weight panel, which is pure overhead to repeat when
/// the fullchip driver solves hundreds of equally-sized tiles against one
/// frozen surrogate — with the cache they all share one compiled session
/// (sessions are immutable and thread-safe, so sharing is free).  Thread-
/// safe; a weight update changes the hash and naturally misses.  Emits
/// surrogate.session_cache_hits / surrogate.session_cache_misses counters.
std::shared_ptr<const SurrogateInference> acquire_surrogate_inference(
    const CmpSurrogate& surrogate, int padded_rows, int padded_cols);

/// Number of cached sessions (tests/diagnostics).
std::size_t surrogate_inference_cache_size();

/// Drops every cached session (tests; in-flight shared_ptrs stay valid).
void clear_surrogate_inference_cache();

}  // namespace neurfill
