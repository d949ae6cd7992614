#include "surrogate/infer.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "nn/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace neurfill {

namespace {

/// Extraction-layer constants derived once per call; float-cast exactly as
/// assemble_layer_input does.
struct ExtractConsts {
  float inv_n;
  float dperim;
  float wdum;
  float height_scale;
  float height_offset;
  float chain_k;
};

ExtractConsts make_consts(const FeatureConstants& fc, double topo_transfer,
                          std::size_t n) {
  ExtractConsts c;
  // mean() multiplies the blocked-double sum by a float reciprocal; keep
  // the identical two-step rounding.
  c.inv_n = 1.0f / static_cast<float>(static_cast<std::int64_t>(n));
  c.dperim = static_cast<float>(4.0 * fc.window_um * fc.window_um /
                                fc.dummy_edge_um / fc.perimeter_norm);
  c.wdum = static_cast<float>(fc.dummy_edge_um /
                              (fc.dummy_edge_um + fc.width_ref_um));
  c.height_scale = static_cast<float>(fc.height_scale);
  c.height_offset = static_cast<float>(fc.height_offset);
  c.chain_k = static_cast<float>(topo_transfer / fc.height_scale);
  return c;
}

/// Extraction layer (assemble_layer_input) for ONE candidate layer: fills
/// the 7 feature planes of `input` from the static features, the candidate
/// fill, and the chained incoming plane.  Chained elementwise steps go
/// through the kernel maps with materialized intermediates — the same
/// kernels, in the same order, as the autograd ops, so each plane is
/// rounded identically (no re-association or fused-multiply-add
/// differences between the paths).  `tmp` is one n-float scratch plane.
void assemble_input_planes(const StaticLayerFeatures& layer, const float* fill,
                           const float* incoming, float* input, float* tmp,
                           std::size_t n, const ExtractConsts& c) {
  const std::int64_t n64 = static_cast<std::int64_t>(n);
  float* density = input;
  float* perim = input + n;
  float* width = input + 2 * n;
  float* chan_incoming = input + 3 * n;
  float* chan_slack = input + 4 * n;
  float* global_plane = input + 5 * n;
  float* pressure = input + 6 * n;
  // density = rho + fill
  nn::binary_map(nn::BinaryKind::kAdd, layer.wire_density.data(), fill,
                 density, n64);
  // perim = perim0 + fill * dperim
  nn::unary_map(nn::UnaryKind::kMulScalar, c.dperim, fill, perim, n64);
  nn::binary_map(nn::BinaryKind::kAdd, layer.perimeter.data(), perim, perim,
                 n64);
  // width = (wnum0 + fill * wdum) / (density + 1e-3)
  nn::unary_map(nn::UnaryKind::kMulScalar, c.wdum, fill, width, n64);
  nn::binary_map(nn::BinaryKind::kAdd, layer.width_blend_num.data(), width,
                 width, n64);
  nn::unary_map(nn::UnaryKind::kAddScalar, 1e-3f, density, tmp, n64);
  nn::binary_map(nn::BinaryKind::kDiv, width, tmp, width, n64);
  std::memcpy(chan_incoming, incoming, n * sizeof(float));
  std::memcpy(chan_slack, layer.slack.data(), n * sizeof(float));
  // Global mean density, broadcast (ones * mean is exactly the mean).
  const float global_mean =
      static_cast<float>(nn::reduce_sum(density, n64)) * c.inv_n;
  for (std::size_t i = 0; i < n; ++i) global_plane[i] = global_mean;
  for (std::size_t i = 0; i < n; ++i) pressure[i] = 1.0f;
}

/// Hard-center and denormalize one candidate's network output to Angstrom
/// (forward_heights' arithmetic), then — when `incoming` is non-null —
/// write the next layer's chained incoming plane:
/// incoming_{l+1} = (h_ang - mean(h_ang)) * topo_transfer/scale.
void postprocess_heights(const float* h_norm, float* h_ang, float* incoming,
                         std::size_t n, const ExtractConsts& c) {
  const std::int64_t n64 = static_cast<std::int64_t>(n);
  const float mean_h = static_cast<float>(nn::reduce_sum(h_norm, n64)) * c.inv_n;
  for (std::size_t i = 0; i < n; ++i) h_ang[i] = h_norm[i] - mean_h;
  nn::unary_map(nn::UnaryKind::kMulScalar, c.height_scale, h_ang, h_ang, n64);
  nn::unary_map(nn::UnaryKind::kAddScalar, c.height_offset, h_ang, h_ang, n64);
  if (incoming != nullptr) {
    const float mean_ang =
        static_cast<float>(nn::reduce_sum(h_ang, n64)) * c.inv_n;
    for (std::size_t i = 0; i < n; ++i) incoming[i] = h_ang[i] - mean_ang;
    nn::unary_map(nn::UnaryKind::kMulScalar, c.chain_k, incoming, incoming,
                  n64);
  }
}

/// Forward intermediates of the objective layers the adjoints read.
struct ObjectiveTrace {
  struct Layer {
    float mean_h = 0.0f, var = 0.0f, sig = 0.0f, thr = 0.0f;
    std::vector<float> col_mean;  ///< per padded column
  };
  std::vector<Layer> layers;
  float shifted_in[3] = {};  ///< log input raw + 1e-6 (calibrated metrics)
  float calibrated[3] = {};  ///< exp output, the metric after calibration
  float score_in[3] = {};    ///< Eq. 6 relu input, 1 - metric / beta
};

/// First contribution into a cotangent the autograd sweep zero-fills: the
/// explicit `0 +` keeps its sign-of-zero behaviour (-0 becomes +0).
inline float first(float v) { return 0.0f + v; }

/// The autograd softplus derivative at x (ops_elementwise.cpp), verbatim.
inline float softplus_slope(float eta, float x) {
  const float z = eta * x;
  return z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                   : std::exp(z) / (1.0f + std::exp(z));
}

/// Writes the validity mask of `head`'s rows x cols region of a padded
/// plane into `mask`; rebuilt per call (cheap, and heads differ between
/// networks).
float* build_mask(const ObjectiveHead& head, int pc, std::size_t n,
                  float* mask) {
  std::memset(mask, 0, n * sizeof(float));
  for (std::size_t i = 0; i < head.rows; ++i)
    for (std::size_t j = 0; j < head.cols; ++j)
      mask[i * static_cast<std::size_t>(pc) + j] = 1.0f;
  return mask;
}

/// Objective layers over flat planes, optionally recording the forward
/// intermediates for the adjoints.  Every chained multiply-add is either a
/// kernel call or split into single-operation statements, so no
/// re-association or fused multiply-add can change the rounding relative
/// to the op-by-op autograd evaluation.
ObjectiveValue score_planes(const ObjectiveHead& head, int pr, int pc,
                            const std::vector<std::vector<float>>& heights,
                            ObjectiveTrace* trace) {
  const std::size_t n = static_cast<std::size_t>(pr) * pc;
  const std::int64_t n64 = static_cast<std::int64_t>(n);

  // Per-thread scratch: evaluate_batch scores candidates concurrently, and
  // repeated calls must not allocate in steady state.
  static thread_local AlignedBuffer<float> tls_score;
  float* scratch = tls_score.ensure(3 * n + static_cast<std::size_t>(pc));
  const float* mask = build_mask(head, pc, n, scratch);
  float* hm = scratch + n;
  float* work = scratch + 2 * n;
  float* col = scratch + 3 * n;
  const float count = static_cast<float>(head.rows * head.cols);
  const float inv_count = 1.0f / count;
  const float inv_rows = 1.0f / static_cast<float>(head.rows);
  if (trace) trace->layers.resize(heights.size());

  float total[3] = {0.0f, 0.0f, 0.0f};
  for (std::size_t l = 0; l < heights.size(); ++l) {
    const float* h = heights[l].data();
    nn::binary_map(nn::BinaryKind::kMul, h, mask, hm, n64);
    const float mean_h =
        static_cast<float>(nn::reduce_sum(hm, n64)) * inv_count;
    // var = sum(((h - mean) * mask)^2) / count
    for (std::size_t i = 0; i < n; ++i) work[i] = h[i] - mean_h;
    nn::binary_map(nn::BinaryKind::kMul, work, mask, work, n64);
    nn::unary_map(nn::UnaryKind::kSquare, 0.0f, work, work, n64);
    const float var =
        static_cast<float>(nn::reduce_sum(work, n64)) * inv_count;
    total[0] = total[0] + var;
    // Line deviation: per-column mean over the valid rows (sum_axis is a
    // serial double accumulation per column, in row order).
    for (int j = 0; j < pc; ++j) {
      double acc = 0.0;
      for (int i = 0; i < pr; ++i)
        acc += static_cast<double>(
            hm[static_cast<std::size_t>(i) * pc + static_cast<std::size_t>(j)]);
      col[static_cast<std::size_t>(j)] = static_cast<float>(acc) * inv_rows;
    }
    for (int i = 0; i < pr; ++i)
      for (int j = 0; j < pc; ++j) {
        const std::size_t k =
            static_cast<std::size_t>(i) * pc + static_cast<std::size_t>(j);
        work[k] = h[k] - col[static_cast<std::size_t>(j)];
      }
    nn::binary_map(nn::BinaryKind::kMul, work, mask, work, n64);
    nn::unary_map(nn::UnaryKind::kAbs, 0.0f, work, work, n64);
    total[1] = total[1] + static_cast<float>(nn::reduce_sum(work, n64));
    // Outliers: smooth max(0, H - (mean + 3*sigma_l)).
    const float var_eps = var + 1e-6f;
    const float sig_l = std::sqrt(var_eps);
    const float three_sig = sig_l * 3.0f;
    const float threshold = mean_h + three_sig;
    for (std::size_t i = 0; i < n; ++i) work[i] = h[i] - threshold;
    nn::unary_map(nn::UnaryKind::kSoftplus, head.eta, work, work, n64);
    nn::binary_map(nn::BinaryKind::kMul, work, mask, work, n64);
    total[2] = total[2] + static_cast<float>(nn::reduce_sum(work, n64));
    if (trace) {
      ObjectiveTrace::Layer& t = trace->layers[l];
      t.mean_h = mean_h;
      t.var = var;
      t.sig = sig_l;
      t.thr = threshold;
      t.col_mean.assign(col, col + pc);
    }
  }

  // Simulator-anchored log-space corrections (identity unless calibrated):
  // corrected = exp(a) * (raw + eps)^b; then the Eq. 6 score terms and the
  // Eq. 5b merge add(term_sigma, add(term_star, term_ol)).
  float term[3];
  for (int m = 0; m < 3; ++m) {
    const CmpNetwork::MetricCalibration& c = head.cal[m];
    if (c.a != 0.0 || c.b != 1.0) {
      const float shifted = total[m] + 1e-6f;
      const float log_t = std::log(shifted);
      const float scaled = log_t * static_cast<float>(c.b);
      const float biased = scaled + static_cast<float>(c.a);
      total[m] = std::exp(biased);
      if (trace) trace->shifted_in[m] = shifted;
    }
    const float scale = -1.0f / static_cast<float>(head.beta[m]);
    const float scaled = total[m] * scale;
    const float shifted = scaled + 1.0f;
    const float clipped = shifted > 0.0f ? shifted : 0.0f;
    term[m] = clipped * static_cast<float>(head.alpha[m]);
    if (trace) {
      trace->calibrated[m] = total[m];
      trace->score_in[m] = shifted;
    }
  }
  const float tail = term[1] + term[2];
  ObjectiveValue v;
  v.s_plan = term[0] + tail;
  v.sigma = total[0];
  v.sigma_star = total[1];
  v.outliers = total[2];
  return v;
}

}  // namespace

ObjectiveValue score_height_planes(
    const ObjectiveHead& head, int padded_rows, int padded_cols,
    const std::vector<std::vector<float>>& heights) {
  return score_planes(head, padded_rows, padded_cols, heights, nullptr);
}

SurrogateInference::SurrogateInference(const CmpSurrogate& surrogate,
                                       int padded_rows, int padded_cols)
    : features_(surrogate.config().features),
      topo_transfer_(surrogate.config().topo_transfer),
      session_(surrogate.unet(), padded_rows, padded_cols,
               nn::InferenceOptions{/*reuse_buffers=*/true, /*fuse=*/true,
                                    /*prepack_weights=*/true,
                                    /*max_batch=*/kDefaultMaxBatch}),
      rows_(padded_rows),
      cols_(padded_cols) {
  if (surrogate.config().unet.in_channels != FeatureConstants::kInChannels)
    throw std::invalid_argument(
        "SurrogateInference: UNet in_channels must match the feature planes");
}

void SurrogateInference::predict_heights(
    const std::vector<StaticLayerFeatures>& layers,
    const std::vector<const float*>& fills,
    std::vector<std::vector<float>>& heights) const {
  if (layers.empty() || layers.size() != fills.size())
    throw std::invalid_argument("predict_heights: layer/fill mismatch");
  const std::size_t n =
      static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
  const ExtractConsts c = make_consts(features_, topo_transfer_, n);

  // Grow-only per-thread scratch: the 7-channel input plane, the network
  // output, the chained incoming plane, and one temporary.
  static thread_local AlignedBuffer<float> tls_scratch;
  float* scratch = tls_scratch.ensure((FeatureConstants::kInChannels + 3) * n);
  float* input = scratch;
  float* h_norm = scratch + FeatureConstants::kInChannels * n;
  float* incoming = h_norm + n;
  float* tmp = incoming + n;
  std::memset(incoming, 0, n * sizeof(float));  // bottom layer sees a plane

  heights.resize(layers.size());  // re-used capacity on repeated calls
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const StaticLayerFeatures& layer = layers[l];
    NF_CHECK(layer.padded_rows == rows_ && layer.padded_cols == cols_,
             "SurrogateInference: layer %zu padded to %dx%d, session compiled "
             "for %dx%d",
             l, layer.padded_rows, layer.padded_cols, rows_, cols_);
    assemble_input_planes(layer, fills[l], incoming, input, tmp, n, c);

    session_.run(input, h_norm, /*batch=*/1);

    std::vector<float>& h_ang = heights[l];
    h_ang.resize(n);
    postprocess_heights(h_norm, h_ang.data(),
                        l + 1 < layers.size() ? incoming : nullptr, n, c);
  }
}

void SurrogateInference::predict_heights_batch(
    const std::vector<StaticLayerFeatures>& layers,
    const std::vector<std::vector<const float*>>& fills,
    std::vector<std::vector<std::vector<float>>>& heights) const {
  heights.resize(fills.size());
  if (fills.empty()) return;
  if (layers.empty())
    throw std::invalid_argument("predict_heights_batch: no layers");
  for (const auto& candidate : fills)
    if (candidate.size() != layers.size())
      throw std::invalid_argument("predict_heights_batch: layer/fill mismatch");
  NF_TRACE_SPAN("surrogate.predict_batch");

  const std::size_t B = fills.size();
  const std::size_t n =
      static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
  const std::size_t in_stride = FeatureConstants::kInChannels * n;
  const ExtractConsts c = make_consts(features_, topo_transfer_, n);

  // Caller-thread scratch: [B, C, n] input stack, [B, n] network output,
  // [B, n] chained incoming planes.  The per-candidate `tmp` plane lives in
  // worker-thread scratch inside the loops below, because candidates are
  // processed concurrently.
  static thread_local AlignedBuffer<float> tls_batch_scratch;
  float* scratch =
      tls_batch_scratch.ensure(B * (in_stride + 2 * n));
  float* input_all = scratch;
  float* h_norm_all = scratch + B * in_stride;
  float* incoming_all = h_norm_all + B * n;
  std::memset(incoming_all, 0, B * n * sizeof(float));

  for (std::size_t b = 0; b < B; ++b) heights[b].resize(layers.size());

  // Extraction costs ~10 ns per element across the seven channel passes.
  const std::size_t cand_grain =
      runtime::grain_for_cost(10.0 * static_cast<double>(n), B);
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const StaticLayerFeatures& layer = layers[l];
    NF_CHECK(layer.padded_rows == rows_ && layer.padded_cols == cols_,
             "SurrogateInference: layer %zu padded to %dx%d, session compiled "
             "for %dx%d",
             l, layer.padded_rows, layer.padded_cols, rows_, cols_);
    // Candidates are independent within a layer: extraction writes disjoint
    // [C, n] slices of the batched input, with the identical kernel
    // sequence a solo predict_heights would run on that candidate — so the
    // outer decomposition never changes any candidate's bytes.
    runtime::parallel_for(cand_grain, B, [&, l](std::size_t b0,
                                                std::size_t b1) {
      static thread_local AlignedBuffer<float> tls_tmp;
      float* tmp = tls_tmp.ensure(n);
      for (std::size_t b = b0; b < b1; ++b)
        assemble_input_planes(layer, fills[b][l], incoming_all + b * n,
                              input_all + b * in_stride, tmp, n, c);
    });

    // One batched UNet forward for all candidates; batch-B output is
    // byte-identical to B batch-1 runs sample for sample (session
    // contract, pinned by tests/test_inference.cpp).
    session_.run(input_all, h_norm_all, static_cast<int>(B));

    const bool chain = l + 1 < layers.size();
    runtime::parallel_for(cand_grain, B, [&, l, chain](std::size_t b0,
                                                       std::size_t b1) {
      for (std::size_t b = b0; b < b1; ++b) {
        std::vector<float>& h_ang = heights[b][l];
        h_ang.resize(n);
        postprocess_heights(h_norm_all + b * n, h_ang.data(),
                            chain ? incoming_all + b * n : nullptr, n, c);
      }
    });
  }
}

ObjectiveValue SurrogateInference::evaluate_with_vjp(
    const std::vector<StaticLayerFeatures>& layers,
    const std::vector<const float*>& fills, const ObjectiveHead& head,
    std::vector<std::vector<float>>& heights,
    std::vector<std::vector<float>>& d_fills) const {
  if (layers.empty() || layers.size() != fills.size())
    throw std::invalid_argument("evaluate_with_vjp: layer/fill mismatch");
  NF_TRACE_SPAN("surrogate.evaluate_vjp");
  const std::size_t L = layers.size();
  const std::size_t n =
      static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
  const std::size_t pc = static_cast<std::size_t>(cols_);
  const std::size_t in_floats = FeatureConstants::kInChannels * n;
  const ExtractConsts c = make_consts(features_, topo_transfer_, n);

  // Grow-only per-thread scratch: one reverse-pass record per layer (all
  // are live until the top-down sweep reaches that layer), the forward's
  // input stack / network output / chained incoming / temporary planes,
  // the validity mask, and the cotangent planes.
  const std::size_t rec = session_.saved_floats();
  static thread_local AlignedBuffer<float> tls_vjp;
  float* records = tls_vjp.ensure(L * rec + 2 * in_floats + 7 * n + 2 * pc);
  float* input = records + L * rec;
  float* d_input = input + in_floats;
  float* h_norm = d_input + in_floats;
  float* incoming = h_norm + n;
  float* tmp = incoming + n;
  float* mask = tmp + n;
  float* d_hang = mask + n;
  float* d_hnorm = d_hang + n;
  float* d_inc = d_hnorm + n;
  float* d_colmean = d_inc + n;
  float* d_colsum = d_colmean + pc;

  // Saving forward: predict_heights' arithmetic, each UNet run recording
  // what its reverse pass reads.
  std::memset(incoming, 0, n * sizeof(float));
  heights.resize(L);
  for (std::size_t l = 0; l < L; ++l) {
    NF_CHECK(layers[l].padded_rows == rows_ && layers[l].padded_cols == cols_,
             "SurrogateInference: layer %zu padded to %dx%d, session compiled "
             "for %dx%d",
             l, layers[l].padded_rows, layers[l].padded_cols, rows_, cols_);
    assemble_input_planes(layers[l], fills[l], incoming, input, tmp, n, c);
    session_.run_saving(input, h_norm, records + l * rec);
    heights[l].resize(n);
    postprocess_heights(h_norm, heights[l].data(),
                        l + 1 < L ? incoming : nullptr, n, c);
  }
  static thread_local ObjectiveTrace tls_trace;
  ObjectiveTrace& trace = tls_trace;
  const ObjectiveValue value = score_planes(head, rows_, cols_, heights, &trace);

  // Merge (Eq. 5b), score (Eq. 6) and calibration adjoints, seeded with
  // dS_plan = 1: cotangents of the three raw metric totals.
  const float d_tail = first(1.0f * 1.0f);
  const float d_term[3] = {first(1.0f * 1.0f), first(d_tail * 1.0f),
                           first(d_tail * 1.0f)};
  float d_total[3];
  for (int m = 0; m < 3; ++m) {
    const float d_clipped = first(d_term[m] * static_cast<float>(head.alpha[m]));
    const float d_shifted =
        first(d_clipped * (trace.score_in[m] > 0.0f ? 1.0f : 0.0f));
    const float d_scaled = first(d_shifted * 1.0f);
    float d = first(d_scaled * (-1.0f / static_cast<float>(head.beta[m])));
    const CmpNetwork::MetricCalibration& cal = head.cal[m];
    if (cal.a != 0.0 || cal.b != 1.0) {
      const float d_biased = first(d * trace.calibrated[m]);  // exp' = exp
      const float d_scaled_log = first(d_biased * 1.0f);
      const float d_log = first(d_scaled_log * static_cast<float>(cal.b));
      const float d_in = first(d_log * (1.0f / trace.shifted_in[m]));
      d = first(d_in * 1.0f);
    }
    d_total[m] = d;
  }

  // Top-down over the layers.  Each height plane's cotangent accumulates
  // in the autograd sweep's order: the outlier term, the line-deviation
  // term, the next layer's chained incoming plane (its centred copy, then
  // its mean), the variance term, and last the masked copy shared by the
  // mean and the column means.
  const float count = static_cast<float>(head.rows * head.cols);
  const float inv_count = 1.0f / count;
  const float inv_rows = 1.0f / static_cast<float>(head.rows);
  build_mask(head, cols_, n, mask);
  float d_sigma_l = d_total[0], d_star_l = d_total[1], d_ol_l = d_total[2];
  float pending_ha_sum = 0.0f;  // layer l+1's chained-mean cotangent
  d_fills.resize(L);
  for (std::size_t l = L; l-- > 0;) {
    const float* h = heights[l].data();
    const ObjectiveTrace::Layer& tr = trace.layers[l];

    // Outliers (Eq. 10c): softplus(h - (mean + 3 sigma)) over the mask.
    const float d_sp_sum = first(d_ol_l * 1.0f);
    float d_thr = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
      const float d_sp = first(first(d_sp_sum) * mask[i]);
      const float d_exc = first(d_sp * softplus_slope(head.eta, h[i] - tr.thr));
      d_hang[i] = first(d_exc * 1.0f);
      d_thr += d_exc * -1.0f;
    }
    float d_mean_h = first(d_thr * 1.0f);
    const float d_sig = first(first(d_thr * 1.0f) * 3.0f);
    float d_var = first(first(d_sig * (0.5f / tr.sig)) * 1.0f);

    // Line deviation (Eq. 10b): |(h - column mean) * mask|.
    const float d_abs_sum = first(d_star_l * 1.0f);
    std::memset(d_colmean, 0, pc * sizeof(float));
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t j = k % pc;
      const float dev = (h[k] - tr.col_mean[j]) * mask[k];
      const float sign = dev > 0.0f ? 1.0f : (dev < 0.0f ? -1.0f : 0.0f);
      const float d_cd0 = first(first(first(d_abs_sum) * sign) * mask[k]);
      d_hang[k] += d_cd0 * 1.0f;
      d_colmean[j] += d_cd0 * -1.0f;
    }
    for (std::size_t j = 0; j < pc; ++j)
      d_colsum[j] = first(d_colmean[j] * inv_rows);

    if (l + 1 < L) {  // chained into layer l+1's incoming plane
      for (std::size_t i = 0; i < n; ++i) d_hang[i] += d_inc[i] * 1.0f;
      for (std::size_t i = 0; i < n; ++i) d_hang[i] += pending_ha_sum;
    }

    // Variance (Eq. 10a): mean(((h - mean) * mask)^2).
    d_var = d_var + d_sigma_l * 1.0f;
    const float d_sq_sum = first(d_var * inv_count);
    for (std::size_t i = 0; i < n; ++i) {
      const float dev = (h[i] - tr.mean_h) * mask[i];
      const float d_dev = first(first(d_sq_sum) * (2.0f * dev));
      const float d_d0 = first(d_dev * mask[i]);
      d_hang[i] += d_d0 * 1.0f;
      d_mean_h += d_d0 * -1.0f;
    }
    const float d_hm_sum = first(d_mean_h * inv_count);
    for (std::size_t k = 0; k < n; ++k) {
      const float d_hm = first(d_colsum[k % pc]) + d_hm_sum;
      d_hang[k] += d_hm * mask[k];
    }

    // Hard-centring and denormalization back to the network output.
    float d_hn_mean = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
      const float d_hc = first(first(d_hang[i] * 1.0f) * c.height_scale);
      d_hnorm[i] = first(d_hc * 1.0f);
      d_hn_mean += d_hc * -1.0f;
    }
    const float d_hn_sum = first(d_hn_mean * c.inv_n);
    for (std::size_t i = 0; i < n; ++i) d_hnorm[i] += d_hn_sum;

    session_.run_vjp(records + l * rec, d_hnorm, d_input);

    // Extraction layer: the feature planes' cotangents pass the concat
    // chain (each hop a fresh zero-filled buffer) back to density,
    // perimeter, width, the global-mean plane and the chained incoming.
    const float* dc_density = d_input;
    const float* dc_perim = d_input + n;
    const float* dc_width = d_input + 2 * n;
    const float* dc_incoming = d_input + 3 * n;
    const float* dc_global = d_input + 5 * n;
    float d_gmean = 0.0f;
    for (std::size_t i = 0; i < n; ++i) d_gmean += first(dc_global[i]) * 1.0f;
    const float d_gsum = first(d_gmean * c.inv_n);
    if (l > 0) {
      float d_ha_mean = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        d_inc[i] = first(first(dc_incoming[i]) * c.chain_k);
        d_ha_mean += d_inc[i] * -1.0f;
      }
      pending_ha_sum = first(d_ha_mean * c.inv_n);
    }
    const StaticLayerFeatures& layer = layers[l];
    const float* fill = fills[l];
    std::vector<float>& d_fill = d_fills[l];
    d_fill.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const float dens_eps = (layer.wire_density[i] + fill[i]) + 1e-3f;
      const float wsum = layer.width_blend_num[i] + fill[i] * c.wdum;
      const float dc_w = first(dc_width[i]);
      const float d_wsum = first(dc_w * (1.0f / dens_eps));
      const float d_dens_eps = first(dc_w * (-wsum / (dens_eps * dens_eps)));
      float d_density = first(d_gsum);
      d_density += d_dens_eps * 1.0f;
      float d_f = first(first(d_wsum * 1.0f) * c.wdum);
      d_density += first(dc_density[i]);
      d_f += first(first(dc_perim[i]) * 1.0f) * c.dperim;
      d_f += d_density * 1.0f;
      d_fill[i] = d_f;
    }

    d_sigma_l = first(d_sigma_l * 1.0f);
    d_star_l = first(d_star_l * 1.0f);
    d_ol_l = first(d_ol_l * 1.0f);
  }
  return value;
}

// ---------------------------------------------------------------------------
// Session cache
// ---------------------------------------------------------------------------

namespace {

std::uint64_t fnv1a(const void* bytes, std::size_t len, std::uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t double_bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Every input that shapes a compiled session, flattened to integers; the
/// lexicographic std::map order is the cache order.
std::vector<std::uint64_t> make_cache_key(const CmpSurrogate& surrogate,
                                          int padded_rows, int padded_cols) {
  const SurrogateConfig& cfg = surrogate.config();
  std::uint64_t wh = 1469598103934665603ull;  // FNV offset basis
  for (const nn::Tensor& p : surrogate.unet().parameters()) {
    const std::int64_t numel = p.numel();
    wh = fnv1a(&numel, sizeof(numel), wh);
    wh = fnv1a(p.data(), static_cast<std::size_t>(numel) * sizeof(float), wh);
  }
  return {
      wh,
      static_cast<std::uint64_t>(cfg.unet.in_channels),
      static_cast<std::uint64_t>(cfg.unet.out_channels),
      static_cast<std::uint64_t>(cfg.unet.base_channels),
      static_cast<std::uint64_t>(cfg.unet.depth),
      static_cast<std::uint64_t>(cfg.unet.use_group_norm ? 1 : 0),
      double_bits(cfg.features.window_um),
      double_bits(cfg.features.dummy_edge_um),
      double_bits(cfg.features.perimeter_norm),
      double_bits(cfg.features.width_ref_um),
      double_bits(cfg.features.height_scale),
      double_bits(cfg.features.height_offset),
      double_bits(cfg.topo_transfer),
      static_cast<std::uint64_t>(padded_rows),
      static_cast<std::uint64_t>(padded_cols),
  };
}

struct SessionCache {
  std::mutex mu;
  std::map<std::vector<std::uint64_t>, std::shared_ptr<const SurrogateInference>>
      entries;
};

SessionCache& session_cache() {
  static SessionCache cache;  // never destroyed before last user in practice
  return cache;
}

}  // namespace

std::shared_ptr<const SurrogateInference> acquire_surrogate_inference(
    const CmpSurrogate& surrogate, int padded_rows, int padded_cols) {
  std::vector<std::uint64_t> key =
      make_cache_key(surrogate, padded_rows, padded_cols);
  SessionCache& cache = session_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.entries.find(key);
    if (it != cache.entries.end()) {
      NF_COUNTER_ADD("surrogate.session_cache_hits", 1);
      return it->second;
    }
  }
  // Compile outside the lock: tile solves run concurrently and compilation
  // (weight packing, arena planning) is the expensive part.  Two threads
  // racing on a cold key both compile; the first insert wins the map and
  // the loser's session just serves its own caller — identical bytes either
  // way, since compilation is a pure function of the key.
  auto session = std::make_shared<const SurrogateInference>(
      surrogate, padded_rows, padded_cols);
  NF_COUNTER_ADD("surrogate.session_cache_misses", 1);
  std::lock_guard<std::mutex> lock(cache.mu);
  auto [it, inserted] = cache.entries.emplace(std::move(key), std::move(session));
  return it->second;
}

std::size_t surrogate_inference_cache_size() {
  SessionCache& cache = session_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.entries.size();
}

void clear_surrogate_inference_cache() {
  SessionCache& cache = session_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.entries.clear();
}

}  // namespace neurfill
