#pragma once

#include <cstddef>
#include <cstdint>

// The compute kernels of src/nn (docs/inference.md).  Every primitive the
// tensor ops and the inference engine need — GEMM, convolution, elementwise
// maps, the deterministic reduction, group norm, pooling, upsampling,
// concatenation, and the fused inference block — is a plain function here.
// `ops_*.cpp` (the autograd layer), `src/nn/infer` (the tape-free fast
// path) and `src/surrogate/infer.*` call them directly.
//
// Contract, binding for every kernel:
//   * Determinism: each kernel's result is bitwise identical at any thread
//     count, and identical across repeated calls with the same inputs.
//     Work decomposition is a pure function of the problem shape.
//   * Synchronous: kernels return only after the output is fully written.
//   * Thread-safe: concurrent calls from different threads on disjoint
//     outputs are safe (per-thread scratch, no shared mutable state).
//   * Aliasing: unless a parameter is documented in-place, output buffers
//     must not overlap inputs.
//   * Rounding: docs/inference.md pins the accumulation orders (float
//     elementwise, blocked-double reductions, double group statistics, the
//     GEMM's K-slab chains) that the fused, batched and prepacked variants
//     reproduce bitwise.

namespace neurfill::nn {

/// Single-precision GEMM, row-major storage: C (MxN) = A op * B op, and
/// `accumulate=true` adds into C instead of overwriting.  All three
/// variants share one cache-blocked, register-tiled micro-kernel: B is
/// packed into Nr-wide column slivers and A into Mr-interleaved panels
/// (transposition is absorbed by the packing gather), K is split into
/// cache-resident slabs, and each (Mr x Nr) C tile is owned by exactly one
/// parallel block with k accumulated in ascending order — so results are
/// bitwise identical at every thread count.  See docs/runtime.md.
///
/// C = A(MxK) * B(KxN)
void gemm_nn(int M, int N, int K, const float* A, const float* B, float* C,
             bool accumulate);
/// C = A(MxK) * B(NxK)^T
void gemm_nt(int M, int N, int K, const float* A, const float* B, float* C,
             bool accumulate);
/// C = A(KxM)^T * B(KxN)
void gemm_tn(int M, int N, int K, const float* A, const float* B, float* C,
             bool accumulate);

/// Elementwise unary maps.  `p` below is the op parameter: the addend for
/// kAddScalar, the factor for kMulScalar, the sharpness eta for kSoftplus;
/// ignored otherwise.
enum class UnaryKind {
  kAddScalar,
  kMulScalar,
  kRelu,
  kExp,
  kLog,
  kAbs,
  kSqrt,
  kSquare,
  kSoftplus,
};

/// Elementwise binary maps over same-length buffers.
enum class BinaryKind { kAdd, kSub, kMul, kDiv };

/// Activation applied by the fused inference block (conv2d_gn_act_fwd).
enum class ActKind { kNone, kRelu };

/// Geometry of one 2-D convolution: input [N, C, H, W], filters
/// [O, C, kh, kw], square stride/zero-padding, output [N, O, Hout, Wout].
struct Conv2dGeom {
  int batch = 1;
  int in_channels = 0;
  int height = 0;
  int width = 0;
  int out_channels = 0;
  int kernel_h = 0;
  int kernel_w = 0;
  int stride = 1;
  int padding = 0;
  int out_height = 0;
  int out_width = 0;
};

/// Geometry of group normalization over [N, C, H, W] with C % groups == 0.
struct GroupNormGeom {
  int batch = 0;
  int channels = 0;
  int height = 0;
  int width = 0;
  int groups = 1;
  float eps = 1e-5f;
};

/// y = conv2d(x, w) + bias through im2col and the packed GEMM.  `bias` may
/// be null (no bias add).  y is overwritten.
void conv2d_fwd(const Conv2dGeom& g, const float* x, const float* w,
                const float* bias, float* y);

/// Backward of conv2d_fwd: accumulates (never overwrites) the gradients of
/// any non-null output.  `gx` needs `w`; `gw` needs `x`; pass null for
/// gradients not required.  `x` may be null when `gw` is: the input
/// gradient depends on the filters and `gy` only, so a frozen-weight
/// reverse pass needs no saved input.
///
/// `direct` chooses the input gradient's route when `gw` is null: true
/// runs the direct backward-data kernel on the geometries it takes (stride
/// 1, padding below the kernel extent, not the identity 1x1 conv, which
/// keeps its GEMM); false, and every other call, runs W^T·gy through the
/// packed GEMM and scatters it with col2im, the chain autograd and the
/// tests keep as the reference.  Both give the same bits
/// (docs/inference.md, "The compiled reverse pass").
void conv2d_bwd(const Conv2dGeom& g, const float* x, const float* w,
                const float* gy, float* gx, float* gw, float* gb,
                bool direct = false);

/// y[i] = f(x[i]) over n contiguous elements; `p` as documented on
/// UnaryKind.  In-place (y == x) is allowed.
void unary_map(UnaryKind op, float p, const float* x, float* y,
               std::int64_t n);

/// y[i] = f(a[i], b[i]) over n contiguous elements.  In-place with either
/// operand is allowed.
void binary_map(BinaryKind op, const float* a, const float* b, float* y,
                std::int64_t n);

/// Deterministic blocked sum: float inputs accumulated in double within
/// fixed-shape blocks, block partials summed in index order.  The result
/// is bitwise identical at any thread count (docs/runtime.md).
double reduce_sum(const float* x, std::int64_t n);

/// y = gamma * (x - mean) / sqrt(var + eps) + beta per (sample, group),
/// statistics in double over the group in flat index order.  When
/// `mean_out`/`istd_out` are non-null they receive the per-(n,group) mean
/// and inverse standard deviation (batch*groups entries each) for the
/// backward.
void group_norm_fwd(const GroupNormGeom& g, const float* x, const float* gamma,
                    const float* beta, float* y, double* mean_out,
                    double* istd_out);

/// Backward of group_norm_fwd from its input `x`, the per-(n,group)
/// `mean`/`istd` it reported, `gamma`, and the output gradient `gy`:
/// accumulates (never overwrites) into each non-null output — `gx`
/// [N,C,H,W], `ggamma`/`gbeta` [C].  The group-wide sums run in double in
/// flat index order; the autograd op and the compiled reverse pass
/// (nn/infer) both call this, so their input gradients agree bitwise.
void group_norm_bwd(const GroupNormGeom& g, const float* x, const double* mean,
                    const double* istd, const float* gamma, const float* gy,
                    float* gx, float* ggamma, float* gbeta);

/// 2x2/stride-2 max pool over `planes` independent HxW planes (H, W even).
/// When `argmax` is non-null it receives, per output element, the flat
/// input index of the selected maximum (ties resolved to the earliest
/// index — fixed order, deterministic).
void maxpool2x2_fwd(std::int64_t planes, int height, int width, const float* x,
                    float* y, std::int64_t* argmax);

/// Nearest-neighbour 2x upsample over `planes` independent HxW planes.
void upsample2x_fwd(std::int64_t planes, int height, int width, const float* x,
                    float* y);

/// y[n] = concat(a[n], b[n]) along channels: a is [N, Ca, plane], b is
/// [N, Cb, plane], y is [N, Ca+Cb, plane] with `plane` = H*W.
void concat_channels_fwd(int batch, int channels_a, int channels_b,
                         std::int64_t plane, const float* a, const float* b,
                         float* y);

/// Floats of the pre-packed panel conv_weight_pack builds for the constant
/// filter tensor of conv2d_gn_act_fwd, or 0 when this geometry has no
/// packed form (callers then skip prepacking).  The layout is opaque: a
/// panel is valid only for the exact geometry it was sized for (the batch
/// aside).
std::size_t conv_weight_pack_floats(const Conv2dGeom& g);

/// Packs the [O, C, kh, kw] filter tensor `w` into `dst`
/// (conv_weight_pack_floats(g) floats).  Only valid when that size is
/// non-zero.
void conv_weight_pack(const Conv2dGeom& g, const float* w, float* dst);

/// What conv2d_gn_act_fwd also writes for a reverse pass.  Every pointer
/// is optional; the normalization outputs are read only when groups > 0
/// and the mask only when the activation is ReLU.
struct ConvBlockRecord {
  /// [batch, O, Hout, Wout]: the conv output after the bias add, before
  /// normalization.
  float* prenorm = nullptr;
  /// [batch * groups] each: the per-(sample, group) mean and inverse
  /// standard deviation, as group_norm_fwd reports them.
  double* mean = nullptr;
  double* istd = nullptr;
  /// relu_mask_words(batch * O, Hout * Wout) words: y > 0, one bit per
  /// output element (layout on relu_mask_words).
  std::uint16_t* relu_mask = nullptr;
};

/// Words of a ReLU mask over `rows` rows of `cols` elements: each row
/// starts a fresh run of 16-bit words, and bit i % 16 of the row's word
/// i / 16 is element i's bit.  Rows own whole words, so parallel jobs that
/// own whole rows never share one.
std::size_t relu_mask_words(std::int64_t rows, std::int64_t cols);

/// ReLU adjoint from a mask in relu_mask_words layout:
/// gx[i] = 0 + gy[i] * m[i], with m the element's bit as 0 or 1.  The
/// product is exact, so this is the autograd ReLU backward's float
/// arithmetic into a zeroed gradient, bit for bit.
void relu_mask_bwd(std::int64_t rows, std::int64_t cols,
                   const std::uint16_t* mask, const float* gy, float* gx);

/// Fused inference block: y = act(group_norm(conv2d(x, w) + bias)).
/// `groups == 0` skips normalization (gamma/beta/eps ignored); `bias` may
/// be null.  `packed_w` may be null, or a panel conv_weight_pack built for
/// this geometry: it only hoists the per-call weight packing, and `w` must
/// still point at the raw filters (paths that do not consume the panel read
/// them).  `record` may be null; its non-null outputs receive the values
/// the block computes on the way (ConvBlockRecord).  Bitwise identical to
/// the unfused conv2d_fwd → group_norm_fwd → unary_map chain, with and
/// without the panel and the record and at any batch size (pinned by
/// tests/test_inference.cpp), while skipping the intermediate
/// materializations.
void conv2d_gn_act_fwd(const Conv2dGeom& g, int groups, float eps, ActKind act,
                       const float* x, const float* w, const float* packed_w,
                       const float* bias, const float* gamma,
                       const float* beta, float* y,
                       const ConvBlockRecord* record = nullptr);

}  // namespace neurfill::nn
