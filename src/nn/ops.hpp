#pragma once

#include "nn/tensor.hpp"

namespace neurfill::nn {

// Autograd tensor ops.  These are the TRAINING-PATH entry points: every op
// allocates its output tensor, records a tape closure, and runs its
// arithmetic on the kernels of nn/kernels.hpp.  Inference-only callers
// should not build networks out of these — nn/infer/session.hpp compiles
// the same arithmetic into a static graph with fused kernels and a planned
// arena, and is the supported fast path (docs/inference.md).

/// Elementwise binary ops with numpy-style broadcasting (dims aligned from
/// the right; each pair must match or one must be 1).
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

/// Tensor-scalar ops.
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

/// Elementwise unary ops.
Tensor relu(const Tensor& a);
Tensor exp_op(const Tensor& a);
Tensor log_op(const Tensor& a);
Tensor abs_op(const Tensor& a);  ///< |x|; subgradient 0 at x == 0
Tensor sqrt_op(const Tensor& a);
Tensor square(const Tensor& a);
/// Smooth max(0, x) with sharpness eta: softplus(eta*x)/eta.
Tensor softplus(const Tensor& a, float eta = 1.0f);

/// Reductions.
Tensor sum(const Tensor& a);   ///< scalar
Tensor mean(const Tensor& a);  ///< scalar
/// Reduce one axis, keeping it with extent 1 (so results broadcast back).
Tensor sum_axis(const Tensor& a, int axis);

/// Concatenate two 4-D tensors along the channel axis (dim 1).
Tensor concat_channels(const Tensor& a, const Tensor& b);

/// 2-D convolution on NCHW tensors.  weight is (O, C, kh, kw); bias (O) or
/// undefined.  Symmetric zero padding.
Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias,
              int stride = 1, int padding = 0);

/// 2x2 max pooling with stride 2 (H and W must be even).
Tensor maxpool2x2(const Tensor& x);
/// Nearest-neighbour 2x upsampling (the UNet decoder uses upsample+conv).
Tensor upsample_nearest2x(const Tensor& x);

/// Group normalization over NCHW: channels split into `groups`; gamma/beta
/// have shape (C).
Tensor group_norm(const Tensor& x, int groups, const Tensor& gamma,
                  const Tensor& beta, float eps = 1e-5f);

/// Mean squared error loss: mean (p-t)^2.
Tensor mse_loss(const Tensor& pred, const Tensor& target);

}  // namespace neurfill::nn
