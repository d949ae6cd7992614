#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/check.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"

// Structured ops (conv2d/pool/upsample/group_norm).  This layer owns shape
// validation and the autograd tape; every kernel — forward and backward —
// is a call into nn/kernels.hpp, so the arithmetic here carries the
// kernels' guarantees (bitwise deterministic at any thread count,
// docs/runtime.md).

namespace neurfill::nn {

namespace {

Conv2dGeom make_conv_geom(int N, int C, int H, int W, int O, int kh, int kw,
                          int stride, int padding, int Hout, int Wout) {
  Conv2dGeom g;
  g.batch = N;
  g.in_channels = C;
  g.height = H;
  g.width = W;
  g.out_channels = O;
  g.kernel_h = kh;
  g.kernel_w = kw;
  g.stride = stride;
  g.padding = padding;
  g.out_height = Hout;
  g.out_width = Wout;
  return g;
}

}  // namespace

Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias,
              int stride, int padding) {
  if (x.ndim() != 4 || weight.ndim() != 4)
    throw std::invalid_argument("conv2d: need 4-D input and weight");
  const int N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const int O = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  if (weight.dim(1) != C)
    throw std::invalid_argument("conv2d: channel mismatch");
  if (stride < 1) throw std::invalid_argument("conv2d: bad stride");
  const int Hout = (H + 2 * padding - kh) / stride + 1;
  const int Wout = (W + 2 * padding - kw) / stride + 1;
  if (Hout <= 0 || Wout <= 0)
    throw std::invalid_argument("conv2d: kernel larger than padded input");
  if (bias.defined() && (bias.ndim() != 1 || bias.dim(0) != O))
    throw std::invalid_argument("conv2d: bias shape mismatch");

  Tensor out({N, O, Hout, Wout});
  const int K = C * kh * kw;
  const int cols = Hout * Wout;
  // GEMM shape agreement: weight flattens to (O, K), each batch output to
  // (O, cols).  Violations here would stream past the tensor buffers.
  NF_CHECK(weight.numel() == static_cast<std::int64_t>(O) * K,
           "conv2d: weight numel %lld != O*K = %d*%d",
           static_cast<long long>(weight.numel()), O, K);
  NF_CHECK(out.numel() == static_cast<std::int64_t>(N) * O * cols,
           "conv2d: output numel %lld != N*O*HoutWout = %d*%d*%d",
           static_cast<long long>(out.numel()), N, O, cols);
  const Conv2dGeom geom =
      make_conv_geom(N, C, H, W, O, kh, kw, stride, padding, Hout, Wout);
  conv2d_fwd(geom, x.data(), weight.data(),
             bias.defined() ? bias.data() : nullptr, out.data());

  std::vector<Tensor> inputs{x, weight};
  if (bias.defined()) inputs.push_back(bias);
  Tensor::attach_backward(
      out, inputs, [x, weight, bias, out = out.impl().get(), geom]() mutable {
        conv2d_bwd(
            geom, x.data(), weight.data(), out->grad.data(),
            x.requires_grad() ? x.grad() : nullptr,
            weight.requires_grad() ? weight.grad() : nullptr,
            (bias.defined() && bias.requires_grad()) ? bias.grad() : nullptr);
      });
  return out;
}

Tensor maxpool2x2(const Tensor& x) {
  if (x.ndim() != 4) throw std::invalid_argument("maxpool2x2: need 4-D input");
  const int N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  if (H % 2 != 0 || W % 2 != 0)
    throw std::invalid_argument("maxpool2x2: H and W must be even");
  const int Ho = H / 2, Wo = W / 2;
  Tensor out({N, C, Ho, Wo});
  auto indices = std::make_shared<std::vector<std::int64_t>>(
      static_cast<std::size_t>(out.numel()));
  maxpool2x2_fwd(static_cast<std::int64_t>(N) * C, H, W, x.data(), out.data(),
                 indices->data());
  Tensor::attach_backward(out, {x}, [x, out = out.impl().get(), indices]() mutable {
    const float* go = out->grad.data();
    float* gx = x.grad();
    for (std::size_t i = 0; i < indices->size(); ++i)
      gx[(*indices)[i]] += go[i];
  });
  return out;
}

Tensor upsample_nearest2x(const Tensor& x) {
  if (x.ndim() != 4)
    throw std::invalid_argument("upsample_nearest2x: need 4-D input");
  const int N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  Tensor out({N, C, 2 * H, 2 * W});
  upsample2x_fwd(static_cast<std::int64_t>(N) * C, H, W, x.data(), out.data());
  Tensor::attach_backward(out, {x}, [x, out = out.impl().get(), N, C, H, W]() mutable {
    const float* go = out->grad.data();
    float* gx = x.grad();
    for (int nc = 0; nc < N * C; ++nc) {
      const float* gp = go + static_cast<std::int64_t>(nc) * 4 * H * W;
      float* sp = gx + static_cast<std::int64_t>(nc) * H * W;
      for (int i = 0; i < H; ++i)
        for (int j = 0; j < W; ++j) {
          const std::int64_t b = static_cast<std::int64_t>(2 * i) * 2 * W + 2 * j;
          sp[i * W + j] += gp[b] + gp[b + 1] + gp[b + 2 * W] + gp[b + 2 * W + 1];
        }
    }
  });
  return out;
}

Tensor group_norm(const Tensor& x, int groups, const Tensor& gamma,
                  const Tensor& beta, float eps) {
  if (x.ndim() != 4) throw std::invalid_argument("group_norm: need 4-D input");
  const int N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  if (groups <= 0 || C % groups != 0)
    throw std::invalid_argument("group_norm: C must be divisible by groups");
  if (gamma.ndim() != 1 || gamma.dim(0) != C || beta.ndim() != 1 ||
      beta.dim(0) != C)
    throw std::invalid_argument("group_norm: gamma/beta must be (C)");
  Tensor out(x.shape());
  auto mean_v = std::make_shared<std::vector<double>>(
      static_cast<std::size_t>(N) * groups);
  auto istd_v = std::make_shared<std::vector<double>>(
      static_cast<std::size_t>(N) * groups);
  GroupNormGeom geom;
  geom.batch = N;
  geom.channels = C;
  geom.height = H;
  geom.width = W;
  geom.groups = groups;
  geom.eps = eps;
  group_norm_fwd(geom, x.data(), gamma.data(), beta.data(), out.data(),
                 mean_v->data(), istd_v->data());
  Tensor::attach_backward(
      out, {x, gamma, beta},
      [x, gamma, beta, out = out.impl().get(), geom, mean_v, istd_v]() mutable {
        group_norm_bwd(
            geom, x.data(), mean_v->data(), istd_v->data(), gamma.data(),
            out->grad.data(), x.requires_grad() ? x.grad() : nullptr,
            gamma.requires_grad() ? gamma.grad() : nullptr,
            beta.requires_grad() ? beta.grad() : nullptr);
      });
  return out;
}

}  // namespace neurfill::nn
