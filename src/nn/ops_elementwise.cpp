#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "runtime/parallel.hpp"

// Elementwise ops and reductions.  Forward arithmetic runs on the kernels
// of nn/kernels.hpp; this layer keeps the shape/broadcast logic and the
// autograd gradient loops, whose per-element derivative formulas stay
// local lambdas.

namespace neurfill::nn {

namespace {

/// Grain for flat elementwise loops: ~2 ns per element (load, a few ALU
/// ops, store), converted by runtime::grain_for_cost into ~25 us blocks;
/// loops under ~50 us run inline as a single block instead of forking.
/// Depends only on n — never the thread count — so the block decomposition
/// (and therefore every parallel_reduce combine order) is identical at any
/// thread count.
inline std::size_t elem_grain(std::int64_t n) {
  return runtime::grain_for_cost(2.0, static_cast<std::size_t>(n));
}

/// Shapes padded to 4 dims with leading 1s, plus flat strides where
/// broadcast dimensions get stride 0.
struct BroadcastPlan {
  std::array<int, 4> out{1, 1, 1, 1};
  std::array<std::int64_t, 4> astr{0, 0, 0, 0};
  std::array<std::int64_t, 4> bstr{0, 0, 0, 0};
  std::vector<int> out_shape;
};

std::array<int, 4> pad4(const std::vector<int>& s) {
  std::array<int, 4> r{1, 1, 1, 1};
  const std::size_t off = 4 - s.size();
  for (std::size_t i = 0; i < s.size(); ++i) r[off + i] = s[i];
  return r;
}

std::array<std::int64_t, 4> strides4(const std::array<int, 4>& s) {
  std::array<std::int64_t, 4> st{};
  st[3] = 1;
  for (int i = 2; i >= 0; --i) st[static_cast<std::size_t>(i)] =
      st[static_cast<std::size_t>(i + 1)] * s[static_cast<std::size_t>(i + 1)];
  return st;
}

BroadcastPlan make_plan(const Tensor& a, const Tensor& b) {
  BroadcastPlan p;
  const auto as = pad4(a.shape());
  const auto bs = pad4(b.shape());
  for (int i = 0; i < 4; ++i) {
    const auto u = static_cast<std::size_t>(i);
    if (as[u] == bs[u]) {
      p.out[u] = as[u];
    } else if (as[u] == 1) {
      p.out[u] = bs[u];
    } else if (bs[u] == 1) {
      p.out[u] = as[u];
    } else {
      throw std::invalid_argument("broadcast: incompatible shapes " +
                                  shape_to_string(a.shape()) + " vs " +
                                  shape_to_string(b.shape()));
    }
  }
  const auto ast = strides4(as);
  const auto bst = strides4(bs);
  for (int i = 0; i < 4; ++i) {
    const auto u = static_cast<std::size_t>(i);
    p.astr[u] = (as[u] == 1 && p.out[u] != 1) ? 0 : ast[u];
    p.bstr[u] = (bs[u] == 1 && p.out[u] != 1) ? 0 : bst[u];
  }
  // Result rank: max of the input ranks.
  const int nd = std::max(a.ndim(), b.ndim());
  p.out_shape.assign(p.out.begin() + (4 - nd), p.out.end());
  if (p.out_shape.empty()) p.out_shape = {1};
  return p;
}

/// Generic broadcasting binary op.  `kind` selects the kernel map for the
/// same-shape fast path; `f(x, y)` computes the value in the broadcast
/// fallback; `dfa` and `dfb` compute d out / d a and d out / d b at (x, y).
template <typename F, typename DFA, typename DFB>
Tensor binary_op(const Tensor& a, const Tensor& b, BinaryKind kind, F f,
                 DFA dfa, DFB dfb) {
  if (same_shape(a, b)) {  // fast path: flat loops, no index math
    Tensor out(a.shape());
    binary_map(kind, a.data(), b.data(), out.data(), a.numel());
    Tensor::attach_backward(out, {a, b}, [a, b, out = out.impl().get(), dfa, dfb]() mutable {
      const float* ga_src = out->grad.data();
      const float* pa2 = a.data();
      const float* pb2 = b.data();
      const std::int64_t n2 = a.numel();
      // Per-index disjoint writes into each input's gradient, so both
      // accumulations parallelize over the flat range.
      if (a.requires_grad()) {
        float* ga = a.grad();
        runtime::parallel_for(elem_grain(n2), static_cast<std::size_t>(n2),
                              [=](std::size_t i0, std::size_t i1) {
                                for (std::size_t i = i0; i < i1; ++i)
                                  ga[i] += ga_src[i] * dfa(pa2[i], pb2[i]);
                              });
      }
      if (b.requires_grad()) {
        float* gb = b.grad();
        runtime::parallel_for(elem_grain(n2), static_cast<std::size_t>(n2),
                              [=](std::size_t i0, std::size_t i1) {
                                for (std::size_t i = i0; i < i1; ++i)
                                  gb[i] += ga_src[i] * dfb(pa2[i], pb2[i]);
                              });
      }
    });
    return out;
  }

  const BroadcastPlan plan = make_plan(a, b);
  Tensor out(plan.out_shape);
  {
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    std::int64_t o = 0;
    for (int i0 = 0; i0 < plan.out[0]; ++i0)
      for (int i1 = 0; i1 < plan.out[1]; ++i1)
        for (int i2 = 0; i2 < plan.out[2]; ++i2)
          for (int i3 = 0; i3 < plan.out[3]; ++i3) {
            const std::int64_t ia = i0 * plan.astr[0] + i1 * plan.astr[1] +
                                    i2 * plan.astr[2] + i3 * plan.astr[3];
            const std::int64_t ib = i0 * plan.bstr[0] + i1 * plan.bstr[1] +
                                    i2 * plan.bstr[2] + i3 * plan.bstr[3];
            po[o++] = f(pa[ia], pb[ib]);
          }
  }
  Tensor::attach_backward(out, {a, b}, [a, b, out = out.impl().get(), plan, dfa, dfb]() mutable {
    const float* go = out->grad.data();
    const float* pa = a.data();
    const float* pb = b.data();
    float* ga = a.requires_grad() ? a.grad() : nullptr;
    float* gb = b.requires_grad() ? b.grad() : nullptr;
    std::int64_t o = 0;
    for (int i0 = 0; i0 < plan.out[0]; ++i0)
      for (int i1 = 0; i1 < plan.out[1]; ++i1)
        for (int i2 = 0; i2 < plan.out[2]; ++i2)
          for (int i3 = 0; i3 < plan.out[3]; ++i3) {
            const std::int64_t ia = i0 * plan.astr[0] + i1 * plan.astr[1] +
                                    i2 * plan.astr[2] + i3 * plan.astr[3];
            const std::int64_t ib = i0 * plan.bstr[0] + i1 * plan.bstr[1] +
                                    i2 * plan.bstr[2] + i3 * plan.bstr[3];
            const float g = go[o++];
            if (ga) ga[ia] += g * dfa(pa[ia], pb[ib]);
            if (gb) gb[ib] += g * dfb(pa[ia], pb[ib]);
          }
  });
  return out;
}

/// Generic elementwise unary op; forward via the kernel map (`p` is the
/// UnaryKind parameter), derivative expressed in terms of input x and
/// output y.
template <typename DF>
Tensor unary_op(const Tensor& a, UnaryKind kind, float p, DF df) {
  Tensor out(a.shape());
  unary_map(kind, p, a.data(), out.data(), a.numel());
  Tensor::attach_backward(out, {a}, [a, out = out.impl().get(), df]() mutable {
    const float* go = out->grad.data();
    const float* pa2 = a.data();
    const float* po2 = out->data.data();
    float* ga = a.grad();
    const std::int64_t n2 = a.numel();
    runtime::parallel_for(elem_grain(n2), static_cast<std::size_t>(n2),
                          [=](std::size_t i0, std::size_t i1) {
                            for (std::size_t i = i0; i < i1; ++i)
                              ga[i] += go[i] * df(pa2[i], po2[i]);
                          });
  });
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, BinaryKind::kAdd, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, BinaryKind::kSub, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, BinaryKind::kMul, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, BinaryKind::kDiv, [](float x, float y) { return x / y; },
      [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(a, UnaryKind::kAddScalar, s,
                  [](float, float) { return 1.0f; });
}

Tensor mul_scalar(const Tensor& a, float s) {
  return unary_op(a, UnaryKind::kMulScalar, s,
                  [s](float, float) { return s; });
}

Tensor relu(const Tensor& a) {
  return unary_op(a, UnaryKind::kRelu, 0.0f,
                  [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor exp_op(const Tensor& a) {
  return unary_op(a, UnaryKind::kExp, 0.0f,
                  [](float, float y) { return y; });
}

Tensor log_op(const Tensor& a) {
  return unary_op(a, UnaryKind::kLog, 0.0f,
                  [](float x, float) { return 1.0f / x; });
}

Tensor abs_op(const Tensor& a) {
  return unary_op(a, UnaryKind::kAbs, 0.0f, [](float x, float) {
    return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
  });
}

Tensor sqrt_op(const Tensor& a) {
  return unary_op(a, UnaryKind::kSqrt, 0.0f,
                  [](float, float y) { return 0.5f / y; });
}

Tensor square(const Tensor& a) {
  return unary_op(a, UnaryKind::kSquare, 0.0f,
                  [](float x, float) { return 2.0f * x; });
}

Tensor softplus(const Tensor& a, float eta) {
  if (eta <= 0.0f) throw std::invalid_argument("softplus: eta must be > 0");
  return unary_op(a, UnaryKind::kSoftplus, eta, [eta](float x, float) {
    const float z = eta * x;
    return z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                     : std::exp(z) / (1.0f + std::exp(z));
  });
}

Tensor sum(const Tensor& a) {
  Tensor out({1});
  // Deterministic blocked reduction (nn::reduce_sum): partials are
  // combined in block order, so the value is bitwise identical at every
  // thread count.
  out.data()[0] = static_cast<float>(reduce_sum(a.data(), a.numel()));
  Tensor::attach_backward(out, {a}, [a, out = out.impl().get()]() mutable {
    const float g = out->grad[0];
    float* ga = a.grad();
    const std::int64_t n2 = a.numel();
    runtime::parallel_for(elem_grain(n2), static_cast<std::size_t>(n2),
                          [=](std::size_t i0, std::size_t i1) {
                            for (std::size_t i = i0; i < i1; ++i) ga[i] += g;
                          });
  });
  return out;
}

Tensor mean(const Tensor& a) {
  return mul_scalar(sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor sum_axis(const Tensor& a, int axis) {
  if (axis < 0) axis += a.ndim();
  if (axis < 0 || axis >= a.ndim())
    throw std::invalid_argument("sum_axis: axis out of range");
  std::vector<int> oshape = a.shape();
  const int extent = oshape[static_cast<std::size_t>(axis)];
  oshape[static_cast<std::size_t>(axis)] = 1;
  Tensor out(oshape);
  // Decompose indices as (outer, axis, inner).
  std::int64_t inner = 1, outer = 1;
  for (int i = axis + 1; i < a.ndim(); ++i) inner *= a.dim(i);
  for (int i = 0; i < axis; ++i) outer *= a.dim(i);
  const float* pa = a.data();
  float* po = out.data();
  for (std::int64_t o = 0; o < outer; ++o)
    for (std::int64_t in = 0; in < inner; ++in) {
      double acc = 0.0;
      for (int k = 0; k < extent; ++k)
        acc += static_cast<double>(pa[(o * extent + k) * inner + in]);
      po[o * inner + in] = static_cast<float>(acc);
    }
  Tensor::attach_backward(out, {a}, [a, out = out.impl().get(), outer, inner, extent]() mutable {
    const float* go = out->grad.data();
    float* ga = a.grad();
    for (std::int64_t o = 0; o < outer; ++o)
      for (std::int64_t in = 0; in < inner; ++in) {
        const float g = go[o * inner + in];
        for (int k = 0; k < extent; ++k)
          ga[(o * extent + k) * inner + in] += g;
      }
  });
  return out;
}

Tensor concat_channels(const Tensor& a, const Tensor& b) {
  if (a.ndim() != 4 || b.ndim() != 4)
    throw std::invalid_argument("concat_channels: need 4-D tensors");
  if (a.dim(0) != b.dim(0) || a.dim(2) != b.dim(2) || a.dim(3) != b.dim(3))
    throw std::invalid_argument("concat_channels: shape mismatch");
  const int N = a.dim(0), Ca = a.dim(1), Cb = b.dim(1), H = a.dim(2),
            W = a.dim(3);
  Tensor out({N, Ca + Cb, H, W});
  const std::int64_t plane = static_cast<std::int64_t>(H) * W;
  concat_channels_fwd(N, Ca, Cb, plane, a.data(), b.data(), out.data());
  Tensor::attach_backward(out, {a, b}, [a, b, out = out.impl().get(), N, Ca, Cb, plane]() mutable {
    const float* go = out->grad.data();
    for (int n = 0; n < N; ++n) {
      if (a.requires_grad()) {
        float* ga = a.grad();
        for (std::int64_t i = 0; i < Ca * plane; ++i)
          ga[n * Ca * plane + i] += go[n * (Ca + Cb) * plane + i];
      }
      if (b.requires_grad()) {
        float* gb = b.grad();
        for (std::int64_t i = 0; i < Cb * plane; ++i)
          gb[n * Cb * plane + i] += go[(n * (Ca + Cb) + Ca) * plane + i];
      }
    }
  });
  return out;
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  return mean(square(sub(pred, target)));
}

}  // namespace neurfill::nn
