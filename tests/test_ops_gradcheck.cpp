// Finite-difference gradient checks for every autodiff op.  These are the
// load-bearing tests of the neural-network substrate: if they pass, the
// surrogate's backward propagation (the paper's 8134x-speedup mechanism) is
// mathematically trustworthy.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/module.hpp"
#include "nn/ops.hpp"
#include "nn/unet.hpp"

#include "gradcheck_util.hpp"

namespace neurfill::nn {
namespace {

using testing::expect_gradcheck;
using testing::expect_gradcheck_multi;
using testing::random_tensor;

TEST(GradCheck, AddSameShape) {
  expect_gradcheck_multi(
      [](const std::vector<Tensor>& in) { return sum(add(in[0], in[1])); },
      {random_tensor({3, 4}, 1), random_tensor({3, 4}, 2)}, 0);
}

TEST(GradCheck, AddBroadcastRight) {
  expect_gradcheck_multi(
      [](const std::vector<Tensor>& in) {
        return sum(mul(add(in[0], in[1]), in[0]));
      },
      {random_tensor({3, 4}, 3), random_tensor({1, 4}, 4)}, 1);
}

TEST(GradCheck, SubBroadcastScalarOperand) {
  expect_gradcheck_multi(
      [](const std::vector<Tensor>& in) {
        return sum(square(sub(in[0], in[1])));
      },
      {random_tensor({2, 3, 4}, 5), random_tensor({1}, 6)}, 1);
}

TEST(GradCheck, MulBothOperands) {
  const auto fn = [](const std::vector<Tensor>& in) {
    return sum(mul(in[0], in[1]));
  };
  std::vector<Tensor> in{random_tensor({2, 5}, 7), random_tensor({2, 5}, 8)};
  expect_gradcheck_multi(fn, in, 0);
  expect_gradcheck_multi(fn, in, 1);
}

TEST(GradCheck, DivDenominatorAwayFromZero) {
  expect_gradcheck_multi(
      [](const std::vector<Tensor>& in) { return sum(div(in[0], in[1])); },
      {random_tensor({4, 3}, 9), random_tensor({4, 3}, 10, 1.0f, 2.0f)}, 1);
}

TEST(GradCheck, ScalarOps) {
  expect_gradcheck(
      [](const Tensor& x) { return sum(add_scalar(mul_scalar(x, 2.5f), 0.3f)); },
      random_tensor({6}, 11));
}

TEST(GradCheck, ReluAwayFromKink) {
  Tensor x = random_tensor({5, 5}, 12);
  // Keep values away from 0 so finite differences are valid.
  for (std::int64_t i = 0; i < x.numel(); ++i)
    if (std::fabs(x.data()[i]) < 0.1f) x.data()[i] = 0.2f;
  expect_gradcheck([](const Tensor& t) { return sum(relu(t)); }, x);
}

TEST(GradCheck, ExpLog) {
  expect_gradcheck(
      [](const Tensor& t) { return sum(log_op(exp_op(t))); },
      random_tensor({4}, 16, -1.0f, 1.0f));
  expect_gradcheck([](const Tensor& t) { return sum(log_op(t)); },
                   random_tensor({4}, 17, 0.5f, 2.0f));
}

TEST(GradCheck, AbsAwayFromKink) {
  Tensor x = random_tensor({6}, 18);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    if (std::fabs(x.data()[i]) < 0.1f) x.data()[i] = 0.3f;
  expect_gradcheck([](const Tensor& t) { return sum(abs_op(t)); }, x);
}

TEST(GradCheck, SqrtSquare) {
  expect_gradcheck([](const Tensor& t) { return sum(sqrt_op(t)); },
                   random_tensor({5}, 19, 0.5f, 2.0f));
  expect_gradcheck([](const Tensor& t) { return sum(square(t)); },
                   random_tensor({5}, 20));
}

TEST(GradCheck, Softplus) {
  expect_gradcheck([](const Tensor& t) { return sum(softplus(t, 3.0f)); },
                   random_tensor({8}, 21, -2.0f, 2.0f));
}

TEST(GradCheck, Mean) {
  expect_gradcheck([](const Tensor& t) { return mean(t); },
                   random_tensor({3, 4}, 22));
}

TEST(GradCheck, SumAxisKeepdim) {
  expect_gradcheck(
      [](const Tensor& t) { return sum(square(sum_axis(t, 0))); },
      random_tensor({3, 4}, 24));
  expect_gradcheck(
      [](const Tensor& t) { return sum(square(sum_axis(t, 1))); },
      random_tensor({3, 4}, 25));
}

TEST(GradCheck, ConcatChannels) {
  const auto fn = [](const std::vector<Tensor>& in) {
    return sum(square(concat_channels(in[0], in[1])));
  };
  std::vector<Tensor> in{random_tensor({2, 2, 3, 3}, 27),
                         random_tensor({2, 3, 3, 3}, 28)};
  expect_gradcheck_multi(fn, in, 0);
  expect_gradcheck_multi(fn, in, 1);
}

TEST(GradCheck, Conv2dInputWeightBias) {
  const auto fn = [](const std::vector<Tensor>& in) {
    return sum(square(conv2d(in[0], in[1], in[2], 1, 1)));
  };
  std::vector<Tensor> in{random_tensor({2, 3, 5, 5}, 34),
                         random_tensor({4, 3, 3, 3}, 35),
                         random_tensor({4}, 36)};
  for (std::size_t i = 0; i < 3; ++i) expect_gradcheck_multi(fn, in, i);
}

TEST(GradCheck, Conv2dStride2) {
  const auto fn = [](const std::vector<Tensor>& in) {
    return sum(square(conv2d(in[0], in[1], in[2], 2, 1)));
  };
  std::vector<Tensor> in{random_tensor({1, 2, 6, 6}, 37),
                         random_tensor({3, 2, 3, 3}, 38),
                         random_tensor({3}, 39)};
  for (std::size_t i = 0; i < 3; ++i) expect_gradcheck_multi(fn, in, i);
}

TEST(GradCheck, MaxPoolAwayFromTies) {
  Tensor x = random_tensor({1, 2, 4, 4}, 40);
  // Spread values so the argmax does not flip under the probe step.
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x.data()[i] += 0.05f * static_cast<float>(i % 7);
  expect_gradcheck([](const Tensor& t) { return sum(square(maxpool2x2(t))); },
                   x);
}

TEST(GradCheck, UpsampleNearest) {
  expect_gradcheck(
      [](const Tensor& t) { return sum(square(upsample_nearest2x(t))); },
      random_tensor({1, 3, 3, 3}, 41));
}

TEST(GradCheck, GroupNormAllInputs) {
  const auto fn = [](const std::vector<Tensor>& in) {
    return sum(square(group_norm(in[0], 2, in[1], in[2])));
  };
  std::vector<Tensor> in{random_tensor({2, 4, 3, 3}, 42),
                         random_tensor({4}, 43, 0.5f, 1.5f),
                         random_tensor({4}, 44)};
  for (std::size_t i = 0; i < 3; ++i)
    expect_gradcheck_multi(fn, in, i, 1e-2f, 5e-2f, 2e-3f);
}

TEST(GradCheck, MseLoss) {
  expect_gradcheck_multi(
      [](const std::vector<Tensor>& in) { return mse_loss(in[0], in[1]); },
      {random_tensor({3, 3}, 45), random_tensor({3, 3}, 46)}, 0);
}

// A value used twice must receive gradient contributions from both paths.
TEST(GradCheck, DiamondReuse) {
  expect_gradcheck(
      [](const Tensor& t) {
        Tensor a = mul_scalar(t, 2.0f);
        return sum(mul(a, add(a, t)));
      },
      random_tensor({4}, 49));
}

// End-to-end: a tiny UNet composes nearly every op; check d loss / d input.
TEST(GradCheck, TinyUNetInputGradient) {
  Rng rng(7);
  UNetConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 1;
  cfg.base_channels = 4;
  cfg.depth = 1;
  UNet net(cfg, rng);
  Tensor x = random_tensor({1, 2, 4, 4}, 50, 0.0f, 1.0f);
  // Loose tolerances: ReLU/maxpool kinks inside the composition make finite
  // differences noisy; exact per-op correctness is covered above.
  expect_gradcheck(
      [&net](const Tensor& t) { return sum(square(net.forward(t))); }, x,
      5e-3f, 2e-1f, 2e-2f);
}

}  // namespace
}  // namespace neurfill::nn
