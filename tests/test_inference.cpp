// Tests for the tape-free inference engine (docs/inference.md): the
// InferenceSession must match the autograd module evaluation bitwise —
// fused or unfused, arena-reused or private-buffered, batched or looped,
// at any thread count — and CmpNetwork must match reference_evaluate in
// values and gradients, because the fill optimizer mixes value-only and
// gradient evaluations and relies on exact value equality.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "geom/designs.hpp"
#include "nn/infer/session.hpp"
#include "nn/kernels.hpp"
#include "nn/tensor.hpp"
#include "nn/unet.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/cmp_network.hpp"
#include "surrogate/infer.hpp"
#include "surrogate/network_reference.hpp"

namespace neurfill {
namespace {

using nn::InferenceOptions;
using nn::InferenceSession;
using nn::Tensor;
using nn::UNet;
using nn::UNetConfig;

::testing::AssertionResult bitwise_equal(const float* a, const float* b,
                                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t ua = 0, ub = 0;
    std::memcpy(&ua, a + i, sizeof(float));
    std::memcpy(&ub, b + i, sizeof(float));
    if (ua != ub)
      return ::testing::AssertionFailure()
             << "float mismatch at index " << i << ": " << a[i] << " vs "
             << b[i] << " (bits 0x" << std::hex << ua << " vs 0x" << ub << ")";
  }
  return ::testing::AssertionSuccess();
}

std::vector<float> random_input(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// GroupNorm one group at a time, the serial double chains
/// docs/inference.md pins: an optional float bias add, the mean, the
/// variance, then y = act(gamma * (x - mean) * istd + beta).  This TU builds
/// with the kernel flags, so every expression gets the kernels' contraction
/// choice.  x and y may alias.
void serial_group_norm(const nn::GroupNormGeom& g, const float* x,
                       const float* bias, const float* gamma,
                       const float* beta, bool relu, float* y, double* mean,
                       double* istd) {
  const int cpg = g.channels / g.groups;
  const std::int64_t plane = static_cast<std::int64_t>(g.height) * g.width;
  const std::int64_t gsize = cpg * plane;
  for (int n = 0; n < g.batch; ++n)
    for (int gi = 0; gi < g.groups; ++gi) {
      const std::int64_t off =
          (static_cast<std::int64_t>(n) * g.channels + gi * cpg) * plane;
      for (std::int64_t i = 0; i < gsize; ++i)
        y[off + i] =
            bias ? x[off + i] + bias[gi * cpg + i / plane] : x[off + i];
      double m = 0.0;
      for (std::int64_t i = 0; i < gsize; ++i)
        m += static_cast<double>(y[off + i]);
      m /= static_cast<double>(gsize);
      double v = 0.0;
      for (std::int64_t i = 0; i < gsize; ++i) {
        const double d = static_cast<double>(y[off + i]) - m;
        v += d * d;
      }
      v /= static_cast<double>(gsize);
      const double is = 1.0 / std::sqrt(v + static_cast<double>(g.eps));
      if (mean) mean[n * g.groups + gi] = m;
      if (istd) istd[n * g.groups + gi] = is;
      for (std::int64_t i = 0; i < gsize; ++i) {
        const int c = gi * cpg + static_cast<int>(i / plane);
        const float t =
            static_cast<float>((static_cast<double>(y[off + i]) - m) * is) *
                gamma[c] +
            beta[c];
        y[off + i] = relu && !(t > 0.0f) ? 0.0f : t;
      }
    }
}

/// Draws a shape for the GroupNorm differential tests: batch 1..3, 1..3
/// channels per group, and planes from 1x1 to odd rectangles.
nn::GroupNormGeom random_group_norm_geom(Rng& rng, int groups) {
  nn::GroupNormGeom g;
  g.batch = 1 + static_cast<int>(rng.uniform_index(3));
  g.groups = groups;
  g.channels = groups * (1 + static_cast<int>(rng.uniform_index(3)));
  const bool unit = rng.bernoulli(0.25);
  g.height = unit ? 1 : 1 + static_cast<int>(rng.uniform_index(9));
  g.width = unit ? 1 : 1 + static_cast<int>(rng.uniform_index(9));
  g.eps = 1e-5f;
  return g;
}

/// Values spread over 2^-20..2^20 in magnitude: their double sums round,
/// so a statistics chain walked in another order gives another mean, and
/// the elements near it come out of the normalization with other floats.
std::vector<float> random_wide_input(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v)
    x = static_cast<float>(
        std::ldexp(rng.uniform(-1.0, 1.0),
                   static_cast<int>(rng.uniform_index(41)) - 20));
  return v;
}

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

UNetConfig small_config(bool group_norm) {
  UNetConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 1;
  cfg.base_channels = 8;
  cfg.depth = 2;
  cfg.use_group_norm = group_norm;
  return cfg;
}

/// Autograd reference: the plain module forward on a batch-1 input.
std::vector<float> module_forward(UNet& net, const std::vector<float>& input,
                                  int c, int h, int w) {
  const Tensor x = Tensor::from_data({1, c, h, w}, input);
  const Tensor y = net.forward(x);
  return std::vector<float>(y.data(), y.data() + y.numel());
}

TEST(InferenceSession, MatchesModuleBitwiseWithGroupNorm) {
  Rng rng(11);
  UNet net(small_config(true), rng);
  const int H = 16, W = 16;
  const InferenceSession session(net, H, W);
  EXPECT_EQ(session.in_channels(), 3);
  EXPECT_EQ(session.out_channels(), 1);

  const auto input = random_input(3u * H * W, 101);
  const auto ref = module_forward(net, input, 3, H, W);
  std::vector<float> out(static_cast<std::size_t>(H) * W);
  session.run(input.data(), out.data());
  EXPECT_TRUE(bitwise_equal(out.data(), ref.data(), out.size()));
}

TEST(InferenceSession, MatchesModuleBitwiseWithoutGroupNorm) {
  Rng rng(12);
  UNet net(small_config(false), rng);
  const int H = 24, W = 16;
  const InferenceSession session(net, H, W);

  const auto input = random_input(3u * H * W, 102);
  const auto ref = module_forward(net, input, 3, H, W);
  std::vector<float> out(static_cast<std::size_t>(H) * W);
  session.run(input.data(), out.data());
  EXPECT_TRUE(bitwise_equal(out.data(), ref.data(), out.size()));
}

TEST(InferenceSession, RealWeightsMatchModuleWithinTolerance) {
  // Acceptance gate: on the shipped pre-trained artifact the compiled
  // session must match the module path within 1e-4 relative — and in fact
  // matches bitwise, which the optimizer's mixed-path line search needs.
  // Planes: 32x32 (stage widths 32/16/8/4), the 24x24 a default full-chip
  // tile compiles (24/12/6/3) and a non-square 40x24 (40/20/10/5 wide).
  auto loaded = load_surrogate(NF_REPO_ROOT "/data/unet_cmp");
  ASSERT_TRUE(loaded.ok()) << "missing data/unet_cmp.{meta,weights}";
  UNet& net = (*loaded)->unet();
  const UNetConfig& cfg = net.config();
  struct Plane {
    int h, w;
  };
  for (const Plane p : {Plane{32, 32}, Plane{24, 24}, Plane{24, 40}}) {
    const int H = p.h, W = p.w;
    ASSERT_EQ(H % (1 << cfg.depth), 0);
    ASSERT_EQ(W % (1 << cfg.depth), 0);
    const InferenceSession session(net, H, W);

    const auto input =
        random_input(static_cast<std::size_t>(cfg.in_channels) * H * W, 103);
    const auto ref = module_forward(net, input, cfg.in_channels, H, W);
    std::vector<float> out(ref.size());
    session.run(input.data(), out.data());

    float max_rel = 0.0f;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const float denom = std::max(std::fabs(ref[i]), 1e-6f);
      max_rel = std::max(max_rel, std::fabs(out[i] - ref[i]) / denom);
    }
    EXPECT_LE(max_rel, 1e-4f) << H << "x" << W;
    EXPECT_TRUE(bitwise_equal(out.data(), ref.data(), out.size()))
        << H << "x" << W;
  }
}

TEST(InferenceSession, ArenaReuseMatchesPrivateBuffers) {
  // Aliasing safety: the liveness-planned arena must never hand a buffer
  // to a consumer while a live producer still owns it.  The reference is
  // the same graph with every value in a private block.
  Rng rng(13);
  UNet net(small_config(true), rng);
  const int H = 16, W = 16;
  InferenceOptions reuse, priv;
  priv.reuse_buffers = false;
  const InferenceSession fast(net, H, W, reuse);
  const InferenceSession safe(net, H, W, priv);
  EXPECT_LT(fast.arena_floats_per_sample(), safe.arena_floats_per_sample());

  const auto input = random_input(3u * H * W, 104);
  std::vector<float> a(static_cast<std::size_t>(H) * W), b(a.size());
  fast.run(input.data(), a.data());
  safe.run(input.data(), b.data());
  EXPECT_TRUE(bitwise_equal(a.data(), b.data(), a.size()));
}

TEST(InferenceSession, FusedMatchesUnfused) {
  Rng rng(14);
  UNet net(small_config(true), rng);
  const int H = 16, W = 16;
  InferenceOptions unfused;
  unfused.fuse = false;
  const InferenceSession fused(net, H, W);
  const InferenceSession chain(net, H, W, unfused);

  const auto input = random_input(3u * H * W, 105);
  std::vector<float> a(static_cast<std::size_t>(H) * W), b(a.size());
  fused.run(input.data(), a.data());
  chain.run(input.data(), b.data());
  EXPECT_TRUE(bitwise_equal(a.data(), b.data(), a.size()));
}

TEST(InferenceSession, BatchMatchesLoopedSingles) {
  Rng rng(15);
  UNet net(small_config(true), rng);
  const int H = 16, W = 16, B = 3;
  const std::size_t in_plane = 3u * H * W;
  const std::size_t out_plane = static_cast<std::size_t>(H) * W;
  const InferenceSession session(net, H, W);

  const auto input = random_input(B * in_plane, 106);
  std::vector<float> batched(B * out_plane);
  session.run(input.data(), batched.data(), B);

  std::vector<float> looped(B * out_plane);
  for (int s = 0; s < B; ++s)
    session.run(input.data() + s * in_plane, looped.data() + s * out_plane);
  EXPECT_TRUE(bitwise_equal(batched.data(), looped.data(), batched.size()));
}

TEST(InferenceSession, PrepackedWeightsMatchPackPerCall) {
  // Compile-time weight panels must be bitwise neutral against the
  // pack-per-call reference, serial and batched: on the direct conv path,
  // and on the whole-batch GEMM that the 2-wide bottleneck of the W=8
  // plane takes at batch > 1 (its single samples run direct on the raw
  // filters next to a GEMM panel).
  Rng rng(18);
  UNet net(small_config(true), rng);
  for (const int W : {16, 8}) {
    const int H = 16, B = 4;
    const std::size_t in_plane = 3u * H * W;
    const std::size_t out_plane = static_cast<std::size_t>(H) * W;
    InferenceOptions nopack;
    nopack.prepack_weights = false;
    const InferenceSession packed(net, H, W);
    const InferenceSession reference(net, H, W, nopack);

    const auto input = random_input(B * in_plane, 120);
    std::vector<float> a(B * out_plane), b(a.size());
    packed.run(input.data(), a.data());
    reference.run(input.data(), b.data());
    EXPECT_TRUE(bitwise_equal(a.data(), b.data(), out_plane)) << "W=" << W;
    packed.run(input.data(), a.data(), B);
    reference.run(input.data(), b.data(), B);
    EXPECT_TRUE(bitwise_equal(a.data(), b.data(), a.size()))
        << "W=" << W << " batched";
  }
}

TEST(InferenceSession, BatchedArenaReachesZeroSteadyStateAllocation) {
  // A run sizes the grow-only per-thread arena for its own batch, so once
  // the largest batch has run, every later run — any batch up to it —
  // performs no further growth (infer.arena_grow_events counts
  // requested-size high-water increases on this thread).
  Rng rng(19);
  UNet net(small_config(true), rng);
  const int H = 16, W = 16, kMaxBatch = 8;
  const InferenceSession session(net, H, W);
  const std::size_t in_plane = 3u * H * W;
  const std::size_t out_plane = static_cast<std::size_t>(H) * W;
  const auto input = random_input(kMaxBatch * in_plane, 121);
  std::vector<float> out(kMaxBatch * out_plane);

  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& grows = obs::counter("infer.arena_grow_events");
  session.run(input.data(), out.data(), kMaxBatch);  // warm-up
  const std::int64_t after_first = grows.value();
  for (const int batch : {1, 2, kMaxBatch, 3}) {
    session.run(input.data(), out.data(), batch);
    EXPECT_EQ(grows.value(), after_first) << "batch " << batch;
  }
  EXPECT_GE(obs::counter("infer.samples").value(), kMaxBatch);
  obs::set_metrics_enabled(was_enabled);
}

TEST(InferenceSession, BitwiseDeterministicAcrossThreadCounts) {
  Rng rng(16);
  UNet net(small_config(true), rng);
  const int H = 32, W = 32;
  const InferenceSession session(net, H, W);
  const auto input = random_input(3u * H * W, 107);

  std::vector<float> ref(static_cast<std::size_t>(H) * W);
  runtime::set_thread_count(1);
  session.run(input.data(), ref.data());
  for (const int threads : {2, 8}) {
    runtime::set_thread_count(threads);
    std::vector<float> out(ref.size());
    session.run(input.data(), out.data());
    EXPECT_TRUE(bitwise_equal(out.data(), ref.data(), out.size()))
        << "thread count " << threads;
  }
  runtime::set_thread_count(0);  // restore the environment default
}

TEST(Kernels, Conv1x1FastPathMatchesNaive) {
  // padding==0 && stride==1 1x1 convs skip im2col and feed the input
  // directly to the GEMM; the result must still be a correct convolution.
  const int B = 2, Ci = 5, Co = 3, H = 7, W = 9;
  const auto x = random_input(static_cast<std::size_t>(B) * Ci * H * W, 108);
  const auto w = random_input(static_cast<std::size_t>(Co) * Ci, 109);
  const auto bias = random_input(Co, 110);

  nn::Conv2dGeom g;
  g.batch = B;
  g.in_channels = Ci;
  g.height = H;
  g.width = W;
  g.out_channels = Co;
  g.kernel_h = 1;
  g.kernel_w = 1;
  g.stride = 1;
  g.padding = 0;
  g.out_height = H;
  g.out_width = W;
  std::vector<float> y(static_cast<std::size_t>(B) * Co * H * W);
  nn::conv2d_fwd(g, x.data(), w.data(), bias.data(), y.data());

  for (int b = 0; b < B; ++b) {
    for (int co = 0; co < Co; ++co) {
      for (int p = 0; p < H * W; ++p) {
        double acc = bias[static_cast<std::size_t>(co)];
        for (int ci = 0; ci < Ci; ++ci)
          acc += static_cast<double>(w[static_cast<std::size_t>(co) * Ci + ci]) *
                 static_cast<double>(
                     x[(static_cast<std::size_t>(b) * Ci + ci) * H * W + p]);
        const float got =
            y[(static_cast<std::size_t>(b) * Co + co) * H * W + p];
        ASSERT_NEAR(got, acc, 1e-4) << "b=" << b << " co=" << co << " p=" << p;
      }
    }
  }
}

TEST(Kernels, InputGradientOnlyConvBackwardMatchesFullCall) {
  // A frozen-weight reverse pass asks conv2d_bwd for gx alone, with no saved
  // input: that call skips the im2col unfold (which only the weight
  // gradient reads) and must reproduce the full call's gx bit for bit, for
  // the 3x3/pad-1 and 1x1 geometries of the UNet, at 1 and 4 threads.
  struct Shape {
    int k, pad, C, O, H, W;
  };
  for (const Shape sh : {Shape{3, 1, 6, 5, 12, 10}, Shape{1, 0, 7, 3, 9, 11}}) {
    nn::Conv2dGeom g;
    g.batch = 2;
    g.in_channels = sh.C;
    g.height = sh.H;
    g.width = sh.W;
    g.out_channels = sh.O;
    g.kernel_h = g.kernel_w = sh.k;
    g.stride = 1;
    g.padding = sh.pad;
    g.out_height = sh.H;
    g.out_width = sh.W;
    const std::size_t nx = static_cast<std::size_t>(g.batch) * sh.C * sh.H * sh.W;
    const std::size_t ny = static_cast<std::size_t>(g.batch) * sh.O * sh.H * sh.W;
    const auto x = random_input(nx, 201);
    const auto w =
        random_input(static_cast<std::size_t>(sh.O) * sh.C * sh.k * sh.k, 202);
    const auto gy = random_input(ny, 203);
    for (const int threads : {1, 4}) {
      runtime::set_thread_count(threads);
      std::vector<float> gx_full(nx, 0.25f), gx_only(nx, 0.25f);
      std::vector<float> gw(w.size(), 0.0f), gb(static_cast<std::size_t>(sh.O));
      nn::conv2d_bwd(g, x.data(), w.data(), gy.data(), gx_full.data(),
                     gw.data(), gb.data());
      nn::conv2d_bwd(g, nullptr, w.data(), gy.data(), gx_only.data(), nullptr,
                     nullptr);
      EXPECT_TRUE(bitwise_equal(gx_full.data(), gx_only.data(), nx))
          << "k=" << sh.k << " threads=" << threads;
    }
  }
  runtime::set_thread_count(0);
}

TEST(Kernels, FusedConvMatchesUnfusedChainAtEveryWidth) {
  // Differential sweep of the fused block's kernel dispatch — wide-row
  // vector tiles with their flush tail, row pairing, quad packing, the
  // narrow-plane lanes and the whole-batch GEMM — against the unfused
  // im2col + GEMM conv2d_fwd, group_norm_fwd and activation chain: every
  // output width 1..33 over a grid of heights and channel counts (C = 30
  // crosses a K-slab flush; O = 12 runs remainder channels after a full
  // 8-channel tile, with four 3-channel groups that cross the tile edge),
  // seeded kernel/bias/activation choices, GroupNorm on and off, raw and
  // prepacked filters, batch 1 and 3, 1 and 4 threads.  Every element must
  // match bit for bit.
  struct Kernel {
    int k, pad;
  };
  constexpr Kernel kKernels[] = {{3, 1}, {1, 0}, {3, 0}};
  constexpr nn::ActKind kActs[] = {nn::ActKind::kNone, nn::ActKind::kRelu};
  constexpr int kBatch = 3;
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    Rng rng(20261018);
    for (int Wout = 1; Wout <= 33; ++Wout)
      for (const int Hout : {1, 2, 3, 4, 5, 8, 12})
        for (const int C : {1, 3, 8, 13, 30})
          for (const int O : {1, 4, 8, 12, 24}) {
            const Kernel kn = kKernels[rng.uniform_index(3)];
            nn::Conv2dGeom g;
            g.in_channels = C;
            g.height = Hout - 2 * kn.pad + kn.k - 1;
            g.width = Wout - 2 * kn.pad + kn.k - 1;
            g.out_channels = O;
            g.kernel_h = g.kernel_w = kn.k;
            g.padding = kn.pad;
            g.out_height = Hout;
            g.out_width = Wout;
            const std::size_t in_plane =
                static_cast<std::size_t>(C) * g.height * g.width;
            const std::size_t out_plane =
                static_cast<std::size_t>(O) * Hout * Wout;
            const auto x = random_input(kBatch * in_plane, rng.next_u64());
            const auto w = random_input(
                static_cast<std::size_t>(O) * C * kn.k * kn.k, rng.next_u64());
            const auto bias = random_input(static_cast<std::size_t>(O),
                                           rng.next_u64());
            const auto gamma = random_input(static_cast<std::size_t>(O),
                                            rng.next_u64());
            const auto beta = random_input(static_cast<std::size_t>(O),
                                           rng.next_u64());
            g.batch = 1;
            std::vector<float> packed(nn::conv_weight_pack_floats(g));
            if (!packed.empty())
              nn::conv_weight_pack(g, w.data(), packed.data());
            for (const bool gn : {false, true}) {
              const int groups = gn ? (O % 4 == 0 ? 4 : 1) : 0;
              const nn::ActKind act = kActs[rng.uniform_index(2)];
              const float* b = rng.bernoulli(0.5) ? bias.data() : nullptr;
              // Unfused reference over the whole batch.
              g.batch = kBatch;
              std::vector<float> ref(kBatch * out_plane);
              nn::conv2d_fwd(g, x.data(), w.data(), b, ref.data());
              if (gn) {
                nn::GroupNormGeom ng;
                ng.batch = kBatch;
                ng.channels = O;
                ng.height = Hout;
                ng.width = Wout;
                ng.groups = groups;
                const std::vector<float> prenorm = ref;
                nn::group_norm_fwd(ng, prenorm.data(), gamma.data(),
                                   beta.data(), ref.data(), nullptr, nullptr);
              }
              const auto n_ref = static_cast<std::int64_t>(ref.size());
              if (act == nn::ActKind::kRelu)
                nn::unary_map(nn::UnaryKind::kRelu, 0.0f, ref.data(),
                              ref.data(), n_ref);
              for (const int batch : {1, kBatch})
                for (const bool prepacked : {false, true}) {
                  if (prepacked && packed.empty()) continue;
                  g.batch = batch;
                  std::vector<float> out(batch * out_plane);
                  nn::conv2d_gn_act_fwd(
                      g, groups, 1e-5f, act, x.data(), w.data(),
                      prepacked ? packed.data() : nullptr, b, gamma.data(),
                      beta.data(), out.data());
                  ASSERT_TRUE(bitwise_equal(out.data(), ref.data(), out.size()))
                      << Hout << "x" << Wout << " k=" << kn.k
                      << " pad=" << kn.pad << " C=" << C << " O=" << O
                      << " gn=" << gn << " act=" << static_cast<int>(act)
                      << " bias=" << (b != nullptr) << " batch=" << batch
                      << " prepacked=" << prepacked << " threads=" << threads;
                }
            }
          }
  }
  runtime::set_thread_count(0);
}

TEST(Kernels, GroupNormMatchesOneGroupAtATime) {
  // group_norm_fwd steps a sample's groups side by side (11 and 16 groups
  // in two chunks); each group's statistics must stay the serial chains of
  // the one-group reference, bit for bit, with and without the mean/istd
  // outputs and in place.
  Rng rng(20261019);
  for (const int groups : {1, 2, 3, 4, 5, 6, 7, 8, 11, 16})
    for (int trial = 0; trial < 12; ++trial) {
      const nn::GroupNormGeom g = random_group_norm_geom(rng, groups);
      const std::size_t numel = static_cast<std::size_t>(g.batch) *
                                g.channels * g.height * g.width;
      const std::size_t stats = static_cast<std::size_t>(g.batch) * groups;
      const auto x = random_wide_input(numel, rng.next_u64());
      const auto gamma = random_input(g.channels, rng.next_u64());
      const auto beta = random_input(g.channels, rng.next_u64());
      std::vector<float> want(numel);
      std::vector<double> want_mean(stats), want_istd(stats);
      serial_group_norm(g, x.data(), nullptr, gamma.data(), beta.data(), false,
                        want.data(), want_mean.data(), want_istd.data());
      const bool with_stats = trial % 2 == 0;
      const bool in_place = trial % 3 == 0;
      std::vector<float> got = in_place ? x : std::vector<float>(numel);
      std::vector<double> mean(stats), istd(stats);
      nn::group_norm_fwd(g, in_place ? got.data() : x.data(), gamma.data(),
                         beta.data(), got.data(),
                         with_stats ? mean.data() : nullptr,
                         with_stats ? istd.data() : nullptr);
      const std::string where =
          "groups=" + std::to_string(groups) + " batch=" +
          std::to_string(g.batch) + " C=" + std::to_string(g.channels) + " " +
          std::to_string(g.height) + "x" + std::to_string(g.width);
      ASSERT_TRUE(bitwise_equal(got.data(), want.data(), numel)) << where;
      if (with_stats) {
        ASSERT_TRUE(same_doubles(mean, want_mean)) << where;
        ASSERT_TRUE(same_doubles(istd, want_istd)) << where;
      }
    }
}

TEST(Kernels, FusedGroupNormEpilogueMatchesOneGroupAtATime) {
  // The fused block's epilogue (bias, statistics, normalize, ReLU) against
  // the serial one-group reference applied to conv2d_fwd's output, at 1
  // and 4 threads.  Each group count's first shape is large enough to split
  // the batch across parallel blocks; 11 and 16 groups step in two chunks.
  // A float output hides a last-bit change of its group's statistics, so
  // trials 1 and 2 (without and with a zero bias; beta zero) pass through
  // an identity 1x1 conv planes whose +-2^25 entries cancel: the mean is
  // then the rounded residue of the 2^-30-sized entries, which any other
  // summation order rounds differently, and those entries normalize to
  // other floats.
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    Rng rng(20261020);
    for (const int groups : {1, 2, 3, 4, 5, 6, 7, 8, 11, 16})
      for (int trial = 0; trial < 8; ++trial) {
        const bool cancel = trial == 1 || trial == 2;
        nn::GroupNormGeom ng = random_group_norm_geom(rng, groups);
        if (trial == 0) {  // large enough to split into several blocks
          ng.batch = 3;
          ng.channels = 3 * groups;
          ng.height = 33;
          ng.width = 31;
        }
        if (cancel) ng.height = ng.width = 4;
        nn::Conv2dGeom g;
        g.batch = ng.batch;
        g.in_channels =
            cancel ? ng.channels : 1 + static_cast<int>(rng.uniform_index(4));
        g.height = ng.height;
        g.width = ng.width;
        g.out_channels = ng.channels;
        g.kernel_h = g.kernel_w = cancel ? 1 : 3;
        g.padding = cancel ? 0 : 1;
        g.out_height = ng.height;
        g.out_width = ng.width;
        const std::size_t numel = static_cast<std::size_t>(ng.batch) *
                                  ng.channels * ng.height * ng.width;
        const std::size_t taps =
            static_cast<std::size_t>(g.kernel_h) * g.kernel_w;
        auto x = random_wide_input(numel / ng.channels * g.in_channels,
                                   rng.next_u64());
        auto w = random_input(
            static_cast<std::size_t>(g.out_channels) * g.in_channels * taps,
            rng.next_u64());
        auto bias = random_input(ng.channels, rng.next_u64());
        if (cancel) {
          for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = i % 16 == 3    ? 0x1p25f
                   : i % 16 == 11 ? -0x1p25f
                                  : static_cast<float>(std::ldexp(
                                        rng.uniform(-1.0, 1.0), -30));
          for (int o = 0; o < g.out_channels; ++o)
            for (int c = 0; c < g.in_channels; ++c)
              w[static_cast<std::size_t>(o) * g.in_channels + c] =
                  o == c ? 1.0f : 0.0f;
          std::fill(bias.begin(), bias.end(), 0.0f);
        }
        const auto gamma = random_input(ng.channels, rng.next_u64());
        auto beta = random_input(ng.channels, rng.next_u64());
        // A nonzero beta would absorb the tiny entries' normalized values.
        if (cancel) std::fill(beta.begin(), beta.end(), 0.0f);
        const float* b = trial % 2 == 0 ? bias.data() : nullptr;
        const bool relu = trial % 4 < 2;
        std::vector<float> want(numel);
        nn::conv2d_fwd(g, x.data(), w.data(), nullptr, want.data());
        if (cancel) {  // the identity conv hands the epilogue x itself
          ASSERT_TRUE(bitwise_equal(want.data(), x.data(), numel));
        }
        serial_group_norm(ng, want.data(), b, gamma.data(), beta.data(), relu,
                          want.data(), nullptr, nullptr);
        std::vector<float> got(numel);
        nn::conv2d_gn_act_fwd(g, groups, ng.eps,
                              relu ? nn::ActKind::kRelu : nn::ActKind::kNone,
                              x.data(), w.data(), nullptr, b, gamma.data(),
                              beta.data(), got.data());
        ASSERT_TRUE(bitwise_equal(got.data(), want.data(), numel))
            << "groups=" << groups << " batch=" << ng.batch
            << " C=" << ng.channels << " " << ng.height << "x" << ng.width
            << " bias=" << (b != nullptr) << " relu=" << relu
            << " threads=" << threads;
      }
  }
  runtime::set_thread_count(0);
}

TEST(CmpNetworkFast, EvaluateMatchesAutogradReferenceBitwise) {
  // The compiled network and the autograd reference must agree exactly on
  // the objective, the heights and the gradient, and the compiled value
  // must not depend on whether gradients were requested: the SQP line
  // search evaluates its first trial with the gradient and any backtracked
  // trials value-only, then re-evaluates a backtracked point with the
  // gradient, and its Armijo test compares values from either path.
  const Layout layout = make_design('a', 8, 100.0, 3);
  const WindowExtraction ext = extract_windows(layout);
  SurrogateConfig cfg;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 2;
  auto surrogate = std::make_shared<CmpSurrogate>(cfg, 7);

  ScoreCoefficients coeffs;
  coeffs.beta_sigma = 1000.0;
  coeffs.beta_sigma_star = 1e5;
  coeffs.beta_ol = 100.0;
  const CmpNetwork net(surrogate, ext, coeffs);

  std::vector<GridD> x(3, GridD(8, 8, 0.0));
  Rng rng(17);
  for (auto& g : x)
    for (auto& v : g) v = rng.uniform(0.0, 0.3);

  const auto ef = net.evaluate(x, false);
  const auto es = reference_evaluate(net, x, false);
  EXPECT_EQ(ef.s_plan, es.s_plan);
  EXPECT_EQ(ef.sigma, es.sigma);
  EXPECT_EQ(ef.sigma_star, es.sigma_star);
  EXPECT_EQ(ef.outliers, es.outliers);
  ASSERT_EQ(ef.heights.size(), es.heights.size());
  for (std::size_t l = 0; l < ef.heights.size(); ++l)
    for (std::size_t i = 0; i < ef.heights[l].rows(); ++i)
      for (std::size_t j = 0; j < ef.heights[l].cols(); ++j)
        EXPECT_EQ(ef.heights[l](i, j), es.heights[l](i, j));

  // predict_heights returns the same value evaluation's heights.
  const auto hf = net.predict_heights(x);
  ASSERT_EQ(hf.size(), es.heights.size());
  for (std::size_t l = 0; l < hf.size(); ++l)
    for (std::size_t i = 0; i < hf[l].rows(); ++i)
      for (std::size_t j = 0; j < hf[l].cols(); ++j)
        EXPECT_EQ(hf[l](i, j), es.heights[l](i, j));

  // With gradients requested the network runs the compiled reverse pass
  // and the reference the autograd sweep.
  const auto gf = net.evaluate(x, true);
  const auto gs = reference_evaluate(net, x, true);
  EXPECT_EQ(gf.s_plan, gs.s_plan);
  EXPECT_EQ(gf.s_plan, ef.s_plan);  // value-only vs gradient consistency
  ASSERT_EQ(gf.grad.size(), gs.grad.size());
  for (std::size_t l = 0; l < gf.grad.size(); ++l)
    for (std::size_t i = 0; i < gf.grad[l].rows(); ++i)
      for (std::size_t j = 0; j < gf.grad[l].cols(); ++j)
        EXPECT_EQ(gf.grad[l](i, j), gs.grad[l](i, j));
}

TEST(CmpNetworkFast, GradientMatchesAutogradAcrossRandomConfigs) {
  // Differential contract of the compiled reverse pass: over randomized
  // architectures (depth 1-4, base 4-16, GroupNorm on/off), square and
  // non-square padded planes, 1-3 layers, identity and fitted calibrations
  // and 1/2/4 threads, the compiled value and gradient equal the autograd
  // reference in every entry — no tolerance, since fills must stay
  // byte-identical when the optimizer switches paths.
  Rng rng(20261017);
  const int kConfigs = 24;
  int active = 0;
  for (int k = 0; k < kConfigs; ++k) {
    SurrogateConfig cfg;
    cfg.unet.depth = 1 + static_cast<int>(rng.next_u64() % 4);
    cfg.unet.base_channels = 4 + static_cast<int>(rng.next_u64() % 13);
    cfg.unet.use_group_norm = rng.uniform(0.0, 1.0) < 0.7;
    const int wx = 3 + static_cast<int>(rng.next_u64() % 8);
    const int wy = k % 4 == 0 ? wx : 3 + static_cast<int>(rng.next_u64() % 8);
    const int layers = 1 + static_cast<int>(rng.next_u64() % 3);
    const char which = "abc"[k % 3];
    const Layout layout =
        which == 'a' ? make_design_a(100.0 * wx, 100.0 * wy, layers, 5 + k)
        : which == 'b' ? make_design_b(100.0 * wx, 100.0 * wy, layers, 5 + k)
                       : make_design_c(100.0 * wx, 100.0 * wy, layers, 5 + k);
    const WindowExtraction ext = extract_windows(layout);
    auto surrogate = std::make_shared<CmpSurrogate>(cfg, rng.next_u64());

    ScoreCoefficients coeffs;
    coeffs.beta_sigma = rng.uniform(1e2, 1e4);
    coeffs.beta_sigma_star = rng.uniform(1e3, 1e5);
    coeffs.beta_ol = rng.uniform(10.0, 1e3);
    CmpNetwork net(surrogate, ext, coeffs);
    if (k % 2 == 1) {  // fitted log-space calibration on every metric
      CmpNetwork::MetricCalibration cal[3];
      for (auto& c : cal) {
        c.a = rng.uniform(-1.0, 1.0);
        c.b = rng.uniform(0.5, 2.0);
      }
      net.set_calibration(cal[0], cal[1], cal[2]);
    }

    std::vector<GridD> x;
    for (const auto& l : ext.layers) {
      GridD g(ext.rows, ext.cols, 0.0);
      for (std::size_t i = 0; i < g.size(); ++i)
        g[i] = rng.uniform(0.0, 1.0) * l.slack[i];
      x.push_back(g);
    }
    const int threads = 1 << (k % 3);
    runtime::set_thread_count(threads);
    const CmpNetwork::Eval ef = net.evaluate(x, true);
    const CmpNetwork::Eval er = reference_evaluate(net, x, true);
    runtime::set_thread_count(0);
    const std::string where =
        "config " + std::to_string(k) + " (depth " +
        std::to_string(cfg.unet.depth) + ", base " +
        std::to_string(cfg.unet.base_channels) + ", gn " +
        std::to_string(cfg.unet.use_group_norm) + ", " + std::to_string(wx) +
        "x" + std::to_string(wy) + ", " + std::to_string(layers) +
        " layers, " + std::to_string(threads) + " threads)";
    ASSERT_EQ(ef.s_plan, er.s_plan) << where;
    ASSERT_EQ(ef.sigma, er.sigma) << where;
    ASSERT_EQ(ef.sigma_star, er.sigma_star) << where;
    ASSERT_EQ(ef.outliers, er.outliers) << where;
    ASSERT_EQ(ef.grad.size(), er.grad.size()) << where;
    std::size_t nonzero = 0;
    for (std::size_t l = 0; l < ef.grad.size(); ++l) {
      for (std::size_t i = 0; i < ef.grad[l].size(); ++i) {
        ASSERT_EQ(ef.heights[l][i], er.heights[l][i]) << where;
        ASSERT_EQ(ef.grad[l][i], er.grad[l][i])
            << where << " layer " << l << " entry " << i;
        if (ef.grad[l][i] != 0.0) ++nonzero;
      }
    }
    active += nonzero > 0 ? 1 : 0;
  }
  // Most draws keep some score term unclipped, so the comparison covers
  // live gradients rather than all-zero planes.
  EXPECT_GE(active, kConfigs * 3 / 4);
}

TEST(CmpNetworkFast, ValueEvaluationArenaHoldsOneSample) {
  // A value evaluation runs the UNet at batch 1, so on a fresh thread it
  // grows the per-thread session arena once, to one sample of the
  // compiled plane, and no further.
  const Layout layout = make_design('a', 8, 100.0, 3);
  const WindowExtraction ext = extract_windows(layout);
  SurrogateConfig cfg;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 2;
  auto surrogate = std::make_shared<CmpSurrogate>(cfg, 7);
  const CmpNetwork net(surrogate, ext, ScoreCoefficients());
  const StaticLayerFeatures& plane = net.static_features()[0];
  const InferenceSession session(surrogate->unet(), plane.padded_rows,
                                 plane.padded_cols);
  const std::vector<GridD> x(ext.num_layers(),
                             GridD(ext.rows, ext.cols, 0.1));

  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const obs::Counter& grows = obs::counter("infer.arena_grow_events");
  const std::int64_t grows_before = grows.value();
  bool threw = false;
  std::thread([&] {
    try {
      (void)net.evaluate(x, false);
    } catch (...) {
      threw = true;
    }
  }).join();
  const double high_water =
      obs::gauge("infer.arena_high_water_bytes").value();
  obs::set_metrics_enabled(was_enabled);
  ASSERT_FALSE(threw);
  EXPECT_EQ(grows.value() - grows_before, 1);
  EXPECT_EQ(high_water, static_cast<double>(
                            session.arena_floats_per_sample() * sizeof(float)));
}

TEST(SurrogateSessionCache, SharedAcrossNetworksAndKeyedByWeights) {
  clear_surrogate_inference_cache();
  const Layout layout = make_design('a', 8, 100.0, 3);
  const WindowExtraction ext = extract_windows(layout);
  SurrogateConfig cfg;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 2;
  auto surrogate = std::make_shared<CmpSurrogate>(cfg, 7);
  ScoreCoefficients coeffs;

  // Repeated constructions over one frozen surrogate + plane size (the
  // fullchip tile loop) share a single compiled session.
  const CmpNetwork a(surrogate, ext, coeffs);
  const CmpNetwork b(surrogate, ext, coeffs);
  EXPECT_EQ(surrogate_inference_cache_size(), 1u);

  // Different weights (same architecture and plane size) must miss.
  auto other = std::make_shared<CmpSurrogate>(cfg, 8);
  const CmpNetwork c(other, ext, coeffs);
  EXPECT_EQ(surrogate_inference_cache_size(), 2u);

  clear_surrogate_inference_cache();
  EXPECT_EQ(surrogate_inference_cache_size(), 0u);
}

}  // namespace
}  // namespace neurfill
