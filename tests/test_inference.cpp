// Tests for the tape-free inference engine (docs/inference.md): the
// InferenceSession must match the autograd module evaluation bitwise —
// fused or unfused, arena-reused or private-buffered, batched or looped,
// at any thread count — because the fill optimizer mixes both paths
// mid-line-search and relies on exact value equality.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "geom/designs.hpp"
#include "nn/backend/backend.hpp"
#include "nn/infer/session.hpp"
#include "nn/tensor.hpp"
#include "nn/unet.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/cmp_network.hpp"
#include "surrogate/infer.hpp"

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
  // With max_batch planned up front, the first run sizes the per-thread
  // arena once and every later run — any batch up to max_batch — performs
  // no further growth (infer.arena_grow_events counts requested-size
  // high-water increases on this thread).
  Rng rng(19);
  UNet net(small_config(true), rng);
  const int H = 16, W = 16, kMaxBatch = 8;
  InferenceOptions opt;
  opt.max_batch = kMaxBatch;
  const InferenceSession session(net, H, W, opt);
  const std::size_t in_plane = 3u * H * W;
  const std::size_t out_plane = static_cast<std::size_t>(H) * W;
  const auto input = random_input(kMaxBatch * in_plane, 121);
  std::vector<float> out(kMaxBatch * out_plane);

  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& grows = obs::counter("infer.arena_grow_events");
  session.run(input.data(), out.data(), 1);  // plans for kMaxBatch
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

TEST(Backend, Conv1x1FastPathMatchesNaive) {
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
  nn::backend().conv2d_fwd(g, x.data(), w.data(), bias.data(), y.data());

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

TEST(Backend, InputGradientOnlyConvBackwardMatchesFullCall) {
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
      nn::backend().conv2d_bwd(g, x.data(), w.data(), gy.data(),
                               gx_full.data(), gw.data(), gb.data());
      nn::backend().conv2d_bwd(g, nullptr, w.data(), gy.data(), gx_only.data(),
                               nullptr, nullptr);
      EXPECT_TRUE(bitwise_equal(gx_full.data(), gx_only.data(), nx))
          << "k=" << sh.k << " threads=" << threads;
    }
  }
  runtime::set_thread_count(0);
}

TEST(Backend, FusedConvMatchesUnfusedChainAtEveryWidth) {
  // Differential sweep of the fused block's kernel dispatch — wide-row
  // vector blocks with their flush tail, row pairing, quad packing, the
  // narrow-plane lanes and the whole-batch GEMM — against the unfused
  // im2col + GEMM conv2d_fwd, group_norm_fwd and activation chain: every
  // output width 1..33 over a grid of heights and channel counts (C = 30
  // crosses a K-slab flush), seeded kernel/bias/activation choices,
  // GroupNorm on and off, raw and prepacked filters, batch 1 and 3, 1 and
  // 4 threads.  Every element must match bit for bit.
  struct Kernel {
    int k, pad;
  };
  constexpr Kernel kKernels[] = {{3, 1}, {1, 0}, {3, 0}};
  constexpr nn::ActKind kActs[] = {nn::ActKind::kNone, nn::ActKind::kRelu,
                                   nn::ActKind::kLeakyRelu};
  constexpr int kBatch = 3;
  nn::Backend& be = nn::backend();
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    Rng rng(20261018);
    for (int Wout = 1; Wout <= 33; ++Wout)
      for (const int Hout : {1, 2, 3, 4, 5, 8, 12})
        for (const int C : {1, 3, 8, 13, 30})
          for (const int O : {1, 4, 8, 24}) {
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
            std::vector<float> packed(be.conv_weight_pack_floats(g));
            if (!packed.empty())
              be.conv_weight_pack(g, w.data(), packed.data());
            for (const bool gn : {false, true}) {
              const int groups = gn ? (O % 4 == 0 ? 4 : 1) : 0;
              const nn::ActKind act = kActs[rng.uniform_index(3)];
              const float slope = 0.1f;
              const float* b = rng.bernoulli(0.5) ? bias.data() : nullptr;
              // Unfused reference over the whole batch.
              g.batch = kBatch;
              std::vector<float> ref(kBatch * out_plane);
              be.conv2d_fwd(g, x.data(), w.data(), b, ref.data());
              if (gn) {
                nn::GroupNormGeom ng;
                ng.batch = kBatch;
                ng.channels = O;
                ng.height = Hout;
                ng.width = Wout;
                ng.groups = groups;
                const std::vector<float> prenorm = ref;
                be.group_norm_fwd(ng, prenorm.data(), gamma.data(),
                                  beta.data(), ref.data(), nullptr, nullptr);
              }
              const auto n_ref = static_cast<std::int64_t>(ref.size());
              if (act == nn::ActKind::kRelu)
                be.unary_map(nn::UnaryKind::kRelu, 0.0f, ref.data(),
                             ref.data(), n_ref);
              else if (act == nn::ActKind::kLeakyRelu)
                be.unary_map(nn::UnaryKind::kLeakyRelu, slope, ref.data(),
                             ref.data(), n_ref);
              for (const int batch : {1, kBatch})
                for (const bool prepacked : {false, true}) {
                  if (prepacked && packed.empty()) continue;
                  g.batch = batch;
                  std::vector<float> out(batch * out_plane);
                  be.conv2d_gn_act_fwd_packed(
                      g, groups, 1e-5f, act, slope, x.data(), w.data(),
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

TEST(CmpNetworkFast, EvaluateMatchesModulePathBitwise) {
  // The surrogate fast path and the autograd path must agree exactly on
  // the no-grad objective: the SQP line search evaluates trials through
  // the fast path and then re-evaluates the accepted trial with gradients
  // through the module path, assuming both see the same value.
  const Layout layout = make_design('a', 8, 100.0, 3);
  const WindowExtraction ext = extract_windows(layout);
  SurrogateConfig cfg;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 2;
  auto fast_s = std::make_shared<CmpSurrogate>(cfg, 7);
  auto slow_s = std::make_shared<CmpSurrogate>(cfg, 7);  // same weights
  slow_s->set_fast_inference(false);
  ASSERT_TRUE(fast_s->fast_inference_enabled());
  ASSERT_FALSE(slow_s->fast_inference_enabled());

  ScoreCoefficients coeffs;
  coeffs.beta_sigma = 1000.0;
  coeffs.beta_sigma_star = 1e5;
  coeffs.beta_ol = 100.0;
  CmpNetwork fast_net(fast_s, ext, coeffs);
  CmpNetwork slow_net(slow_s, ext, coeffs);

  std::vector<GridD> x(3, GridD(8, 8, 0.0));
  Rng rng(17);
  for (auto& g : x)
    for (auto& v : g) v = rng.uniform(0.0, 0.3);

  const auto ef = fast_net.evaluate(x, false);
  const auto es = slow_net.evaluate(x, false);
  EXPECT_EQ(ef.s_plan, es.s_plan);
  EXPECT_EQ(ef.sigma, es.sigma);
  EXPECT_EQ(ef.sigma_star, es.sigma_star);
  EXPECT_EQ(ef.outliers, es.outliers);
  ASSERT_EQ(ef.heights.size(), es.heights.size());
  for (std::size_t l = 0; l < ef.heights.size(); ++l)
    for (std::size_t i = 0; i < ef.heights[l].rows(); ++i)
      for (std::size_t j = 0; j < ef.heights[l].cols(); ++j)
        EXPECT_EQ(ef.heights[l](i, j), es.heights[l](i, j));

  // predict_heights routes through the same fast path.
  const auto hf = fast_net.predict_heights(x);
  const auto hs = slow_net.predict_heights(x);
  ASSERT_EQ(hf.size(), hs.size());
  for (std::size_t l = 0; l < hf.size(); ++l)
    for (std::size_t i = 0; i < hf[l].rows(); ++i)
      for (std::size_t j = 0; j < hf[l].cols(); ++j)
        EXPECT_EQ(hf[l](i, j), hs[l](i, j));

  // With gradients requested the fast network runs the compiled reverse
  // pass and the reference network the autograd sweep.
  const auto gf = fast_net.evaluate(x, true);
  const auto gs = slow_net.evaluate(x, true);
  EXPECT_EQ(gf.s_plan, gs.s_plan);
  EXPECT_EQ(gf.s_plan, ef.s_plan);  // mixed-path consistency
  ASSERT_EQ(gf.grad.size(), gs.grad.size());
  for (std::size_t l = 0; l < gf.grad.size(); ++l)
    for (std::size_t i = 0; i < gf.grad[l].rows(); ++i)
      for (std::size_t j = 0; j < gf.grad[l].cols(); ++j)
        EXPECT_EQ(gf.grad[l](i, j), gs.grad[l](i, j));
}

TEST(CmpNetworkFast, GradientMatchesAutogradAcrossRandomConfigs) {
  // Differential contract of the compiled reverse pass: over randomized
  // architectures (depth 1-3, base 4-8, GroupNorm on/off), square and
  // non-square padded planes, 1-3 layers, identity and fitted calibrations
  // and 1/2/4 threads, the compiled value and gradient equal the autograd
  // reference in every entry — no tolerance, since fills must stay
  // byte-identical when the optimizer switches paths.
  Rng rng(20261017);
  const int kConfigs = 24;
  int active = 0;
  for (int k = 0; k < kConfigs; ++k) {
    SurrogateConfig cfg;
    cfg.unet.depth = 1 + static_cast<int>(rng.next_u64() % 3);
    cfg.unet.base_channels = 4 + static_cast<int>(rng.next_u64() % 5);
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
    const std::uint64_t seed = rng.next_u64();
    auto fast_s = std::make_shared<CmpSurrogate>(cfg, seed);
    auto ref_s = std::make_shared<CmpSurrogate>(cfg, seed);  // same weights
    ref_s->set_fast_inference(false);

    ScoreCoefficients coeffs;
    coeffs.beta_sigma = rng.uniform(1e2, 1e4);
    coeffs.beta_sigma_star = rng.uniform(1e3, 1e5);
    coeffs.beta_ol = rng.uniform(10.0, 1e3);
    CmpNetwork fast_net(fast_s, ext, coeffs);
    CmpNetwork ref_net(ref_s, ext, coeffs);
    if (k % 2 == 1) {  // fitted log-space calibration on every metric
      CmpNetwork::MetricCalibration cal[3];
      for (auto& c : cal) {
        c.a = rng.uniform(-1.0, 1.0);
        c.b = rng.uniform(0.5, 2.0);
      }
      fast_net.set_calibration(cal[0], cal[1], cal[2]);
      ref_net.set_calibration(cal[0], cal[1], cal[2]);
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
    const CmpNetwork::Eval ef = fast_net.evaluate(x, true);
    const CmpNetwork::Eval er = ref_net.evaluate(x, true);
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

TEST(CmpNetworkFast, EvaluateBatchMatchesSerialBitwise) {
  // Cross-candidate batching: evaluate_batch must return, per candidate,
  // exactly the Eval that evaluate(x, false) returns — the NMMSO move
  // batches and the PKB sweep rely on batched and serial evaluations being
  // interchangeable mid-optimization.
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

  Rng rng(21);
  for (const int B : {1, 2, 7, 32}) {
    std::vector<std::vector<GridD>> xs(
        static_cast<std::size_t>(B),
        std::vector<GridD>(3, GridD(8, 8, 0.0)));
    for (auto& x : xs)
      for (auto& g : x)
        for (auto& v : g) v = rng.uniform(0.0, 0.3);

    const std::vector<CmpNetwork::Eval> batched = net.evaluate_batch(xs);
    ASSERT_EQ(batched.size(), xs.size());
    for (int b = 0; b < B; ++b) {
      const CmpNetwork::Eval solo = net.evaluate(xs[static_cast<std::size_t>(b)],
                                                 false);
      const CmpNetwork::Eval& eb = batched[static_cast<std::size_t>(b)];
      EXPECT_EQ(eb.s_plan, solo.s_plan) << "B=" << B << " b=" << b;
      EXPECT_EQ(eb.sigma, solo.sigma);
      EXPECT_EQ(eb.sigma_star, solo.sigma_star);
      EXPECT_EQ(eb.outliers, solo.outliers);
      ASSERT_EQ(eb.heights.size(), solo.heights.size());
      for (std::size_t l = 0; l < eb.heights.size(); ++l)
        for (std::size_t i = 0; i < eb.heights[l].rows(); ++i)
          for (std::size_t j = 0; j < eb.heights[l].cols(); ++j)
            ASSERT_EQ(eb.heights[l](i, j), solo.heights[l](i, j))
                << "B=" << B << " b=" << b << " layer " << l;
    }
  }
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
