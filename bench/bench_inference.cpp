// Inference fast-path benchmark: single-thread UNet forward latency of the
// compiled InferenceSession vs the autograd module path, on the surrogate's
// production shape (7 input channels, base 8, depth 3, 64x64 windows).
//
// Also sweeps batched session runs (B = 1, 4, 16 printed; B = 8 gated):
// one run() call carries all B samples, so per-call dispatch, GEMM panel
// packing, and epilogue setup amortize across the batch.  The gated key is
// per-sample latency at batch 8.
//
// Also times the same network on the 24x24 plane a default full-chip tile
// compiles (16 core + 2x2 halo windows): its 12/6/3-wide stages exercise
// the direct conv's flush tails and narrow-plane lanes, which the 64x64
// plane (all stage widths multiples of 8) never reaches.  The gated key is
// its absolute latency, unet_infer_w24_ms_1t; the per-pixel latency at
// 24x24 over the per-pixel latency at 64x64 is printed as an explainer.
//
// Then times one CmpNetwork gradient evaluation (S_plan and dS_plan/dx on
// a 32x32-window, 3-layer design, the production surrogate architecture)
// through the compiled reverse pass and through the autograd reference
// (reference_evaluate, surrogate/network_reference.hpp).
//
// Emits a one-line JSON summary; --json FILE writes the same object for CI
// (tools/check_bench_regression.py gates unet_infer_ms_1t,
// infer_vs_autograd_speedup — the redesign's acceptance is >= 2x —
// unet_infer_b8_ms_per_sample against its own baseline,
// grad_vs_autograd_speedup, a same-host ratio like the forward one, and
// unet_infer_w24_ms_1t).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "geom/designs.hpp"
#include "nn/infer/session.hpp"
#include "nn/tensor.hpp"
#include "nn/unet.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/cmp_network.hpp"
#include "surrogate/features.hpp"
#include "surrogate/network_reference.hpp"

namespace {

using namespace neurfill;

constexpr int kHeight = 64, kWidth = 64;
constexpr int kTileSide = 24;
constexpr int kReps = 31;

// Best-of-reps: the minimum is the classic noise-robust statistic for a
// deterministic microbenchmark — scheduler preemptions and frequency dips
// only ever inflate a sample, so the floor tracks the code, not the VM.
double best_ms(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end()) * 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];

  nn::UNetConfig cfg;
  cfg.in_channels = FeatureConstants::kInChannels;
  cfg.out_channels = 1;
  cfg.base_channels = 8;
  cfg.depth = 3;
  Rng rng(21);
  nn::UNet net(cfg, rng);
  const nn::InferenceSession session(net, kHeight, kWidth);

  std::vector<float> input(
      static_cast<std::size_t>(cfg.in_channels) * kHeight * kWidth);
  for (auto& v : input) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> output(static_cast<std::size_t>(kHeight) * kWidth);

  runtime::set_thread_count(1);

  // Autograd module path: tensor wrap + tape-building forward, the cost the
  // fill inner loop paid per evaluation before the redesign.
  const auto run_autograd = [&] {
    const nn::Tensor x = nn::Tensor::from_data(
        {1, cfg.in_channels, kHeight, kWidth}, input);
    const nn::Tensor y = net.forward(x);
    output[0] = y.data()[0];
  };
  const auto run_infer = [&] { session.run(input.data(), output.data()); };

  run_autograd();
  run_infer();  // warm-up (arena growth, packing buffers)
  std::vector<double> auto_s(kReps), infer_s(kReps);
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    run_autograd();
    auto_s[static_cast<std::size_t>(r)] = t.elapsed_seconds();
  }
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    run_infer();
    infer_s[static_cast<std::size_t>(r)] = t.elapsed_seconds();
  }

  // The tile plane, same network and input distribution.
  const nn::InferenceSession tile_session(net, kTileSide, kTileSide);
  std::vector<float> tile_input(static_cast<std::size_t>(cfg.in_channels) *
                                kTileSide * kTileSide);
  for (auto& v : tile_input) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> tile_output(static_cast<std::size_t>(kTileSide) *
                                 kTileSide);
  tile_session.run(tile_input.data(), tile_output.data());  // warm-up
  std::vector<double> tile_s(kReps);
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    tile_session.run(tile_input.data(), tile_output.data());
    tile_s[static_cast<std::size_t>(r)] = t.elapsed_seconds();
  }
  runtime::set_thread_count(0);

  // Batched sweep: one compiled session fed with B copies of the same
  // sample; each size's warm-up run grows the arena to that batch.
  constexpr int kBatches[] = {1, 4, 8, 16};
  constexpr int kMaxBatch = 16;
  const nn::InferenceSession bsession(net, kHeight, kWidth);
  std::vector<float> binput(input.size() * kMaxBatch);
  for (int b = 0; b < kMaxBatch; ++b)
    std::copy(input.begin(), input.end(),
              binput.begin() + static_cast<std::ptrdiff_t>(b) *
                                   static_cast<std::ptrdiff_t>(input.size()));
  std::vector<float> boutput(output.size() * kMaxBatch);
  double batch_ms[std::size(kBatches)] = {};
  for (std::size_t bi = 0; bi < std::size(kBatches); ++bi) {
    const int B = kBatches[bi];
    runtime::set_thread_count(1);
    bsession.run(binput.data(), boutput.data(), B);  // warm-up at this size
    std::vector<double> bs(kReps);
    for (int r = 0; r < kReps; ++r) {
      Timer t;
      bsession.run(binput.data(), boutput.data(), B);
      bs[static_cast<std::size_t>(r)] = t.elapsed_seconds();
    }
    batch_ms[bi] = best_ms(bs) / B;
  }
  runtime::set_thread_count(0);

  // One gradient evaluation, compiled reverse pass vs autograd sweep.
  const WindowExtraction ext = extract_windows(make_design('b', 32));
  ScoreCoefficients coeffs;
  coeffs.beta_sigma = 1e4;
  coeffs.beta_sigma_star = 1e5;
  coeffs.beta_ol = 1e3;
  const CmpNetwork network(
      std::make_shared<CmpSurrogate>(SurrogateConfig(), 21), ext, coeffs);
  std::vector<GridD> x;
  for (const auto& l : ext.layers) {
    GridD g = l.slack;
    for (double& v : g) v *= 0.3;
    x.push_back(g);
  }
  constexpr int kGradReps = 11;
  std::vector<double> grad_compiled_s(kGradReps), grad_autograd_s(kGradReps);
  runtime::set_thread_count(1);
  (void)network.evaluate(x, true);  // warm-up (arenas, records)
  (void)reference_evaluate(network, x, true);
  for (int r = 0; r < kGradReps; ++r) {
    Timer t;
    (void)network.evaluate(x, true);
    grad_compiled_s[static_cast<std::size_t>(r)] = t.elapsed_seconds();
    t.reset();
    (void)reference_evaluate(network, x, true);
    grad_autograd_s[static_cast<std::size_t>(r)] = t.elapsed_seconds();
  }
  runtime::set_thread_count(0);
  const double grad_ms = best_ms(grad_compiled_s);
  const double grad_auto_ms = best_ms(grad_autograd_s);

  const double auto_ms = best_ms(auto_s);
  const double infer_ms = best_ms(infer_s);
  const double speedup = auto_ms / infer_ms;
  const double b8_ms = batch_ms[2];
  const double tile_ms = best_ms(tile_s);
  const double w24_pixel_ratio =
      (tile_ms / (kTileSide * kTileSide)) / (infer_ms / (kHeight * kWidth));
  std::printf("=== UNet forward %dch base%d depth%d %dx%d, 1 thread ===\n",
              cfg.in_channels, cfg.base_channels, cfg.depth, kHeight, kWidth);
  std::printf("autograd module path: %8.3f ms\n", auto_ms);
  std::printf("inference session:    %8.3f ms\n", infer_ms);
  std::printf("speedup:              %8.2fx  (session graph: %zu nodes, "
              "arena %zu KiB)\n",
              speedup, session.node_count(),
              session.arena_floats_per_sample() * sizeof(float) / 1024);
  std::printf("session %dx%d:        %8.3f ms  (per-pixel %.2fx the "
              "%dx%d plane's)\n",
              kTileSide, kTileSide, tile_ms, w24_pixel_ratio, kHeight, kWidth);
  for (std::size_t bi = 0; bi < std::size(kBatches); ++bi)
    std::printf("batched run B=%-2d:     %8.3f ms/sample\n", kBatches[bi],
                batch_ms[bi]);

  std::printf("gradient, autograd:   %8.3f ms  (32x32 windows, 3 layers)\n",
              grad_auto_ms);
  std::printf("gradient, compiled:   %8.3f ms  (%.2fx)\n", grad_ms,
              grad_auto_ms / grad_ms);

  char json[768];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"inference\",\"unet_autograd_ms_1t\":%.3f,"
                "\"unet_infer_ms_1t\":%.3f,"
                "\"infer_vs_autograd_speedup\":%.3f,"
                "\"unet_infer_b8_ms_per_sample\":%.3f,"
                "\"grad_autograd_ms_1t\":%.3f,\"grad_compiled_ms_1t\":%.3f,"
                "\"grad_vs_autograd_speedup\":%.3f,"
                "\"unet_infer_w24_ms_1t\":%.3f,"
                "\"unet_infer_w24_pixel_ratio\":%.3f}",
                auto_ms, infer_ms, speedup, b8_ms, grad_auto_ms, grad_ms,
                grad_auto_ms / grad_ms, tile_ms, w24_pixel_ratio);
  std::printf("\nJSON: %s\n", json);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }
  return 0;
}
