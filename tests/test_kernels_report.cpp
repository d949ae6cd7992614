// Tests for the GEMM kernels (against a naive reference), the report/score
// assembly, fill-insertion area realization, and GLF round-trip fuzzing.

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fill/report.hpp"
#include "geom/designs.hpp"
#include "geom/glf_io.hpp"
#include "nn/kernels.hpp"

namespace neurfill {
namespace {

// ---------------------------------------------------------------- gemm

void naive_gemm(int M, int N, int K, const float* A, const float* B,
                float* C, bool ta, bool tb) {
  for (int i = 0; i < M; ++i)
    for (int j = 0; j < N; ++j) {
      double acc = 0.0;
      for (int k = 0; k < K; ++k) {
        const float a = ta ? A[k * M + i] : A[i * K + k];
        const float b = tb ? B[j * K + k] : B[k * N + j];
        acc += static_cast<double>(a) * static_cast<double>(b);
      }
      C[i * N + j] = static_cast<float>(acc);
    }
}

struct GemmCase {
  int M, N, K;
};

class GemmP : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmP, AllVariantsMatchNaive) {
  const auto [M, N, K] = GetParam();
  Rng rng(static_cast<std::uint64_t>(M * 73 + N * 7 + K));
  std::vector<float> A(static_cast<std::size_t>(std::max(M, K)) *
                       std::max(K, M));
  std::vector<float> B(static_cast<std::size_t>(std::max(K, N)) *
                       std::max(N, K));
  for (auto& v : A) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : B) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> C(static_cast<std::size_t>(M) * N),
      ref(static_cast<std::size_t>(M) * N);

  // nn: A (MxK) * B (KxN)
  nn::gemm_nn(M, N, K, A.data(), B.data(), C.data(), false);
  naive_gemm(M, N, K, A.data(), B.data(), ref.data(), false, false);
  for (std::size_t i = 0; i < C.size(); ++i) EXPECT_NEAR(C[i], ref[i], 1e-4);

  // nt: A (MxK) * B(NxK)^T
  nn::gemm_nt(M, N, K, A.data(), B.data(), C.data(), false);
  naive_gemm(M, N, K, A.data(), B.data(), ref.data(), false, true);
  for (std::size_t i = 0; i < C.size(); ++i) EXPECT_NEAR(C[i], ref[i], 1e-4);

  // tn: A (KxM)^T * B (KxN)
  nn::gemm_tn(M, N, K, A.data(), B.data(), C.data(), false);
  naive_gemm(M, N, K, A.data(), B.data(), ref.data(), true, false);
  for (std::size_t i = 0; i < C.size(); ++i) EXPECT_NEAR(C[i], ref[i], 1e-4);
}

TEST_P(GemmP, AccumulateAddsToExisting) {
  const auto [M, N, K] = GetParam();
  Rng rng(5);
  std::vector<float> A(static_cast<std::size_t>(M) * K),
      B(static_cast<std::size_t>(K) * N);
  for (auto& v : A) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : B) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> once(static_cast<std::size_t>(M) * N);
  nn::gemm_nn(M, N, K, A.data(), B.data(), once.data(), false);
  std::vector<float> twice = once;
  nn::gemm_nn(M, N, K, A.data(), B.data(), twice.data(), true);
  for (std::size_t i = 0; i < once.size(); ++i)
    EXPECT_NEAR(twice[i], 2.0f * once[i], 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmP,
                         ::testing::Values(GemmCase{1, 1, 1},
                                           GemmCase{3, 5, 2},
                                           GemmCase{8, 8, 8},
                                           GemmCase{16, 3, 9},
                                           GemmCase{2, 31, 17}));

// ---------------------------------------------------------------- report

TEST(Report, OverallScoreComposition) {
  PlanarityMetrics pm;
  pm.sigma = 25.0;
  pm.sigma_star = 100.0;
  pm.outliers = 0.5;
  ScoreCoefficients c;
  c.beta_sigma = 100.0;
  c.beta_sigma_star = 400.0;
  c.beta_ol = 1.0;
  c.beta_ov = 1000.0;
  c.beta_fa = 500.0;
  c.beta_fs = 1000.0;
  c.beta_t = 100.0;
  c.beta_m = 1e9;
  const QualityBreakdown q = assemble_quality(pm, 100.0, 50.0, c);
  const OverallScore o = assemble_overall(q, 250.0, 25.0, 5e8, c);
  EXPECT_NEAR(o.s_fs, 0.75, 1e-12);
  EXPECT_NEAR(o.s_t, 0.75, 1e-12);
  EXPECT_NEAR(o.s_m, 0.5, 1e-12);
  EXPECT_NEAR(o.overall,
              q.s_qual + 0.05 * 0.75 + 0.15 * 0.75 + 0.05 * 0.5, 1e-12);
}

TEST(Report, ScoreFillResultEndToEnd) {
  const Layout layout = make_design('a', 8, 100.0, 3);
  WindowExtraction ext = extract_windows(layout);
  CmpSimulator sim;
  const ScoreCoefficients coeffs = make_coefficients(layout, ext, sim);
  FillProblem problem(ext, sim, coeffs);
  FillRunResult run;
  run.method = "test";
  run.x = problem.zero_fill();
  run.runtime_s = 1.0;
  const MethodReport rep = score_fill_result(problem, layout, run);
  // Zero fill: fill-amount score 1, fill file nearly empty -> fs score ~1.
  EXPECT_NEAR(rep.score.quality.s_fa, 1.0, 1e-12);
  EXPECT_GT(rep.score.s_fs, 0.9);
  EXPECT_GT(rep.memory_bytes, 0.0);
  // Unfilled design scores 0 on sigma by coefficient construction.
  EXPECT_NEAR(rep.score.quality.s_sigma, 0.0, 1e-9);
}

TEST(Report, PrintersProduceAlignedRows) {
  std::ostringstream os;
  print_table3_header(os);
  MethodReport rep;
  rep.method = "X";
  print_table3_row(os, "A", rep);
  const std::string text = os.str();
  EXPECT_NE(text.find("Design"), std::string::npos);
  EXPECT_NE(text.find("Overall"), std::string::npos);
  // Two lines, same prefix width structure.
  const auto nl = text.find('\n');
  ASSERT_NE(nl, std::string::npos);
  EXPECT_GT(text.size(), nl + 10);
}

// ---------------------------------------------------------------- insertion

class InsertAreaP : public ::testing::TestWithParam<double> {};

TEST_P(InsertAreaP, RealizedAreaTracksRequest) {
  const double level = GetParam();
  Layout layout = make_design('b', 8, 100.0, 2);
  const WindowExtraction ext = extract_windows(layout);
  std::vector<GridD> x;
  double requested = 0.0;
  for (const auto& l : ext.layers) {
    GridD g(ext.rows, ext.cols, 0.0);
    for (std::size_t k = 0; k < g.size(); ++k) {
      g[k] = level * l.slack[k];
      requested += g[k] * ext.window_area_um2();
    }
    x.push_back(std::move(g));
  }
  const std::size_t before = layout.total_dummy_count();
  insert_dummies(layout, ext, x);
  EXPECT_GT(layout.total_dummy_count(), before);
  double realized = 0.0;
  for (const auto& l : layout.layers)
    for (const auto& d : l.dummies) realized += d.area();
  // Adaptive tiles realize the area to within ~12% (min-size windows are
  // skipped, saturated ones clamp).
  EXPECT_NEAR(realized, requested, 0.12 * requested + 1.0);
  // No dummy may leave its window or the die.
  for (const auto& l : layout.layers)
    for (const auto& d : l.dummies) {
      EXPECT_GE(d.x0, 0.0);
      EXPECT_LE(d.x1, layout.width_um + 1e-9);
      EXPECT_GE(d.y0, 0.0);
      EXPECT_LE(d.y1, layout.height_um + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(FillLevels, InsertAreaP,
                         ::testing::Values(0.1, 0.35, 0.7, 1.0));

// ---------------------------------------------------------------- GLF fuzz

class GlfFuzzP : public ::testing::TestWithParam<int> {};

TEST_P(GlfFuzzP, RandomLayoutRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Layout l;
  l.name = "fuzz" + std::to_string(GetParam());
  l.width_um = rng.uniform(100.0, 5000.0);
  l.height_um = rng.uniform(100.0, 5000.0);
  l.layers.resize(1 + rng.uniform_index(4));
  for (auto& layer : l.layers) {
    layer.name = "m" + std::to_string(rng.uniform_index(9));
    const std::size_t nw = rng.uniform_index(200);
    for (std::size_t i = 0; i < nw; ++i) {
      const double x0 = rng.uniform(0.0, l.width_um - 1.0);
      const double y0 = rng.uniform(0.0, l.height_um - 1.0);
      layer.wires.emplace_back(x0, y0,
                               x0 + rng.uniform(0.01, l.width_um - x0),
                               y0 + rng.uniform(0.01, l.height_um - y0));
    }
    const std::size_t nd = rng.uniform_index(50);
    for (std::size_t i = 0; i < nd; ++i) {
      const double x0 = rng.uniform(0.0, l.width_um - 1.0);
      const double y0 = rng.uniform(0.0, l.height_um - 1.0);
      layer.dummies.emplace_back(x0, y0, x0 + 0.5, y0 + 0.5);
    }
  }
  std::stringstream ss;
  write_glf(ss, l);
  const Layout r = read_glf(ss);
  ASSERT_EQ(r.layers.size(), l.layers.size());
  for (std::size_t i = 0; i < l.layers.size(); ++i) {
    ASSERT_EQ(r.layers[i].wires.size(), l.layers[i].wires.size());
    ASSERT_EQ(r.layers[i].dummies.size(), l.layers[i].dummies.size());
    for (std::size_t k = 0; k < l.layers[i].wires.size(); ++k) {
      EXPECT_NEAR(r.layers[i].wires[k].x0, l.layers[i].wires[k].x0, 1e-6);
      EXPECT_NEAR(r.layers[i].wires[k].y1, l.layers[i].wires[k].y1, 1e-6);
    }
  }
  EXPECT_EQ(glf_encoded_size(l), ss.str().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlfFuzzP, ::testing::Range(1, 7));

}  // namespace
}  // namespace neurfill
