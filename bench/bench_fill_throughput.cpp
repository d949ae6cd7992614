// Fill-loop surrogate throughput: value-only objective evaluations per
// second through CmpNetwork::evaluate(x, false), the path every fill's
// NMMSO moves and PKB sweep take, one candidate at a time.
//
// Emits a one-line JSON summary; --json FILE writes the same object for CI
// (tools/check_bench_regression.py gates fill_evals_per_s, higher is
// better).  Measured single-threaded, at the full-chip driver's default
// tile edge.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "fill/problem.hpp"
#include "geom/designs.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/cmp_network.hpp"

namespace {

using namespace neurfill;

constexpr int kWindows = 16;    // the full-chip driver's default tile edge
constexpr int kCandidates = 8;  // evaluations per timed rep
constexpr int kReps = 21;

double best_s(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];

  const Layout layout = make_design('a', kWindows, 100.0, /*seed=*/9);
  const WindowExtraction ext = extract_windows(layout);
  const CmpSimulator sim;
  const ScoreCoefficients coeffs = make_coefficients(layout, ext, sim);
  // Production surrogate shape (7ch, base 8, depth 3); random weights are
  // fine here — throughput does not depend on the training state.
  const SurrogateConfig cfg;
  const auto surrogate = std::make_shared<CmpSurrogate>(cfg, 21);
  const CmpNetwork net(surrogate, ext, coeffs);
  const std::size_t layers = ext.num_layers();

  // Random candidate fills, as the NMMSO move loop produces them.
  Rng rng(31);
  std::vector<std::vector<GridD>> xs(
      kCandidates, std::vector<GridD>(layers, GridD(ext.rows, ext.cols, 0.0)));
  for (auto& x : xs)
    for (auto& g : x)
      for (auto& v : g) v = rng.uniform(0.0, 0.3);

  runtime::set_thread_count(1);

  const auto run_loop = [&] {
    double acc = 0.0;
    for (const auto& x : xs) acc += net.evaluate(x, false).s_plan;
    return acc;
  };

  run_loop();  // warm-up (arena growth, scratch buffers)
  std::vector<double> loop_s(kReps);
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    run_loop();
    loop_s[static_cast<std::size_t>(r)] = t.elapsed_seconds();
  }
  runtime::set_thread_count(0);

  const double evals_per_s = kCandidates / best_s(loop_s);
  std::printf("=== fill objective throughput, %dx%d windows, %zu layers, "
              "1 thread ===\n",
              kWindows, kWindows, layers);
  std::printf("value evaluations:  %10.1f evals/s\n", evals_per_s);

  char json[256];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"fill_throughput\",\"fill_evals_per_s\":%.1f}",
                evals_per_s);
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
