// Fig. 9 reproduction: distribution of the per-window average relative
// height error of the pre-trained UNet against the full-chip CMP simulator,
// plus the Section V-A summary numbers:
//   paper: mean 0.6%, max window 1.77%, 90% of windows < 1.3%,
//          extension set (unseen design) 2.7%.
//
// The test set is generated by the two-step random procedure from Designs A
// and B (the training sources); the extension set comes from Design C,
// which pre-training never saw — exactly the paper's extension-ability
// split.  Absolute percentages land higher than the paper's (minutes of CPU
// pre-training vs 32 GPU-hours); the shape to check is mean << max, a
// right-skewed histogram, and extension error a few times the in-
// distribution error.

#include <cstdio>

#include "geom/designs.hpp"
#include "surrogate/eval.hpp"

#include "bench_util.hpp"

using namespace neurfill;

namespace {

void print_report(const char* title, const AccuracyReport& rep) {
  std::printf("\n%s (%d samples):\n", title, rep.samples);
  std::printf("  mean relative error            : %6.2f%%\n",
              100.0 * rep.mean_rel_error);
  std::printf("  max per-window average error   : %6.2f%%\n",
              100.0 * rep.max_window_rel_error);
  std::printf("  windows below 2.2x mean (%.2f%%) : %6.1f%%  (paper: 90%% "
              "below 2.2x its mean)\n",
              100.0 * rep.below_threshold, 100.0 * rep.frac_windows_below);
  std::printf("  per-window error histogram (bucket center -> count):\n");
  for (std::size_t b = 0; b < rep.histogram.counts.size(); ++b) {
    if (rep.histogram.counts[b] == 0) continue;
    std::printf("    %5.2f%% : %5zu ", 100.0 * rep.histogram.bucket_center(b),
                rep.histogram.counts[b]);
    const std::size_t bars = rep.histogram.counts[b] * 60 /
                             std::max<std::size_t>(rep.histogram.total(), 1);
    for (std::size_t i = 0; i < bars; ++i) std::printf("#");
    std::printf("\n");
  }
}

}  // namespace

int main() {
  std::printf("=== Fig. 9: surrogate accuracy vs full-chip CMP simulator ===\n");
  const int grid = 32;
  CmpSimulator sim;

  // Test set: same sources as pre-training (A + B).
  const Layout da = make_design('a', grid, 100.0, 11);
  const Layout db = make_design('b', grid, 100.0, 12);
  std::vector<WindowExtraction> train_sources{extract_windows(da),
                                              extract_windows(db)};
  TrainingDataGenerator test_gen(train_sources, sim, /*seed=*/101);
  const auto surrogate =
      neurfill::bench::acquire_surrogate(train_sources[0], sim);

  const AccuracyReport in_dist = evaluate_surrogate_accuracy(
      *surrogate, test_gen, /*num_samples=*/25, grid, grid);
  print_report("Test set (sources: designs A+B, as in training)", in_dist);

  // Extension set: design C, never seen in pre-training.
  const Layout dc = make_design('c', grid, 100.0, 13);
  TrainingDataGenerator ext_gen({extract_windows(dc)}, sim, /*seed=*/202);
  const AccuracyReport extension = evaluate_surrogate_accuracy(
      *surrogate, ext_gen, /*num_samples=*/25, grid, grid);
  print_report("Extension set (design C, unseen)", extension);

  std::printf("\npaper reference: mean 0.6%%, max window 1.77%%, 90%% of "
              "windows < 1.3%%, extension 2.7%%\n");
  std::printf("shape check: extension/mean ratio = %.1fx (paper: %.1fx)\n",
              extension.mean_rel_error /
                  std::max(in_dist.mean_rel_error, 1e-12),
              2.7 / 0.6);
  return 0;
}
