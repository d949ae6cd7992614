#pragma once

// Shared setup for the experiment benches: the fill problem through the
// pipeline (fill/pipeline.hpp) and the surrogate through the provider
// (surrogate/provider.hpp), which quick-trains a reduced one when the
// cached artifact (data/unet_cmp, produced by examples/train_surrogate) is
// absent and stops the bench when it is corrupt.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "fill/neurfill.hpp"
#include "fill/pipeline.hpp"
#include "geom/designs.hpp"
#include "surrogate/cmp_network.hpp"
#include "surrogate/provider.hpp"

namespace neurfill::bench {

inline std::string surrogate_prefix() {
  const char* env = std::getenv("NEURFILL_SURROGATE");
  return env ? env : "data/unet_cmp";
}

struct ProblemBundle {
  Layout layout;
  FillProblem problem;
  std::shared_ptr<const CmpSurrogate> surrogate;
  std::unique_ptr<CmpNetwork> network;
};

/// The surrogate at surrogate_prefix(), or the provider's quick-trained
/// fallback on `ext` when none exists; any other load error ends the bench.
inline std::shared_ptr<const CmpSurrogate> acquire_surrogate(
    const WindowExtraction& ext, const CmpSimulator& sim) {
  SurrogateProvider provider;
  Expected<std::shared_ptr<const CmpSurrogate>> surrogate =
      provider.get(surrogate_prefix(), ext, sim);
  if (!surrogate.ok()) {
    std::fprintf(stderr, "error: %s\n", surrogate.error().to_string().c_str());
    std::exit(1);
  }
  return std::move(*surrogate);
}

inline ProblemBundle make_bundle(char design, int windows,
                                 std::uint64_t seed = 1) {
  Layout layout = make_design(design, windows, 100.0, seed);
  FillProblem problem =
      make_fill_problem(layout, ExtractOptions(), CmpProcessParams());
  ProblemBundle b{std::move(layout), std::move(problem), nullptr, nullptr};
  b.surrogate =
      acquire_surrogate(b.problem.extraction(), b.problem.simulator());
  b.network = std::make_unique<CmpNetwork>(
      b.surrogate, b.problem.extraction(), b.problem.coefficients());
  calibrate_network(*b.network, b.problem);  // two-anchor simulator fit
  return b;
}

}  // namespace neurfill::bench
