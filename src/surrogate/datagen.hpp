#pragma once

#include <cstdint>
#include <vector>

#include "cmp/simulator.hpp"
#include "common/rng.hpp"
#include "layout/window_grid.hpp"

namespace neurfill {

/// One training instance for the surrogate: an assembled layout (as window
/// parameters), a random fill, and the simulator's ground-truth heights.
struct TrainingSample {
  WindowExtraction ext;
  std::vector<GridD> fill;
  std::vector<GridD> heights;
};

/// The two-step random procedure of Fig. 8:
///  (1) windows of the available source layouts are cut into blocks and
///      randomly re-assembled into layouts of the requested size (block
///      granularity preserves short-range spatial correlation, which the
///      CMP kernel cares about);
///  (2) random dummies are inserted within each window's slack (no design
///      rule violated by construction since fill never exceeds slack).
/// Every sample is then simulated by the full-chip CMP simulator to label
/// the post-CMP height profiles.
class TrainingDataGenerator {
 public:
  TrainingDataGenerator(std::vector<WindowExtraction> sources,
                        CmpSimulator simulator, std::uint64_t seed,
                        std::size_t block = 8);

  /// Generates one rows x cols sample (all source layouts must share the
  /// layer count).
  TrainingSample generate(std::size_t rows, std::size_t cols);

  /// Generates `count` samples, running their CMP simulations in parallel
  /// across the runtime's default pool.  All randomness is drawn serially
  /// from the generator's stream before the parallel phase starts, so a
  /// batch of `count` samples is byte-identical to `count` successive
  /// generate() calls at every thread count — only wall-clock changes.
  std::vector<TrainingSample> generate_batch(std::size_t count,
                                             std::size_t rows,
                                             std::size_t cols);

  const CmpSimulator& simulator() const { return sim_; }

 private:
  /// Draws one sample's layout and fill (everything but the simulated
  /// heights) from a caller-owned RNG stream.
  TrainingSample assemble(Rng& rng, std::size_t rows, std::size_t cols) const;

  std::vector<WindowExtraction> sources_;
  CmpSimulator sim_;
  Rng rng_;
  std::size_t block_;
};

}  // namespace neurfill
