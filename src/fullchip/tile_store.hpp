#pragma once

// Spill-to-disk store for solved tiles (docs/fullchip.md).
//
// Every solved tile becomes one NFCP checkpoint file
// `tile_p<pass>_r<ti>_c<tj>.nfcp` in the store directory, written through
// the same atomic temp + fsync + rename path as every other checkpoint in
// the project: a SIGKILL at any instant leaves either no record or a
// complete, CRC-validated one, never a torn file.  A `manifest.nfcp`
// records the run configuration; on resume a mismatched manifest is an
// input error (the store belongs to a different run), while a missing or
// corrupt tile record simply means that tile is re-solved — which, because
// tile solves are deterministic, reproduces the exact record that was lost.
//
// Fault sites (docs/robustness.md): `fullchip.tile_write` fails a tile save
// (degradation: the run continues, only resume granularity is lost) and
// `fullchip.tile_read` corrupts a tile load (degradation: the tile is
// re-solved from its inputs).

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/grid2d.hpp"

namespace neurfill::fullchip {

/// Identity of a full-chip run.  Two runs with equal manifests solve the
/// same tiles from the same inputs, so their records are interchangeable —
/// that is the resume contract.
struct StoreManifest {
  std::string design_name;
  std::string method;
  std::uint64_t chip_rows = 0;   ///< windows
  std::uint64_t chip_cols = 0;
  std::uint64_t num_layers = 0;
  std::int64_t tile_windows = 0;
  std::int64_t halo_windows = 0;
  double window_um = 0.0;
  double stitch_tol = 0.0;
  std::int64_t max_stitch_passes = 0;
};

/// One persisted tile solve: the halo-shaped per-layer fill grids plus the
/// run bookkeeping the driver aggregates.
struct TileRecord {
  std::vector<GridD> x;
  bool timed_out = false;
  bool degraded = false;
  std::int64_t evaluations = 0;
};

class TileStore {
 public:
  explicit TileStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Prepares the store.  Fresh runs (`resume == false`) clear any stale
  /// tile records and write the manifest; resumed runs validate the
  /// existing manifest against `manifest` (kInvalidArgument on mismatch —
  /// the store belongs to a different run; a missing manifest just means
  /// there is nothing to resume and the run starts fresh).
  [[nodiscard]] Expected<void> open(const StoreManifest& manifest,
                                    bool resume);

  std::string tile_path(int pass, std::size_t ti, std::size_t tj) const;

  [[nodiscard]] Expected<void> save_tile(int pass, std::size_t ti,
                                         std::size_t tj,
                                         const TileRecord& record) const;

  /// kNotFound when the record does not exist, kCorrupt when it exists but
  /// fails validation (including a shape mismatch against the expected
  /// halo-grid geometry) — both mean "re-solve this tile".
  [[nodiscard]] Expected<TileRecord> load_tile(int pass, std::size_t ti,
                                               std::size_t tj,
                                               std::size_t rows,
                                               std::size_t cols,
                                               std::size_t layers) const;

 private:
  std::string dir_;
};

}  // namespace neurfill::fullchip
