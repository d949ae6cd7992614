#pragma once

// Tile decomposition of the full-chip window grid (docs/fullchip.md).
//
// The chip's R x C filling windows are partitioned into square tiles of
// `tile_windows` windows per side (edge tiles are smaller when the chip
// extent is not a multiple).  Each tile is solved over an enlarged *halo*
// region: the core plus `halo_windows` extra window rings, clipped at the
// chip boundary.  The halo width derives from the CMP planarization length:
// a pad deforms over roughly the characteristic length L around a window,
// so windows further than ceil(2L / window) windows away have negligible
// influence on the core's post-CMP heights — that is what makes solving
// tiles independently a controlled approximation of the monolithic solve.
//
// All ranges are half-open window-index ranges into the chip grid; rect()
// helpers convert to micrometre regions for geometry loads.

#include <cstddef>

#include "geom/rect.hpp"

namespace neurfill::fullchip {

/// One tile: its core (the windows this tile owns in the committed result)
/// and its halo (the windows it solves over).  core is always contained in
/// halo; both are clipped to the chip grid.
struct TileRegion {
  std::size_t ti = 0;  ///< tile row
  std::size_t tj = 0;  ///< tile column
  std::size_t core_row0 = 0, core_row1 = 0;  ///< [row0, row1) chip windows
  std::size_t core_col0 = 0, core_col1 = 0;
  std::size_t halo_row0 = 0, halo_row1 = 0;
  std::size_t halo_col0 = 0, halo_col1 = 0;

  std::size_t halo_rows() const { return halo_row1 - halo_row0; }
  std::size_t halo_cols() const { return halo_col1 - halo_col0; }

  /// True when chip window (row, col) lies in the halo but not the core —
  /// i.e. it is owned by a neighbouring tile.
  bool in_halo_fringe(std::size_t row, std::size_t col) const {
    const bool in_halo = row >= halo_row0 && row < halo_row1 &&
                         col >= halo_col0 && col < halo_col1;
    const bool in_core = row >= core_row0 && row < core_row1 &&
                         col >= core_col0 && col < core_col1;
    return in_halo && !in_core;
  }

  /// Micrometre region covered by the halo windows.
  Rect halo_rect(double window_um) const {
    return Rect(static_cast<double>(halo_col0) * window_um,
                static_cast<double>(halo_row0) * window_um,
                static_cast<double>(halo_col1) * window_um,
                static_cast<double>(halo_row1) * window_um);
  }
};

/// The full decomposition.  Construction is pure arithmetic; the same
/// (chip_rows, chip_cols, tile_windows, halo_windows) always produce the
/// same tiles, which the tile-store manifest relies on for resume checks.
class TileGrid {
 public:
  TileGrid(std::size_t chip_rows, std::size_t chip_cols, int tile_windows,
           int halo_windows, double window_um);

  std::size_t chip_rows() const { return chip_rows_; }
  std::size_t chip_cols() const { return chip_cols_; }
  std::size_t tile_rows() const { return tile_rows_; }
  std::size_t tile_cols() const { return tile_cols_; }
  std::size_t num_tiles() const { return tile_rows_ * tile_cols_; }
  int tile_windows() const { return tile_windows_; }
  int halo_windows() const { return halo_windows_; }
  double window_um() const { return window_um_; }

  TileRegion tile(std::size_t ti, std::size_t tj) const;
  TileRegion tile_by_index(std::size_t t) const {
    return tile(t / tile_cols_, t % tile_cols_);
  }

 private:
  std::size_t chip_rows_ = 0;
  std::size_t chip_cols_ = 0;
  std::size_t tile_rows_ = 0;
  std::size_t tile_cols_ = 0;
  int tile_windows_ = 0;
  int halo_windows_ = 0;
  double window_um_ = 0.0;
};

/// Halo width in windows derived from the CMP planarization length: the
/// pressure kernel couples a window to roughly 2L of surroundings, so the
/// halo covers ceil(2 * char_length_um / window_um) windows (at least 1).
int auto_halo_windows(double char_length_um, double window_um);

}  // namespace neurfill::fullchip
