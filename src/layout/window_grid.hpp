#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/grid2d.hpp"
#include "geom/layout.hpp"

namespace neurfill {

/// Options controlling window extraction.
struct ExtractOptions {
  double window_um = 100.0;   ///< uniform window edge (paper: 100um x 100um)
  double max_density = 0.85;  ///< foundry max metal density rule
  /// Spacing a dummy must keep from existing geometry; converts wire
  /// perimeter into lost fillable area.
  double fill_spacing_um = 2.0;
  /// Fraction of the geometrically free area that is actually fillable
  /// (accounts for min-size/min-space quantization of dummy shapes).
  double fill_utilization = 0.92;
};

/// Per-layer window parameters extracted from the layout.  All densities and
/// slacks are *fractions of the window area*, i.e. the optimization variable
/// x_{l,i,j} lives in [0, slack(i,j)] in these units; multiply by
/// window_um^2 for um^2 amounts.
struct LayerWindowData {
  GridD wire_density;   ///< design wires only
  GridD dummy_density;  ///< previously inserted dummies
  GridD perimeter_um;   ///< total wire perimeter inside the window (um)
  GridD avg_width_um;   ///< area/perimeter-based mean feature width (um)
  GridD slack;          ///< fillable fraction s_{l,i,j}

  /// Four-type fillable-region split of `slack` (Fig. 5).  Index 0..3 map to
  /// types 1..4: {below,above} = {slack,slack}, {slack,wire}, {wire,slack},
  /// {wire,wire}.  The four grids sum to `slack`.
  std::array<GridD, 4> slack_type;

  /// s*_{l,i,j}: slack fraction shared with layer l+1 (slack-over-slack
  /// region), bounding dummy-to-dummy overlay (Eq. 14).  Zero on the top
  /// layer.
  GridD nonoverlap_slack;

  GridD density() const;  ///< wire + dummy density
};

/// The result of dividing a layout into uniform windows and extracting the
/// pattern parameters the CMP model and the filling objectives consume.
struct WindowExtraction {
  double window_um = 0.0;
  std::size_t rows = 0;  ///< N (y direction)
  std::size_t cols = 0;  ///< M (x direction)
  std::vector<LayerWindowData> layers;

  std::size_t num_layers() const { return layers.size(); }
  std::size_t num_windows() const { return layers.size() * rows * cols; }
  double window_area_um2() const { return window_um * window_um; }
};

/// Bytes of the grids extract_windows builds for `rows` x `cols` windows on
/// `layers` layers: every double grid of each LayerWindowData.  Saturates
/// at SIZE_MAX.
std::size_t window_grid_bytes(std::size_t rows, std::size_t cols,
                              std::size_t layers);

/// The largest window grid extract_windows builds, in window_grid_bytes:
/// 1 GiB.  The largest monolithic run EXPERIMENTS.md records (256 x 256
/// windows on 3 layers) builds 15 MiB of it, and a 1000 x 1000-window die
/// on 3 layers 229 MiB; past the cap a die takes the tiled driver, whose
/// tile problems stay tile-sized.
inline constexpr std::size_t kMaxWindowGridBytes = std::size_t{1} << 30;

/// Divides the layout into ceil(extent / window_um) windows per axis and
/// extracts densities, perimeters, widths, slack and its four-type split.
/// Rectangles are clipped exactly against window boundaries.  A grid past
/// kMaxWindowGridBytes is refused before anything is allocated
/// (ErrorException, kInvalidArgument).
WindowExtraction extract_windows(const Layout& layout,
                                 const ExtractOptions& opt = {});

/// Fill-insertion phase: materialize per-window fill amounts `x` (fraction
/// units, one grid per layer, same shape as the extraction) as dummy
/// rectangles in the layout.  Each window receives at most a 3x3 grid of
/// square tiles whose edge adapts to realize the requested area exactly
/// (down to `min_edge_um`, the minimum manufacturable dummy), keeping the
/// output file compact.  Returns the number of dummies inserted.
std::size_t insert_dummies(Layout& layout, const WindowExtraction& ext,
                           const std::vector<GridD>& x,
                           double min_edge_um = 4.0);

/// The per-window realization kernel insert_dummies is built on, exposed so
/// the fullchip streaming writer emits exactly the same dummy geometry
/// window by window without materializing a full-chip Layout.  Appends the
/// (at most 3x3) square tiles realizing fill fraction `amount_frac` of
/// window (i, j) to `out` and returns how many were appended.  Window
/// indices are in whatever grid the caller addresses — coordinates come out
/// as (j, i) * window_um plus the in-window site offsets.
std::size_t append_window_dummies(std::vector<Rect>& out, std::size_t i,
                                  std::size_t j, double window_um,
                                  double amount_frac, double min_edge_um = 4.0);

}  // namespace neurfill
