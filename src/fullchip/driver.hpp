#pragma once

// Tiled out-of-core full-chip fill driver (docs/fullchip.md).
//
// fullchip_fill() decomposes the chip's window grid into halo tiles
// (tiling.hpp), solves each tile with the existing per-window NeurFill
// pipeline through the deterministic pool, persists every solved tile in
// the spill-to-disk store (tile_store.hpp), and reconciles tile boundaries
// with Jacobi-style stitch passes: after the free-halo initial pass, each
// refinement pass re-solves every tile with its halo fringe *pinned* to the
// committed neighbour cores from the previous pass, until the worst
// cross-tile disagreement (the seam) falls under tolerance or the pass
// budget runs out.  Because every tile solve is a pure function of its
// inputs and the barrier between passes fixes the data flow, the committed
// result is bitwise-identical at any thread count and across a
// SIGKILL + resume cycle.
//
// Memory model: resident state is the O(records) byte-offset index, the
// O(chip windows) committed grids, and one tile's geometry per in-flight
// solve — never the parsed full-chip Layout.

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cmp/simulator.hpp"
#include "common/deadline.hpp"
#include "common/grid2d.hpp"
#include "fill/neurfill.hpp"
#include "fullchip/tiling.hpp"
#include "geom/glf_stream.hpp"
#include "layout/window_grid.hpp"

namespace neurfill::fullchip {

struct FullChipOptions {
  std::string method = "pkb";  ///< lin, pkb, or mm
  ExtractOptions extract;
  CmpProcessParams process;
  int tile_windows = 16;  ///< core tile edge in windows
  /// Halo width in windows; negative derives it from the planarization
  /// length: auto_halo_windows(process.char_length_um, extract.window_um).
  int halo_windows = -1;
  /// Stitch convergence: the run stops refining once the worst halo-fringe
  /// disagreement with the committed neighbour cores (fraction-of-window
  /// units) drops to this value.
  double stitch_tol = 0.02;
  /// Refinement passes after the initial free-halo pass (0 = tile solves
  /// only).  lin is window-local-rule based and cannot honor pinned halos,
  /// so it always runs the initial pass only.
  int max_stitch_passes = 2;
  std::string store_dir;  ///< spill directory (required)
  /// Continue from the store: completed tiles are loaded, missing or
  /// corrupt ones re-solved; the final fill is bitwise-identical to an
  /// uninterrupted run.
  bool resume = false;
  Deadline deadline;
  /// Per-tile solve budgets (deadline/snapshot/interrupt fields are managed
  /// by the driver; set sqp/nmmso/pkb knobs here).
  NeurFillOptions fill;
  /// Called once per pkb/mm fullchip_fill; the instance it returns serves
  /// every tile solve, concurrently (surrogate evaluation, gradients
  /// included, is tape-free and leaves the network untouched).  Typical
  /// implementation: load_surrogate(prefix).
  std::function<std::shared_ptr<const CmpSurrogate>()> surrogate_factory;
  const std::atomic<bool>* interrupt = nullptr;
};

struct FullChipResult {
  std::size_t rows = 0;  ///< chip windows (y)
  std::size_t cols = 0;  ///< chip windows (x)
  std::vector<GridD> x;  ///< committed per-layer fill, rows x cols
  std::size_t tiles_total = 0;
  std::size_t tiles_solved = 0;  ///< solved this run
  std::size_t tiles_loaded = 0;  ///< restored from the store this run
  int stitch_passes = 0;         ///< refinement passes executed
  double final_seam = 0.0;       ///< worst disagreement after the last pass
  double runtime_s = 0.0;
  double tile_seconds = 0.0;  ///< summed wall-clock of tile solves
  bool timed_out = false;
  bool degraded = false;
  long evaluations = 0;
};

/// Cuts one tile's geometry out of the indexed full-chip GLF: every record
/// intersecting the halo region, *unclipped*, shifted so the halo's corner
/// is the local origin; the local extents span exactly the halo windows.
/// Loading unclipped rects keeps per-window clipping and perimeter
/// attribution identical to the monolithic extraction.
Layout load_tile_layout(const GlfRegionIndex& index, const TileRegion& tile,
                        double window_um);

/// Runs the tiled fill over an indexed GLF.  Throws ErrorException for
/// unusable inputs (unknown method, missing store_dir, store mismatch) and
/// on operator interrupt (kInterrupted) — solved tiles stay in the store
/// either way, so the run is resumable.
FullChipResult fullchip_fill(const GlfRegionIndex& index,
                             const FullChipOptions& options);

/// Streams `result` into `out_path`: original geometry is copied verbatim
/// from the indexed input, committed fill is realized window by window with
/// the same kernel the monolithic path uses (append_window_dummies), and
/// the write is atomic.  Returns the number of dummies written.
std::size_t write_fullchip_result(const GlfRegionIndex& index,
                                  const std::string& out_path,
                                  const FullChipResult& result,
                                  double window_um,
                                  double min_dummy_edge_um = 4.0);

}  // namespace neurfill::fullchip
