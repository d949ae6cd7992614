#include "fullchip/driver.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "fill/pipeline.hpp"
#include "fullchip/tile_store.hpp"
#include "fullchip/tiling.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace neurfill::fullchip {

namespace {

Error driver_error(ErrorCode code, const std::string& what) {
  return Error(code, "fullchip.driver", what);
}

/// Flattened variable index of window (i, j) on layer l in a tile problem,
/// matching FillProblem::flatten (layers outermost, row-major grids).
std::size_t var_index(std::size_t l, std::size_t i, std::size_t j,
                      std::size_t rows, std::size_t cols) {
  return (l * rows + i) * cols + j;
}

/// One tile's outcome within a pass, collected by tile index so the serial
/// commit/seam loops see a thread-count-independent ordering.
struct TileOutcome {
  TileRecord record;
  bool loaded = false;
  double seconds = 0.0;
};

struct PassContext {
  const GlfRegionIndex& index;
  const TileGrid& grid;
  const FullChipOptions& options;
  const TileStore& store;
  /// The run's one surrogate (pkb/mm), shared by every concurrent tile
  /// solve: evaluation is tape-free and stateless, so sharing is safe.
  std::shared_ptr<const CmpSurrogate> surrogate;
  /// Committed fill from the previous pass; fringe windows pin to it when
  /// `pass` >= 1.
  const std::vector<GridD>* committed_prev = nullptr;
  int pass = 0;
  std::size_t num_layers = 0;
};

}  // namespace

// Loading *unclipped* rects is what keeps per-window clipping and perimeter
// attribution equal to the monolithic extraction — a rect cut at the tile
// edge would contribute spurious perimeter.
Layout load_tile_layout(const GlfRegionIndex& index, const TileRegion& tile,
                        double window_um) {
  const double w = window_um;
  const Layout region = index.load_region(tile.halo_rect(w));
  const double ox = static_cast<double>(tile.halo_col0) * w;
  const double oy = static_cast<double>(tile.halo_row0) * w;
  Layout local;
  local.name = region.name;
  local.width_um = static_cast<double>(tile.halo_cols()) * w;
  local.height_um = static_cast<double>(tile.halo_rows()) * w;
  local.layers.resize(region.layers.size());
  for (std::size_t l = 0; l < region.layers.size(); ++l) {
    local.layers[l].name = region.layers[l].name;
    local.layers[l].wires.reserve(region.layers[l].wires.size());
    for (const Rect& r : region.layers[l].wires)
      local.layers[l].wires.emplace_back(r.x0 - ox, r.y0 - oy, r.x1 - ox,
                                         r.y1 - oy);
    local.layers[l].dummies.reserve(region.layers[l].dummies.size());
    for (const Rect& r : region.layers[l].dummies)
      local.layers[l].dummies.emplace_back(r.x0 - ox, r.y0 - oy, r.x1 - ox,
                                           r.y1 - oy);
  }
  return local;
}

namespace {

/// Pins every halo-fringe variable to the committed value from the previous
/// pass (lo == hi), leaving core windows free: the Jacobi stitch update.
void pin_fringe(FillProblem& problem, const TileRegion& tile,
                const std::vector<GridD>& committed_prev) {
  const WindowExtraction& ext = problem.extraction();
  Box box = problem.bounds();
  for (std::size_t l = 0; l < ext.num_layers(); ++l) {
    for (std::size_t i = 0; i < ext.rows; ++i) {
      for (std::size_t j = 0; j < ext.cols; ++j) {
        const std::size_t chip_row = tile.halo_row0 + i;
        const std::size_t chip_col = tile.halo_col0 + j;
        if (!tile.in_halo_fringe(chip_row, chip_col)) continue;
        const std::size_t k = var_index(l, i, j, ext.rows, ext.cols);
        const double v = committed_prev[l](chip_row, chip_col);
        box.lo[k] = v;
        box.hi[k] = v;
      }
    }
  }
  problem.set_bounds_override(std::move(box));
}

TileRecord solve_tile(const PassContext& ctx, const TileRegion& tile,
                      double* seconds) {
  obs::SpanTimer timer("fullchip.tile");
  const FullChipOptions& opt = ctx.options;
  TileRecord record;
  if (opt.deadline.expired()) {
    // Honest degradation: past the deadline a tile gets the feasible
    // zero fill instead of burning more wall clock.
    record.x.assign(ctx.num_layers,
                    GridD(tile.halo_rows(), tile.halo_cols(), 0.0));
    record.timed_out = true;
    *seconds = timer.stop_seconds();
    return record;
  }

  const Layout local =
      load_tile_layout(ctx.index, tile, ctx.grid.window_um());
  FillProblem problem = make_fill_problem(local, opt.extract, opt.process);
  NF_CHECK(problem.extraction().rows == tile.halo_rows() &&
               problem.extraction().cols == tile.halo_cols(),
           "fullchip: tile extraction %zux%zu != halo %zux%zu",
           problem.extraction().rows, problem.extraction().cols,
           tile.halo_rows(), tile.halo_cols());
  if (ctx.pass >= 1) pin_fringe(problem, tile, *ctx.committed_prev);

  FillRequest request;
  request.method = opt.method;
  request.neurfill = opt.fill;
  request.neurfill.deadline = opt.deadline;
  request.neurfill.interrupt = opt.interrupt;
  // The tile record is the run's only checkpoint: a tile killed mid-solve
  // re-solves from its start on resume, to the same bytes.
  request.neurfill.snapshot_path.clear();
  request.neurfill.resume = false;
  request.surrogate = ctx.surrogate;
  FillRunResult run = run_fill(problem, request);
  record.x = std::move(run.x);
  record.timed_out = run.timed_out;
  record.degraded = run.degraded;
  record.evaluations = run.objective_evaluations;
  *seconds = timer.stop_seconds();
  return record;
}

/// Runs one pass over all tiles through the deterministic pool.  Outcomes
/// land in a per-tile slot, so downstream serial loops are order-stable.
std::vector<TileOutcome> run_pass(const PassContext& ctx) {
  const std::size_t n = ctx.grid.num_tiles();
  std::vector<TileOutcome> outcomes(n);
  runtime::parallel_for(1, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      if (ctx.options.interrupt && ctx.options.interrupt->load())
        throw ErrorException(
            driver_error(ErrorCode::kInterrupted,
                         "interrupted; solved tiles remain in '" +
                             ctx.store.dir() + "' for --resume"));
      const TileRegion tile = ctx.grid.tile_by_index(t);
      TileOutcome& out = outcomes[t];
      Expected<TileRecord> loaded =
          ctx.store.load_tile(ctx.pass, tile.ti, tile.tj, tile.halo_rows(),
                              tile.halo_cols(), ctx.num_layers);
      if (loaded.ok()) {
        out.record = std::move(*loaded);
        out.loaded = true;
      } else {
        if (loaded.error().code == ErrorCode::kCorrupt)
          LOG_WARN("fullchip: %s; re-solving tile",
                   loaded.error().to_string().c_str());
        out.record = solve_tile(ctx, tile, &out.seconds);
        NF_COUNTER_ADD("fullchip.tiles_solved", 1);
        Expected<void> saved =
            ctx.store.save_tile(ctx.pass, tile.ti, tile.tj, out.record);
        if (!saved.ok())
          LOG_WARN("fullchip: %s; run continues without resume coverage "
                   "for this tile",
                   saved.error().to_string().c_str());
      }
    }
  });
  return outcomes;
}

/// Worst disagreement between any tile's halo-fringe opinion and the
/// committed owner value — the seam metric of docs/fullchip.md.  After a
/// pinned pass the fringe holds the *previous* committed values, so this
/// doubles as the committed-field delta between consecutive passes.
double seam_metric(const TileGrid& grid,
                   const std::vector<TileOutcome>& outcomes,
                   const std::vector<GridD>& committed) {
  double seam = 0.0;
  for (std::size_t t = 0; t < outcomes.size(); ++t) {
    const TileRegion tile = grid.tile_by_index(t);
    const std::vector<GridD>& x = outcomes[t].record.x;
    for (std::size_t l = 0; l < x.size(); ++l) {
      for (std::size_t i = 0; i < tile.halo_rows(); ++i) {
        for (std::size_t j = 0; j < tile.halo_cols(); ++j) {
          const std::size_t chip_row = tile.halo_row0 + i;
          const std::size_t chip_col = tile.halo_col0 + j;
          if (!tile.in_halo_fringe(chip_row, chip_col)) continue;
          seam = std::max(seam, std::abs(x[l](i, j) -
                                         committed[l](chip_row, chip_col)));
        }
      }
    }
  }
  return seam;
}

}  // namespace

TileGrid tile_grid(const GlfRegionIndex& index,
                   const FullChipOptions& options) {
  const double w = options.extract.window_um;
  const int halo =
      options.halo_windows >= 0
          ? options.halo_windows
          : auto_halo_windows(options.process.char_length_um, w);
  return TileGrid(window_count(index.height_um(), w),
                  window_count(index.width_um(), w), options.tile_windows,
                  halo, w);
}

FullChipResult fullchip_fill(const GlfRegionIndex& index,
                             const FullChipOptions& options) {
  obs::SpanTimer timer("fullchip.run");
  if (options.method != "lin" && !is_model_based(options.method))
    throw ErrorException(driver_error(
        ErrorCode::kInvalidArgument,
        "method '" + options.method +
            "' is not tileable (supported: lin, pkb, mm)"));
  if (options.store_dir.empty())
    throw ErrorException(driver_error(ErrorCode::kInvalidArgument,
                                      "store_dir is required"));
  if (is_model_based(options.method) && !options.surrogate_factory)
    throw ErrorException(driver_error(
        ErrorCode::kInvalidArgument,
        "method '" + options.method + "' needs a surrogate_factory"));

  const TileGrid grid = tile_grid(index, options);
  const std::size_t rows = grid.chip_rows();
  const std::size_t cols = grid.chip_cols();
  // lin assigns per-layer target densities from tile-local rules and cannot
  // honor pinned fringe variables, so refining it would not converge.
  const int max_passes =
      options.method == "lin" ? 0 : std::max(0, options.max_stitch_passes);

  StoreManifest manifest;
  manifest.design_name = index.name();
  manifest.method = options.method;
  manifest.chip_rows = rows;
  manifest.chip_cols = cols;
  manifest.num_layers = index.num_layers();
  manifest.tile_windows = options.tile_windows;
  manifest.halo_windows = grid.halo_windows();
  manifest.window_um = grid.window_um();
  manifest.stitch_tol = options.stitch_tol;
  manifest.max_stitch_passes = max_passes;
  TileStore store(options.store_dir);
  Expected<void> opened = store.open(manifest, options.resume);
  if (!opened.ok()) throw ErrorException(opened.error());

  FullChipResult result;
  result.rows = rows;
  result.cols = cols;
  result.tiles_total = grid.num_tiles();
  result.x.assign(index.num_layers(), GridD(rows, cols, 0.0));

  PassContext ctx{index, grid, options, store, nullptr, nullptr, 0,
                  index.num_layers()};
  if (is_model_based(options.method)) {
    ctx.surrogate = options.surrogate_factory();
    if (!ctx.surrogate)
      throw ErrorException(driver_error(ErrorCode::kInvalidArgument,
                                        "surrogate factory returned null"));
  }
  std::vector<GridD> committed_prev;
  for (int pass = 0;; ++pass) {
    NF_TRACE_SPAN("fullchip.stitch");
    ctx.pass = pass;
    ctx.committed_prev = pass >= 1 ? &committed_prev : nullptr;
    const std::vector<TileOutcome> outcomes = run_pass(ctx);

    // Serial commit in tile order: each core window has exactly one owner.
    for (std::size_t t = 0; t < outcomes.size(); ++t) {
      const TileRegion tile = grid.tile_by_index(t);
      const TileOutcome& out = outcomes[t];
      NF_CHECK(out.record.x.size() == index.num_layers(),
               "fullchip: tile %zu returned %zu layers (expected %zu)", t,
               out.record.x.size(), index.num_layers());
      for (std::size_t l = 0; l < out.record.x.size(); ++l)
        for (std::size_t i = tile.core_row0; i < tile.core_row1; ++i)
          for (std::size_t j = tile.core_col0; j < tile.core_col1; ++j)
            result.x[l](i, j) = out.record.x[l](i - tile.halo_row0,
                                                j - tile.halo_col0);
      if (out.loaded) {
        ++result.tiles_loaded;
      } else {
        ++result.tiles_solved;
        result.tile_seconds += out.seconds;
      }
      result.evaluations += out.record.evaluations;
      result.timed_out = result.timed_out || out.record.timed_out;
      result.degraded = result.degraded || out.record.degraded;
    }

    const double seam = seam_metric(grid, outcomes, result.x);
    result.final_seam = seam;
    result.stitch_passes = pass;
    NF_GAUGE_SET("fullchip.seam", seam);
    LOG_INFO("fullchip: pass %d done, seam %.5f (tol %.5f)", pass, seam,
             options.stitch_tol);
    if (seam <= options.stitch_tol || pass >= max_passes ||
        result.timed_out)
      break;
    committed_prev = result.x;
  }
  result.runtime_s = timer.stop_seconds();
  return result;
}

namespace {

/// DummySource over the committed grids: windows are realized one at a time
/// through the same kernel the monolithic insert_dummies uses, so the
/// writer's memory stays O(1) in the chip size.
class CommittedFillSource final : public DummySource {
 public:
  CommittedFillSource(const FullChipResult& result, double window_um,
                      double min_edge_um)
      : result_(result), window_um_(window_um), min_edge_um_(min_edge_um) {}

  std::size_t count(std::size_t layer) override {
    std::size_t n = 0;
    for_layer(layer, [&n](const Rect&) { ++n; });
    return n;
  }

  void emit(std::size_t layer,
            const std::function<void(const Rect&)>& sink) override {
    for_layer(layer, [this, &sink](const Rect& r) {
      ++total_;
      sink(r);
    });
  }

  std::size_t total() const { return total_; }

 private:
  template <typename Sink>
  void for_layer(std::size_t layer, const Sink& sink) {
    const GridD& x = result_.x[layer];
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < x.cols(); ++j) {
        scratch_.clear();
        append_window_dummies(scratch_, i, j, window_um_, x(i, j),
                              min_edge_um_);
        for (const Rect& r : scratch_) sink(r);
      }
    }
  }

  const FullChipResult& result_;
  double window_um_;
  double min_edge_um_;
  std::vector<Rect> scratch_;
  std::size_t total_ = 0;
};

}  // namespace

std::size_t write_fullchip_result(const GlfRegionIndex& index,
                                  const std::string& out_path,
                                  const FullChipResult& result,
                                  double window_um, double min_dummy_edge_um) {
  NF_CHECK(result.x.size() == index.num_layers(),
           "write_fullchip_result: %zu fill layers for %zu file layers",
           result.x.size(), index.num_layers());
  CommittedFillSource source(result, window_um, min_dummy_edge_um);
  write_glf_with_dummies(index, out_path, source);
  return source.total();
}

}  // namespace neurfill::fullchip
