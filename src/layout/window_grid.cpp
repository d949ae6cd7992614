#include "layout/window_grid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/error.hpp"

namespace neurfill {

GridD LayerWindowData::density() const {
  GridD d = wire_density;
  for (std::size_t k = 0; k < d.size(); ++k) d[k] += dummy_density[k];
  return d;
}

namespace {

/// Accumulate one rectangle set into density/perimeter grids.
void accumulate_rects(const std::vector<Rect>& rects, double window_um,
                      std::size_t rows, std::size_t cols, GridD& density,
                      GridD* perimeter) {
  const double inv_area = 1.0 / (window_um * window_um);
  // Window indices clamp to the grid before the cast: a GLF may hold rects
  // far outside its extent.
  const auto cell = [](double v, std::size_t n) {
    return static_cast<std::size_t>(
        std::clamp(v, 0.0, static_cast<double>(n)));
  };
  for (const Rect& r : rects) {
    if (r.empty()) continue;
    const std::size_t j0 = cell(std::floor(r.x0 / window_um), cols);
    const std::size_t i0 = cell(std::floor(r.y0 / window_um), rows);
    // Closed-open rects: a rect ending exactly on a boundary does not touch
    // the next window.
    const std::size_t j1 = cell(std::ceil(r.x1 / window_um) - 1.0, cols - 1);
    const std::size_t i1 = cell(std::ceil(r.y1 / window_um) - 1.0, rows - 1);
    for (std::size_t i = i0; i <= i1; ++i) {
      for (std::size_t j = j0; j <= j1; ++j) {
        const double wx = static_cast<double>(j) * window_um;
        const double wy = static_cast<double>(i) * window_um;
        const Rect win(wx, wy, wx + window_um, wy + window_um);
        const Rect clip = r.intersect(win);
        if (clip.empty()) continue;
        density(i, j) += clip.area() * inv_area;
        if (perimeter) (*perimeter)(i, j) += perimeter_inside(r, win);
      }
    }
  }
}

}  // namespace

std::size_t window_grid_bytes(std::size_t rows, std::size_t cols,
                              std::size_t layers) {
  // Every member of LayerWindowData is a double grid of rows x cols, so a
  // grid added there is counted here.
  constexpr std::size_t kGridsPerLayer = sizeof(LayerWindowData) / sizeof(GridD);
  static_assert(sizeof(LayerWindowData) == kGridsPerLayer * sizeof(GridD),
                "LayerWindowData holds grids only");
  std::size_t bytes = 0;
  if (__builtin_mul_overflow(rows, cols, &bytes) ||
      __builtin_mul_overflow(bytes, layers, &bytes) ||
      __builtin_mul_overflow(bytes, kGridsPerLayer * sizeof(double), &bytes))
    return SIZE_MAX;
  return bytes;
}

WindowExtraction extract_windows(const Layout& layout,
                                 const ExtractOptions& opt) {
  if (layout.width_um <= 0.0 || layout.height_um <= 0.0)
    throw std::invalid_argument("extract_windows: layout has no extent");

  WindowExtraction ext;
  ext.window_um = opt.window_um;
  ext.cols = window_count(layout.width_um, opt.window_um);
  ext.rows = window_count(layout.height_um, opt.window_um);
  const std::size_t bytes =
      window_grid_bytes(ext.rows, ext.cols, layout.num_layers());
  if (bytes > kMaxWindowGridBytes)
    throw ErrorException(Error(
        ErrorCode::kInvalidArgument, "layout.window_grid",
        std::to_string(ext.rows) + " x " + std::to_string(ext.cols) +
            " windows on " + std::to_string(layout.num_layers()) +
            " layers need " + std::to_string(bytes >> 20) +
            " MiB of window grids, past the " +
            std::to_string(kMaxWindowGridBytes >> 20) +
            " MiB a monolithic run may build; use --tiled or a larger "
            "window"));
  ext.layers.resize(layout.num_layers());

  const std::size_t L = layout.num_layers();
  for (std::size_t l = 0; l < L; ++l) {
    LayerWindowData& d = ext.layers[l];
    d.wire_density = GridD(ext.rows, ext.cols, 0.0);
    d.dummy_density = GridD(ext.rows, ext.cols, 0.0);
    d.perimeter_um = GridD(ext.rows, ext.cols, 0.0);
    d.avg_width_um = GridD(ext.rows, ext.cols, 0.0);
    d.slack = GridD(ext.rows, ext.cols, 0.0);
    accumulate_rects(layout.layers[l].wires, opt.window_um, ext.rows, ext.cols,
                     d.wire_density, &d.perimeter_um);
    accumulate_rects(layout.layers[l].dummies, opt.window_um, ext.rows,
                     ext.cols, d.dummy_density, nullptr);

    const double wa = ext.window_area_um2();
    for (std::size_t k = 0; k < d.wire_density.size(); ++k) {
      // Overlapping generator rects can push clipped density slightly past
      // the physical bound; clamp to 1.
      d.wire_density[k] = std::min(d.wire_density[k], 1.0);
      d.dummy_density[k] = std::min(d.dummy_density[k], 1.0 - d.wire_density[k]);
      const double area_um2 = d.wire_density[k] * wa;
      // Mean feature width of a set of rects ~ 2*area/perimeter (exact for
      // long lines of width w: 2*w*L/(2L) = w).
      d.avg_width_um[k] =
          d.perimeter_um[k] > 1e-12 ? 2.0 * area_um2 / d.perimeter_um[k] : 0.0;
      // Fillable slack: free area derated by utilization, minus the keep-out
      // halo around existing geometry (perimeter * spacing), capped by the
      // max-density rule.
      const double rho = d.wire_density[k] + d.dummy_density[k];
      const double halo = d.perimeter_um[k] * opt.fill_spacing_um / wa;
      const double geometric = std::max(0.0, (1.0 - rho) * opt.fill_utilization - halo);
      const double rule = std::max(0.0, opt.max_density - rho);
      d.slack[k] = std::min(geometric, rule);
    }
  }

  // Four-type split (Fig. 5) and s* (Eq. 14).  Without per-shape alignment
  // information we estimate the split by assuming geometry on adjacent
  // layers is uncorrelated within a window, so the slack under/over wire
  // fractions follow the neighbour layers' densities.  Boundary layers treat
  // the missing neighbour as all-slack (no overlay possible).
  for (std::size_t l = 0; l < L; ++l) {
    LayerWindowData& d = ext.layers[l];
    for (auto& g : d.slack_type) g = GridD(ext.rows, ext.cols, 0.0);
    d.nonoverlap_slack = GridD(ext.rows, ext.cols, 0.0);
    for (std::size_t k = 0; k < d.slack.size(); ++k) {
      const double rho_up =
          (l + 1 < L) ? std::min(1.0, ext.layers[l + 1].wire_density[k] +
                                          ext.layers[l + 1].dummy_density[k])
                      : 0.0;
      const double rho_dn =
          (l > 0) ? std::min(1.0, ext.layers[l - 1].wire_density[k] +
                                      ext.layers[l - 1].dummy_density[k])
                  : 0.0;
      const double s = d.slack[k];
      d.slack_type[0][k] = s * (1.0 - rho_up) * (1.0 - rho_dn);  // type 1
      d.slack_type[1][k] = s * rho_up * (1.0 - rho_dn);          // type 2
      d.slack_type[2][k] = s * (1.0 - rho_up) * rho_dn;          // type 3
      d.slack_type[3][k] = s * rho_up * rho_dn;                  // type 4
      // Slack-over-slack region shared with layer l+1: both layers can place
      // type-1 dummies here, so their combined amount beyond s* overlays.
      d.nonoverlap_slack[k] = (l + 1 < L)
                                  ? (1.0 - rho_up) * (1.0 - rho_dn) *
                                        (1.0 - rho_up)  // heuristic shared pool
                                  : 1.0;
      if (l + 1 < L) {
        // Use the tighter, symmetric estimate: free area common to l, l+1.
        const double rho_l = std::min(
            1.0, d.wire_density[k] + d.dummy_density[k]);
        d.nonoverlap_slack[k] = std::max(0.0, (1.0 - rho_l) * (1.0 - rho_up));
      }
    }
  }
  return ext;
}

std::size_t insert_dummies(Layout& layout, const WindowExtraction& ext,
                           const std::vector<GridD>& x, double min_edge_um) {
  if (x.size() != ext.num_layers())
    throw std::invalid_argument("insert_dummies: layer count mismatch");
  if (min_edge_um <= 0.0 || min_edge_um > ext.window_um / 3.0)
    throw std::invalid_argument("insert_dummies: bad minimum dummy edge");
  std::size_t inserted = 0;
  for (std::size_t l = 0; l < ext.num_layers(); ++l) {
    if (!x[l].same_shape(ext.layers[l].slack))
      throw std::invalid_argument("insert_dummies: grid shape mismatch");
    auto& dummies = layout.layers[l].dummies;
    for (std::size_t i = 0; i < ext.rows; ++i)
      for (std::size_t j = 0; j < ext.cols; ++j)
        inserted += append_window_dummies(dummies, i, j, ext.window_um,
                                          x[l](i, j), min_edge_um);
  }
  return inserted;
}

std::size_t append_window_dummies(std::vector<Rect>& out, std::size_t i,
                                  std::size_t j, double window_um,
                                  double amount_frac, double min_edge_um) {
  const double wa = window_um * window_um;
  const double pitch = window_um / 3.0;  // 3x3 tile sites per window
  // A tile must leave some spacing inside its site.
  const double max_edge = pitch * 0.94;
  const double amount = std::clamp(amount_frac, 0.0, 1.0) * wa;
  if (amount < min_edge_um * min_edge_um) return 0;
  // Use as few tiles as possible while respecting the max edge; edge
  // then realizes the exact area.
  std::size_t count = 9;
  for (std::size_t c = 1; c <= 9; ++c) {
    const double e = std::sqrt(amount / static_cast<double>(c));
    if (e <= max_edge) {
      count = c;
      break;
    }
  }
  double edge = std::sqrt(amount / static_cast<double>(count));
  edge = std::min(edge, max_edge);  // saturated windows under-realize
  for (std::size_t t = 0; t < count; ++t) {
    const std::size_t ti = t / 3, tj = t % 3;
    const double cx = static_cast<double>(j) * window_um +
                      (static_cast<double>(tj) + 0.5) * pitch;
    const double cy = static_cast<double>(i) * window_um +
                      (static_cast<double>(ti) + 0.5) * pitch;
    out.emplace_back(cx - edge / 2, cy - edge / 2, cx + edge / 2,
                     cy + edge / 2);
  }
  return count;
}

}  // namespace neurfill
