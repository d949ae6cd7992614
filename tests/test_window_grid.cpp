// Unit tests for window extraction and fill insertion.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "geom/designs.hpp"
#include "layout/window_grid.hpp"

namespace neurfill {
namespace {

Layout single_rect_layout(const Rect& r, int layers = 1, double chip = 200.0) {
  Layout l;
  l.name = "t";
  l.width_um = chip;
  l.height_um = chip;
  l.layers.resize(static_cast<std::size_t>(layers));
  l.layers[0].wires.push_back(r);
  return l;
}

TEST(WindowExtraction, GridDimensions) {
  const Layout l = single_rect_layout(Rect(0, 0, 10, 10), 2, 250.0);
  ExtractOptions opt;
  opt.window_um = 100.0;
  const WindowExtraction ext = extract_windows(l, opt);
  EXPECT_EQ(ext.rows, 3u);  // ceil(250/100)
  EXPECT_EQ(ext.cols, 3u);
  EXPECT_EQ(ext.num_layers(), 2u);
  EXPECT_EQ(ext.num_windows(), 18u);
}

TEST(WindowExtraction, DensityExactForAlignedRect) {
  // 50x100 rect inside one 100x100 window -> density 0.5 there.
  const Layout l = single_rect_layout(Rect(0, 0, 50, 100));
  const WindowExtraction ext = extract_windows(l);
  EXPECT_NEAR(ext.layers[0].wire_density(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(ext.layers[0].wire_density(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(ext.layers[0].wire_density(1, 0), 0.0, 1e-12);
}

TEST(WindowExtraction, DensitySplitsAcrossWindows) {
  // Rect straddling the x=100 boundary.
  const Layout l = single_rect_layout(Rect(50, 0, 150, 50));
  const WindowExtraction ext = extract_windows(l);
  EXPECT_NEAR(ext.layers[0].wire_density(0, 0), 0.25, 1e-12);
  EXPECT_NEAR(ext.layers[0].wire_density(0, 1), 0.25, 1e-12);
  // Total area is conserved.
  double total = 0.0;
  for (const double d : ext.layers[0].wire_density) total += d * 100.0 * 100.0;
  EXPECT_NEAR(total, 100.0 * 50.0, 1e-9);
}

TEST(WindowExtraction, PerimeterConservedAcrossWindows) {
  const Layout l = single_rect_layout(Rect(50, 30, 150, 70));
  const WindowExtraction ext = extract_windows(l);
  double total = 0.0;
  for (const double p : ext.layers[0].perimeter_um) total += p;
  EXPECT_NEAR(total, Rect(50, 30, 150, 70).perimeter(), 1e-9);
}

TEST(WindowExtraction, AvgWidthRecoversLineWidth) {
  // A long 10um-wide line: avg width ~ 2*A/P -> ~9.5um for 10x190.
  const Layout l = single_rect_layout(Rect(0, 0, 190, 10));
  const WindowExtraction ext = extract_windows(l);
  const double w = ext.layers[0].avg_width_um(0, 0);
  EXPECT_GT(w, 8.0);
  EXPECT_LT(w, 11.0);
}

TEST(WindowExtraction, SlackRespectsMaxDensity) {
  // Window already at 0.8 density with max 0.85 -> slack <= 0.05.
  const Layout l = single_rect_layout(Rect(0, 0, 80, 100));
  ExtractOptions opt;
  opt.max_density = 0.85;
  const WindowExtraction ext = extract_windows(l, opt);
  EXPECT_LE(ext.layers[0].slack(0, 0), 0.05 + 1e-12);
  EXPECT_GE(ext.layers[0].slack(0, 0), 0.0);
}

TEST(WindowExtraction, EmptyWindowHasLargeSlack) {
  const Layout l = single_rect_layout(Rect(0, 0, 10, 10));
  const WindowExtraction ext = extract_windows(l);
  EXPECT_GT(ext.layers[0].slack(1, 1), 0.8);
}

TEST(WindowExtraction, FourTypeSplitSumsToSlack) {
  const Layout l = make_design('a', 8, 100.0, 3);
  const WindowExtraction ext = extract_windows(l);
  for (std::size_t li = 0; li < ext.num_layers(); ++li) {
    const auto& d = ext.layers[li];
    for (std::size_t k = 0; k < d.slack.size(); ++k) {
      const double sum = d.slack_type[0][k] + d.slack_type[1][k] +
                         d.slack_type[2][k] + d.slack_type[3][k];
      EXPECT_NEAR(sum, d.slack[k], 1e-9);
      for (const auto& st : d.slack_type) EXPECT_GE(st[k], -1e-12);
    }
  }
}

TEST(WindowExtraction, BottomLayerHasNoLowerWireTypes) {
  // Layer 0 has no layer below, so type 3 and 4 (over lower wire) are zero.
  const Layout l = make_design('b', 8, 100.0, 3);
  const WindowExtraction ext = extract_windows(l);
  for (std::size_t k = 0; k < ext.layers[0].slack.size(); ++k) {
    EXPECT_NEAR(ext.layers[0].slack_type[2][k], 0.0, 1e-12);
    EXPECT_NEAR(ext.layers[0].slack_type[3][k], 0.0, 1e-12);
  }
}

TEST(WindowExtraction, TopLayerNonOverlapSlackIsOne) {
  const Layout l = make_design('c', 8, 100.0, 3);
  const WindowExtraction ext = extract_windows(l);
  const auto& top = ext.layers.back();
  for (std::size_t k = 0; k < top.nonoverlap_slack.size(); ++k)
    EXPECT_NEAR(top.nonoverlap_slack[k], 1.0, 1e-12);
}

TEST(WindowExtraction, DensityMethodAddsDummies) {
  Layout l = single_rect_layout(Rect(0, 0, 50, 100));
  l.layers[0].dummies.emplace_back(50, 0, 75, 100);
  const WindowExtraction ext = extract_windows(l);
  EXPECT_NEAR(ext.layers[0].dummy_density(0, 0), 0.25, 1e-12);
  EXPECT_NEAR(ext.layers[0].density()(0, 0), 0.75, 1e-12);
}

TEST(InsertDummies, RealizesRequestedArea) {
  Layout l = single_rect_layout(Rect(0, 0, 10, 10), 1, 300.0);
  const WindowExtraction ext = extract_windows(l);
  std::vector<GridD> x{GridD(ext.rows, ext.cols, 0.0)};
  x[0](1, 1) = 0.2;
  const std::size_t n = insert_dummies(l, ext, x);
  EXPECT_GT(n, 0u);
  // Re-extract: the dummy density in window (1,1) should be ~0.2.
  const WindowExtraction ext2 = extract_windows(l);
  EXPECT_NEAR(ext2.layers[0].dummy_density(1, 1), 0.2, 0.03);
  // No dummies elsewhere.
  EXPECT_NEAR(ext2.layers[0].dummy_density(0, 0), 0.0, 1e-12);
}

TEST(InsertDummies, ValidatesArguments) {
  Layout l = single_rect_layout(Rect(0, 0, 10, 10));
  const WindowExtraction ext = extract_windows(l);
  std::vector<GridD> wrong_layers;
  EXPECT_THROW(insert_dummies(l, ext, wrong_layers), std::invalid_argument);
  std::vector<GridD> wrong_shape{GridD(1, 1, 0.0)};
  EXPECT_THROW(insert_dummies(l, ext, wrong_shape), std::invalid_argument);
}

TEST(Grid2DRegion, CopyExtractsExactValues) {
  GridD g(4, 5, 0.0);
  for (std::size_t i = 0; i < g.rows(); ++i)
    for (std::size_t j = 0; j < g.cols(); ++j)
      g(i, j) = static_cast<double>(10 * i + j);
  const GridD sub = g.copy_region(1, 2, 2, 3);
  ASSERT_EQ(sub.rows(), 2u);
  ASSERT_EQ(sub.cols(), 3u);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(sub(i, j), g(1 + i, 2 + j));
}

TEST(Grid2DRegion, PasteRoundTripsAndLeavesRestUntouched) {
  GridD g(4, 5, -1.0);
  GridD patch(2, 2, 0.0);
  patch(0, 0) = 1.0;
  patch(0, 1) = 2.0;
  patch(1, 0) = 3.0;
  patch(1, 1) = 4.0;
  g.paste_region(2, 3, patch);
  EXPECT_DOUBLE_EQ(g(2, 3), 1.0);
  EXPECT_DOUBLE_EQ(g(3, 4), 4.0);
  EXPECT_DOUBLE_EQ(g(1, 3), -1.0);
  EXPECT_DOUBLE_EQ(g(2, 2), -1.0);
  const GridD back = g.copy_region(2, 3, 2, 2);
  for (std::size_t k = 0; k < patch.size(); ++k)
    EXPECT_DOUBLE_EQ(back[k], patch[k]);
}

TEST(Grid2DRegion, ClippedEdgeTileShapesWork) {
  // The fullchip tiler produces short edge tiles: a region flush against
  // the last row/column must copy and paste cleanly.
  GridD g(7, 9, 0.5);
  const GridD edge = g.copy_region(5, 7, 2, 2);  // touches both far edges
  EXPECT_EQ(edge.rows(), 2u);
  g.paste_region(5, 7, edge);
  const GridD row = g.copy_region(6, 0, 1, 9);  // full last row
  EXPECT_EQ(row.cols(), 9u);
}

TEST(Grid2DRegionDeathTest, BoundsViolationsAbort) {
  GridD g(3, 3, 0.0);
  EXPECT_DEATH(g.copy_region(2, 0, 2, 1), "copy_region");
  EXPECT_DEATH(g.copy_region(0, 3, 1, 1), "copy_region");
  const GridD patch(2, 2, 0.0);
  EXPECT_DEATH(g.paste_region(2, 0, patch), "paste_region");
  EXPECT_DEATH(g.paste_region(0, 2, patch), "paste_region");
}

TEST(WindowExtraction, RejectsBadOptions) {
  const Layout l = single_rect_layout(Rect(0, 0, 10, 10));
  ExtractOptions opt;
  opt.window_um = 0.0;
  EXPECT_THROW(extract_windows(l, opt), std::invalid_argument);
  Layout empty;
  EXPECT_THROW(extract_windows(empty), std::invalid_argument);
  // 200 um over 1e-300 um windows is 2e302 per axis: out of size_t's range.
  opt.window_um = 1e-300;
  EXPECT_THROW(extract_windows(l, opt), std::invalid_argument);
}

TEST(WindowExtraction, WindowCountBounds) {
  EXPECT_EQ(window_count(1000.0, 100.0), 10u);
  EXPECT_EQ(window_count(1001.0, 100.0), 11u);
  EXPECT_EQ(window_count(2147483647.0, 1.0), 2147483647u);
  EXPECT_THROW(window_count(2147483648.0, 1.0), std::invalid_argument);
  EXPECT_THROW(window_count(10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(window_count(10.0, -1.0), std::invalid_argument);
}

TEST(WindowExtraction, GridBytesCountEveryLayerGrid) {
  // Ten double grids per layer and window: LayerWindowData's five grids,
  // its four slack types and the non-overlap slack.  A grid added there
  // moves the estimate, and this count with it.
  EXPECT_EQ(window_grid_bytes(256, 256, 3), 256u * 256 * 3 * 80);
  EXPECT_LT(window_grid_bytes(1000, 1000, 3), kMaxWindowGridBytes);
  EXPECT_GT(window_grid_bytes(16000, 16000, 3), kMaxWindowGridBytes);
  EXPECT_EQ(window_grid_bytes(std::size_t{1} << 31, std::size_t{1} << 31, 64),
            SIZE_MAX);
}

TEST(WindowExtraction, RefusesAGridPastTheCapBeforeAllocating) {
  // 0.05 um windows on an 800 um die: 16000 x 16000 windows per layer,
  // 61 GiB of grids on 3 layers.  The refusal comes before any grid is
  // allocated, names the tiled driver, and is bad input, not an I/O fault.
  const Layout die = make_design('a', 8, 100.0, 3);
  ExtractOptions opt;
  opt.window_um = 0.05;
  try {
    (void)extract_windows(die, opt);
    FAIL() << "a 16000 x 16000 grid was built";
  } catch (const ErrorException& e) {
    EXPECT_EQ(e.err.code, ErrorCode::kInvalidArgument);
    EXPECT_NE(e.err.message.find("--tiled"), std::string::npos)
        << e.err.message;
  }
  // The same die at the default window builds as before.
  EXPECT_EQ(extract_windows(die).rows, 8u);
}

TEST(WindowExtraction, RectsReachingFarPastTheExtentStayOnTheGrid) {
  // read_glf accepts any finite coordinates; the window indices of these
  // rects are far out of size_t's range before clamping.
  Layout l = single_rect_layout(Rect(1e300, 1e300, 2e300, 2e300));
  const WindowExtraction none = extract_windows(l);
  ASSERT_EQ(none.layers[0].wire_density.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_EQ(none.layers[0].wire_density[k], 0.0) << k;
  l.layers[0].wires.emplace_back(-1e300, -1e300, 1e300, 1e300);
  const WindowExtraction all = extract_windows(l);
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_DOUBLE_EQ(all.layers[0].wire_density[k], 1.0) << k;
}

}  // namespace
}  // namespace neurfill
