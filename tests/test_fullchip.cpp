// Tiled out-of-core full-chip driver tests (docs/fullchip.md): tile/halo
// geometry, the streaming GLF index against brute force, stitcher
// invariants (single-tile exactness, monolithic proximity, bitwise
// determinism across thread counts), and store-based resume identity
// (including a corrupt-record re-solve through the fault site).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "fill/baselines.hpp"
#include "fullchip/driver.hpp"
#include "fullchip/tile_store.hpp"
#include "fullchip/tiling.hpp"
#include "geom/designs.hpp"
#include "geom/glf_io.hpp"
#include "runtime/parallel.hpp"

namespace neurfill::fullchip {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(TileGrid, DecomposesWithClippedEdges) {
  // 10x7 windows, tiles of 4, halo 2.
  const TileGrid grid(10, 7, 4, 2, 100.0);
  EXPECT_EQ(grid.tile_rows(), 3u);  // ceil(10/4)
  EXPECT_EQ(grid.tile_cols(), 2u);  // ceil(7/4)
  EXPECT_EQ(grid.num_tiles(), 6u);

  const TileRegion t00 = grid.tile(0, 0);
  EXPECT_EQ(t00.core_row0, 0u);
  EXPECT_EQ(t00.core_row1, 4u);
  EXPECT_EQ(t00.core_col1, 4u);
  EXPECT_EQ(t00.halo_row0, 0u);  // clipped at the chip edge
  EXPECT_EQ(t00.halo_row1, 6u);
  EXPECT_EQ(t00.halo_col1, 6u);

  const TileRegion t21 = grid.tile(2, 1);  // bottom-right, both edges short
  EXPECT_EQ(t21.core_row0, 8u);
  EXPECT_EQ(t21.core_row1, 10u);
  EXPECT_EQ(t21.core_col0, 4u);
  EXPECT_EQ(t21.core_col1, 7u);
  EXPECT_EQ(t21.halo_row0, 6u);
  EXPECT_EQ(t21.halo_row1, 10u);
  EXPECT_EQ(t21.halo_col0, 2u);
  EXPECT_EQ(t21.halo_col1, 7u);

  // Every chip window is in exactly one core.
  std::vector<int> owners(10 * 7, 0);
  for (std::size_t t = 0; t < grid.num_tiles(); ++t) {
    const TileRegion tile = grid.tile_by_index(t);
    for (std::size_t i = tile.core_row0; i < tile.core_row1; ++i)
      for (std::size_t j = tile.core_col0; j < tile.core_col1; ++j)
        owners[i * 7 + j] += 1;
  }
  for (const int n : owners) EXPECT_EQ(n, 1);
}

TEST(TileGrid, FringeIsHaloMinusCore) {
  const TileGrid grid(12, 12, 4, 1, 100.0);
  const TileRegion t = grid.tile(1, 1);
  EXPECT_FALSE(t.in_halo_fringe(t.core_row0, t.core_col0));
  EXPECT_TRUE(t.in_halo_fringe(t.core_row0 - 1, t.core_col0));
  EXPECT_TRUE(t.in_halo_fringe(t.core_row0, t.core_col0 - 1));
  EXPECT_FALSE(t.in_halo_fringe(0, 0));  // outside this tile's halo
}

TEST(TileGrid, AutoHaloFromPlanarizationLength) {
  EXPECT_EQ(auto_halo_windows(60.0, 100.0), 2);   // ceil(120/100)
  EXPECT_EQ(auto_halo_windows(100.0, 100.0), 2);
  EXPECT_EQ(auto_halo_windows(20.0, 100.0), 1);
  EXPECT_EQ(auto_halo_windows(0.0, 100.0), 1);    // never fully uncoupled
  EXPECT_EQ(auto_halo_windows(260.0, 100.0), 6);
}

class IndexedDesign : public ::testing::Test {
 protected:
  void SetUp() override {
    layout_ = make_design_rect('a', 9, 6, 100.0, 7);
    path_ = tmp_path("fullchip_design.glf");
    write_glf_file(path_, layout_);
    index_ = GlfRegionIndex::build(path_, 250.0);
  }

  Layout layout_;
  std::string path_;
  GlfRegionIndex index_;
};

TEST_F(IndexedDesign, HeaderMatchesLayout) {
  EXPECT_EQ(index_.name(), layout_.name);
  EXPECT_DOUBLE_EQ(index_.width_um(), layout_.width_um);
  EXPECT_DOUBLE_EQ(index_.height_um(), layout_.height_um);
  ASSERT_EQ(index_.num_layers(), layout_.layers.size());
  for (std::size_t l = 0; l < layout_.layers.size(); ++l) {
    EXPECT_EQ(index_.layer_name(l), layout_.layers[l].name);
    EXPECT_EQ(index_.wire_count(l), layout_.layers[l].wires.size());
    EXPECT_EQ(index_.dummy_count(l), layout_.layers[l].dummies.size());
  }
}

TEST_F(IndexedDesign, RegionLoadMatchesBruteForce) {
  const Rect regions[] = {Rect(0, 0, 300, 300), Rect(150, 250, 675, 380),
                          Rect(0, 0, 900, 600), Rect(880, 580, 900, 600)};
  for (const Rect& region : regions) {
    const Layout got = index_.load_region(region);
    ASSERT_EQ(got.layers.size(), layout_.layers.size());
    for (std::size_t l = 0; l < layout_.layers.size(); ++l) {
      std::vector<Rect> want;
      for (const Rect& r : layout_.layers[l].wires)
        if (r.intersects(region)) want.push_back(r);
      ASSERT_EQ(got.layers[l].wires.size(), want.size())
          << "layer " << l << " region " << region.x0 << "," << region.y0;
      // load_region returns rects in file order, which is layout order.
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_DOUBLE_EQ(got.layers[l].wires[k].x0, want[k].x0);
        EXPECT_DOUBLE_EQ(got.layers[l].wires[k].y1, want[k].y1);
      }
    }
  }
}

TEST_F(IndexedDesign, StreamedDummyWriteRoundTrips) {
  std::vector<std::vector<Rect>> extra(layout_.layers.size());
  extra[0].push_back(Rect(10, 10, 14, 14));
  extra[0].push_back(Rect(20, 10, 24, 14));
  extra.back().push_back(Rect(100, 100, 108, 108));

  const std::string out = tmp_path("fullchip_streamed.glf");
  write_glf_with_dummies(index_, out, extra);

  const Layout back = read_glf_file(out);
  ASSERT_EQ(back.layers.size(), layout_.layers.size());
  for (std::size_t l = 0; l < layout_.layers.size(); ++l) {
    EXPECT_EQ(back.layers[l].wires.size(), layout_.layers[l].wires.size());
    ASSERT_EQ(back.layers[l].dummies.size(),
              layout_.layers[l].dummies.size() + extra[l].size());
    // Appended dummies follow the originals, values exact.
    const std::size_t base = layout_.layers[l].dummies.size();
    for (std::size_t k = 0; k < extra[l].size(); ++k) {
      EXPECT_DOUBLE_EQ(back.layers[l].dummies[base + k].x0, extra[l][k].x0);
      EXPECT_DOUBLE_EQ(back.layers[l].dummies[base + k].y1, extra[l][k].y1);
    }
  }
}

TEST_F(IndexedDesign, TileLayoutMatchesShiftedBruteForce) {
  const TileGrid grid(6, 9, 3, 2, 100.0);
  const TileRegion tile = grid.tile(1, 2);
  const Layout local = load_tile_layout(index_, tile, 100.0);
  EXPECT_DOUBLE_EQ(local.width_um,
                   static_cast<double>(tile.halo_cols()) * 100.0);
  EXPECT_DOUBLE_EQ(local.height_um,
                   static_cast<double>(tile.halo_rows()) * 100.0);
  const Rect halo = tile.halo_rect(100.0);
  for (std::size_t l = 0; l < layout_.layers.size(); ++l) {
    std::vector<Rect> want;
    for (const Rect& r : layout_.layers[l].wires)
      if (r.intersects(halo)) want.push_back(r);
    ASSERT_EQ(local.layers[l].wires.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_DOUBLE_EQ(local.layers[l].wires[k].x0, want[k].x0 - halo.x0);
      EXPECT_DOUBLE_EQ(local.layers[l].wires[k].y0, want[k].y0 - halo.y0);
    }
  }
}

TEST(TileStoreTest, RoundTripsRecordsAndRejectsForeignManifest) {
  const std::string dir = tmp_path("fullchip_store");
  StoreManifest m;
  m.design_name = "d";
  m.method = "lin";
  m.chip_rows = 4;
  m.chip_cols = 4;
  m.num_layers = 2;
  m.tile_windows = 2;
  m.halo_windows = 1;
  m.window_um = 100.0;
  m.stitch_tol = 0.02;
  m.max_stitch_passes = 0;
  TileStore store(dir);
  ASSERT_TRUE(store.open(m, false).ok());

  TileRecord rec;
  rec.x.assign(2, GridD(3, 3, 0.0));
  rec.x[0](1, 2) = 0.25;
  rec.x[1](0, 0) = 0.5;
  rec.evaluations = 17;
  rec.degraded = true;
  ASSERT_TRUE(store.save_tile(0, 1, 1, rec).ok());

  Expected<TileRecord> back = store.load_tile(0, 1, 1, 3, 3, 2);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_DOUBLE_EQ(back->x[0](1, 2), 0.25);
  EXPECT_DOUBLE_EQ(back->x[1](0, 0), 0.5);
  EXPECT_EQ(back->evaluations, 17);
  EXPECT_TRUE(back->degraded);
  EXPECT_FALSE(back->timed_out);

  // Shape mismatch is kCorrupt (= re-solve), missing is kNotFound.
  EXPECT_EQ(store.load_tile(0, 1, 1, 4, 3, 2).error().code,
            ErrorCode::kCorrupt);
  EXPECT_EQ(store.load_tile(0, 0, 0, 3, 3, 2).error().code,
            ErrorCode::kNotFound);

  // Same-manifest resume keeps records; a foreign manifest is rejected.
  TileStore again(dir);
  ASSERT_TRUE(again.open(m, true).ok());
  EXPECT_TRUE(again.load_tile(0, 1, 1, 3, 3, 2).ok());
  StoreManifest other = m;
  other.tile_windows = 3;
  EXPECT_EQ(again.open(other, true).error().code,
            ErrorCode::kInvalidArgument);

  // A fresh open clears stale records.
  ASSERT_TRUE(again.open(other, false).ok());
  EXPECT_EQ(again.load_tile(0, 1, 1, 3, 3, 2).error().code,
            ErrorCode::kNotFound);
}

/// Fixture for driver runs: a 9x6-window design, indexed from disk.
class FullChipDriver : public ::testing::Test {
 protected:
  void SetUp() override {
    layout_ = make_design_rect('a', 9, 6, 100.0, 11);
    path_ = tmp_path("fullchip_drv.glf");
    write_glf_file(path_, layout_);
    index_ = GlfRegionIndex::build(path_, 400.0);
  }

  void TearDown() override { runtime::set_thread_count(0); }

  FullChipOptions options(const std::string& store) const {
    FullChipOptions opt;
    opt.method = "lin";
    opt.tile_windows = 3;
    opt.halo_windows = 2;
    opt.store_dir = tmp_path(store);
    return opt;
  }

  static void expect_bitwise_equal(const FullChipResult& a,
                                   const FullChipResult& b) {
    ASSERT_EQ(a.x.size(), b.x.size());
    for (std::size_t l = 0; l < a.x.size(); ++l) {
      ASSERT_EQ(a.x[l].rows(), b.x[l].rows());
      ASSERT_EQ(a.x[l].cols(), b.x[l].cols());
      for (std::size_t k = 0; k < a.x[l].size(); ++k)
        ASSERT_EQ(a.x[l][k], b.x[l][k]) << "layer " << l << " window " << k;
    }
  }

  Layout layout_;
  std::string path_;
  GlfRegionIndex index_;
};

TEST_F(FullChipDriver, SingleTileEqualsMonolithicExactly) {
  // One tile covering the whole chip is the monolithic problem verbatim.
  FullChipOptions opt = options("fc_single");
  opt.tile_windows = 64;
  const FullChipResult tiled = fullchip_fill(index_, opt);
  EXPECT_EQ(tiled.tiles_total, 1u);

  const WindowExtraction ext = extract_windows(layout_, opt.extract);
  CmpProcessParams params = opt.process;
  params.window_um = opt.extract.window_um;
  const CmpSimulator sim(params);
  const FillProblem problem(ext, sim,
                            make_coefficients(layout_, ext, sim));
  const FillRunResult mono = lin_rule_fill(problem);

  ASSERT_EQ(tiled.x.size(), mono.x.size());
  for (std::size_t l = 0; l < mono.x.size(); ++l)
    for (std::size_t k = 0; k < mono.x[l].size(); ++k)
      ASSERT_EQ(tiled.x[l][k], mono.x[l][k]);
}

TEST_F(FullChipDriver, TiledStaysNearMonolithic) {
  const FullChipResult tiled = fullchip_fill(index_, options("fc_near"));
  EXPECT_EQ(tiled.tiles_total, 6u);

  const WindowExtraction ext = extract_windows(layout_, ExtractOptions());
  CmpProcessParams params;
  const CmpSimulator sim(params);
  const FillProblem problem(ext, sim,
                            make_coefficients(layout_, ext, sim));
  const FillRunResult mono = lin_rule_fill(problem);

  // Lin picks its target densities per solve scope, so tile solves see
  // local statistics and exact equality is not expected — but with a
  // 2-window halo the committed fill must stay in the monolithic fill's
  // neighbourhood, not wander to a different regime.
  double max_diff = 0.0, sum_diff = 0.0;
  std::size_t n = 0;
  for (std::size_t l = 0; l < mono.x.size(); ++l)
    for (std::size_t k = 0; k < mono.x[l].size(); ++k) {
      const double d = std::abs(tiled.x[l][k] - mono.x[l][k]);
      max_diff = std::max(max_diff, d);
      sum_diff += d;
      ++n;
    }
  EXPECT_LT(max_diff, 0.35);
  EXPECT_LT(sum_diff / static_cast<double>(n), 0.12);
}

TEST_F(FullChipDriver, BitwiseDeterministicAcrossThreadCounts) {
  runtime::set_thread_count(1);
  const FullChipResult r1 = fullchip_fill(index_, options("fc_t1"));
  runtime::set_thread_count(2);
  const FullChipResult r2 = fullchip_fill(index_, options("fc_t2"));
  runtime::set_thread_count(8);
  const FullChipResult r8 = fullchip_fill(index_, options("fc_t8"));
  expect_bitwise_equal(r1, r2);
  expect_bitwise_equal(r1, r8);
}

TEST_F(FullChipDriver, PkbTilesShareOneSurrogateAcrossThreadCounts) {
  // pkb tile solves evaluate the surrogate tape-free, so one instance serves
  // every concurrent tile: the factory runs once per fullchip_fill, and the
  // shared instance keeps the chip bitwise identical across thread counts.
  SurrogateConfig cfg;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 1;
  const auto surrogate = std::make_shared<CmpSurrogate>(cfg, 3);
  int calls = 0;
  std::vector<FullChipResult> runs;
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    FullChipOptions opt = options("fc_pkb_t" + std::to_string(threads));
    opt.method = "pkb";
    opt.fill.sqp.max_iterations = 3;
    opt.fill.pkb_steps = 3;
    opt.surrogate_factory = [&]() -> std::shared_ptr<const CmpSurrogate> {
      ++calls;
      return surrogate;
    };
    runs.push_back(fullchip_fill(index_, opt));
    EXPECT_EQ(calls, static_cast<int>(runs.size()));
    EXPECT_GT(runs.back().tiles_solved, 1u);
  }
  expect_bitwise_equal(runs[0], runs[1]);
}

TEST_F(FullChipDriver, ResumeLoadsTilesAndReproducesBitwise) {
  const FullChipOptions opt = options("fc_resume");
  const FullChipResult fresh = fullchip_fill(index_, opt);
  EXPECT_EQ(fresh.tiles_solved, 6u);

  FullChipOptions ropt = opt;
  ropt.resume = true;
  const FullChipResult resumed = fullchip_fill(index_, ropt);
  EXPECT_EQ(resumed.tiles_solved, 0u);
  EXPECT_EQ(resumed.tiles_loaded, 6u);
  expect_bitwise_equal(fresh, resumed);

  // A lost tile record is simply re-solved, to the identical result.
  const TileStore store(opt.store_dir);
  ASSERT_EQ(::unlink(store.tile_path(0, 0, 1).c_str()), 0);
  const FullChipResult partial = fullchip_fill(index_, ropt);
  EXPECT_EQ(partial.tiles_solved, 1u);
  EXPECT_EQ(partial.tiles_loaded, 5u);
  expect_bitwise_equal(fresh, partial);
}

TEST_F(FullChipDriver, CorruptTileRecordIsResolvedDeterministically) {
#if defined(NEURFILL_DISABLE_FAULTS)
  GTEST_SKIP() << "fault injection compiled out";
#endif
  const FullChipOptions opt = options("fc_corrupt");
  const FullChipResult fresh = fullchip_fill(index_, opt);

  FullChipOptions ropt = opt;
  ropt.resume = true;
  fault::arm_hit("fullchip.tile_read", 1);
  const FullChipResult resumed = fullchip_fill(index_, ropt);
  fault::disarm_all();
  EXPECT_EQ(resumed.tiles_solved, 1u);
  EXPECT_EQ(resumed.tiles_loaded, 5u);
  expect_bitwise_equal(fresh, resumed);
}

TEST_F(FullChipDriver, FailedTileSaveOnlyCostsResumeGranularity) {
#if defined(NEURFILL_DISABLE_FAULTS)
  GTEST_SKIP() << "fault injection compiled out";
#endif
  const FullChipOptions opt = options("fc_wfail");
  fault::arm_hit("fullchip.tile_write", 1);
  const FullChipResult fresh = fullchip_fill(index_, opt);
  fault::disarm_all();
  EXPECT_EQ(fresh.tiles_solved, 6u);
  EXPECT_FALSE(fresh.degraded);  // the fill itself is unaffected

  // One record is missing, so resume re-solves exactly that tile.
  FullChipOptions ropt = opt;
  ropt.resume = true;
  const FullChipResult resumed = fullchip_fill(index_, ropt);
  EXPECT_EQ(resumed.tiles_solved, 1u);
  EXPECT_EQ(resumed.tiles_loaded, 5u);
  expect_bitwise_equal(fresh, resumed);
}

TEST_F(FullChipDriver, WritesStreamedResultWithBoundedDummies) {
  const FullChipOptions opt = options("fc_out");
  const FullChipResult result = fullchip_fill(index_, opt);
  const std::string out = tmp_path("fullchip_out.glf");
  const std::size_t dummies =
      write_fullchip_result(index_, out, result, 100.0);
  EXPECT_GT(dummies, 0u);
  const Layout back = read_glf_file(out);
  std::size_t found = 0;
  for (std::size_t l = 0; l < back.layers.size(); ++l) {
    EXPECT_EQ(back.layers[l].wires.size(), layout_.layers[l].wires.size());
    found += back.layers[l].dummies.size() - layout_.layers[l].dummies.size();
  }
  EXPECT_EQ(found, dummies);
}

TEST_F(FullChipDriver, RejectsUnknownMethodAndMissingStore) {
  FullChipOptions opt = options("fc_bad");
  opt.method = "cai";
  EXPECT_THROW(fullchip_fill(index_, opt), ErrorException);
  opt = options("fc_bad2");
  opt.store_dir.clear();
  EXPECT_THROW(fullchip_fill(index_, opt), ErrorException);
}

}  // namespace
}  // namespace neurfill::fullchip
