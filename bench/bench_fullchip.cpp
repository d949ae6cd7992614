// Full-chip tiled-driver bench (docs/fullchip.md): index a multi-tile
// design from disk, run the out-of-core pkb fill, and report per-tile solve
// cost plus the stitch-pass count.  Emits a one-line JSON summary; --json
// FILE writes the same object for the CI perf smoke, which gates
// `fullchip_tile_ms` and `fullchip_stitch_passes` (lower is better) against
// the committed BENCH_runtime.json.

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "fullchip/driver.hpp"
#include "geom/designs.hpp"
#include "geom/glf_io.hpp"
#include "runtime/parallel.hpp"

#include "bench_util.hpp"

using namespace neurfill;

namespace {

constexpr int kWindowsX = 18;
constexpr int kWindowsY = 12;
constexpr int kTileWindows = 6;
constexpr int kHaloWindows = 2;

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];

  std::printf("=== Full-chip tiled driver: %dx%d windows, tile %d, halo %d, "
              "%d thread(s) ===\n",
              kWindowsX, kWindowsY, kTileWindows, kHaloWindows,
              runtime::thread_count());

  const std::string work = "bench_fullchip_work";
  const std::string in_glf = work + "/chip.glf";
  const std::string out_glf = work + "/chip_filled.glf";
  if (::mkdir(work.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s\n", work.c_str());
    return 1;
  }
  // The driver only ever reads tile regions through the index, so the
  // fixture goes to disk first like a real full-chip input.
  const Layout chip =
      make_design_rect('a', kWindowsX, kWindowsY, 100.0, /*seed=*/9);
  write_glf_file(in_glf, chip);
  const GlfRegionIndex index = GlfRegionIndex::build(in_glf, 400.0);

  fullchip::FullChipOptions opt;
  opt.method = "pkb";
  opt.tile_windows = kTileWindows;
  opt.halo_windows = kHaloWindows;
  opt.store_dir = work + "/tiles";
  // The cached surrogate, or one quick-trained on the first tile's halo
  // region; every tile solve shares the instance.
  const Layout first_tile = fullchip::load_tile_layout(
      index, fullchip::tile_grid(index, opt).tile(0, 0), 100.0);
  const std::shared_ptr<const CmpSurrogate> surrogate =
      bench::acquire_surrogate(extract_windows(first_tile), CmpSimulator());
  opt.surrogate_factory = [&surrogate] { return surrogate; };

  fullchip::FullChipResult result;
  try {
    result = fullchip::fullchip_fill(index, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const std::size_t dummies =
      fullchip::write_fullchip_result(index, out_glf, result, 100.0);

  const double tile_ms =
      result.tiles_solved > 0
          ? 1000.0 * result.tile_seconds /
                static_cast<double>(result.tiles_solved)
          : 0.0;
  std::printf("tiles        : %zu (%zu solved)\n", result.tiles_total,
              result.tiles_solved);
  std::printf("tile solve   : %.1f ms mean\n", tile_ms);
  std::printf("stitch passes: %d (seam %.4f, tol %.4f)\n",
              result.stitch_passes, result.final_seam, opt.stitch_tol);
  std::printf("total        : %.2f s, %zu dummies, %ld evaluations\n",
              result.runtime_s, dummies, result.evaluations);

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"fullchip\",\"fullchip_tile_ms\":%.3f,"
                "\"fullchip_stitch_passes\":%d,\"fullchip_seam\":%.5f,"
                "\"fullchip_total_s\":%.3f}",
                tile_ms, result.stitch_passes, result.final_seam,
                result.runtime_s);
  std::printf("\nJSON: %s\n", json);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }
  return 0;
}
