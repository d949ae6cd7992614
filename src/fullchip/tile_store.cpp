#include "fullchip/tile_store.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <system_error>
#include <utility>

#include "common/checkpoint.hpp"
#include "common/fault.hpp"

namespace neurfill::fullchip {

namespace {

constexpr std::uint32_t kManifestVersion = 1;
constexpr std::uint32_t kTileVersion = 1;

Error store_error(ErrorCode code, const std::string& path,
                  const std::string& what) {
  return Error(code, "fullchip.store", "'" + path + "': " + what);
}

std::string errno_text() {
  return std::error_code(errno, std::generic_category()).message();
}

std::vector<char> encode_manifest(const StoreManifest& m) {
  ByteWriter w;
  w.u32(kManifestVersion);
  w.str(m.design_name);
  w.str(m.method);
  w.u64(m.chip_rows);
  w.u64(m.chip_cols);
  w.u64(m.num_layers);
  w.i64(m.tile_windows);
  w.i64(m.halo_windows);
  w.f64(m.window_um);
  w.f64(m.stitch_tol);
  w.i64(m.max_stitch_passes);
  return w.take();
}

bool decode_manifest(const std::vector<char>& bytes, StoreManifest* out) {
  ByteReader r(bytes);
  if (r.u32() != kManifestVersion) return false;
  out->design_name = r.str();
  out->method = r.str();
  out->chip_rows = r.u64();
  out->chip_cols = r.u64();
  out->num_layers = r.u64();
  out->tile_windows = r.i64();
  out->halo_windows = r.i64();
  out->window_um = r.f64();
  out->stitch_tol = r.f64();
  out->max_stitch_passes = r.i64();
  return r.ok() && r.at_end();
}

bool manifests_equal(const StoreManifest& a, const StoreManifest& b) {
  return a.design_name == b.design_name && a.method == b.method &&
         a.chip_rows == b.chip_rows && a.chip_cols == b.chip_cols &&
         a.num_layers == b.num_layers && a.tile_windows == b.tile_windows &&
         a.halo_windows == b.halo_windows && a.window_um == b.window_um &&
         a.stitch_tol == b.stitch_tol &&
         a.max_stitch_passes == b.max_stitch_passes;
}

/// Removes every store artifact (tile records, the manifest, stray temp
/// files) so a fresh run cannot pick up records from an earlier one.
[[nodiscard]] Expected<void> clear_store(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (!d) return store_error(ErrorCode::kIo, dir, "opendir failed: " + errno_text());
  std::vector<std::string> doomed;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    const bool ours = name == "manifest.nfcp" ||
                      name.rfind("tile_", 0) == 0 ||
                      name.rfind("manifest.nfcp.tmp", 0) == 0;
    if (ours) doomed.push_back(name);
  }
  ::closedir(d);
  for (const std::string& name : doomed) ::unlink((dir + "/" + name).c_str());
  return Expected<void>();
}

}  // namespace

TileStore::TileStore(std::string dir) : dir_(std::move(dir)) {}

[[nodiscard]] Expected<void> TileStore::open(const StoreManifest& manifest,
                                             bool resume) {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
    return store_error(ErrorCode::kIo, dir_, "mkdir failed: " + errno_text());

  const std::string manifest_path = dir_ + "/manifest.nfcp";
  if (resume) {
    Expected<CheckpointReader> reader = CheckpointReader::open(manifest_path);
    if (!reader.ok()) {
      if (reader.error().code == ErrorCode::kNotFound) {
        // Nothing to resume: fall through to the fresh-run path.
      } else {
        return reader.error();
      }
    } else {
      Expected<const std::vector<char>*> payload = reader->section("manifest");
      if (!payload.ok()) return payload.error();
      StoreManifest existing;
      if (!decode_manifest(**payload, &existing))
        return store_error(ErrorCode::kCorrupt, manifest_path,
                           "manifest payload failed validation");
      if (!manifests_equal(existing, manifest))
        return store_error(
            ErrorCode::kInvalidArgument, manifest_path,
            "tile store belongs to a different run (design '" +
                existing.design_name + "', method '" + existing.method +
                "', " + std::to_string(existing.chip_rows) + "x" +
                std::to_string(existing.chip_cols) + " windows, tile " +
                std::to_string(existing.tile_windows) + ", halo " +
                std::to_string(existing.halo_windows) + ")");
      return Expected<void>();
    }
  }
  Expected<void> cleared = clear_store(dir_);
  if (!cleared.ok()) return cleared;
  CheckpointWriter writer;
  writer.add_section("manifest", encode_manifest(manifest));
  return writer.commit(manifest_path);
}

std::string TileStore::tile_path(int pass, std::size_t ti,
                                 std::size_t tj) const {
  return dir_ + "/tile_p" + std::to_string(pass) + "_r" + std::to_string(ti) +
         "_c" + std::to_string(tj) + ".nfcp";
}

[[nodiscard]] Expected<void> TileStore::save_tile(
    int pass, std::size_t ti, std::size_t tj, const TileRecord& record) const {
  const std::string path = tile_path(pass, ti, tj);
  if (NF_FAULT("fullchip.tile_write"))
    return store_error(ErrorCode::kIo, path, "tile write failed: injected");
  ByteWriter w;
  w.u32(kTileVersion);
  w.u32(record.timed_out ? 1u : 0u);
  w.u32(record.degraded ? 1u : 0u);
  w.i64(record.evaluations);
  w.u64(record.x.size());
  for (const GridD& g : record.x) {
    w.u64(g.rows());
    w.u64(g.cols());
    w.f64_vec(std::vector<double>(g.data(), g.data() + g.size()));
  }
  CheckpointWriter writer;
  writer.add_section("tile", w.take());
  return writer.commit(path);
}

[[nodiscard]] Expected<TileRecord> TileStore::load_tile(
    int pass, std::size_t ti, std::size_t tj, std::size_t rows,
    std::size_t cols, std::size_t layers) const {
  const std::string path = tile_path(pass, ti, tj);
  Expected<CheckpointReader> reader = CheckpointReader::open(path);
  if (!reader.ok()) return reader.error();
  if (NF_FAULT("fullchip.tile_read"))
    return store_error(ErrorCode::kCorrupt, path, "tile read failed: injected");
  Expected<const std::vector<char>*> payload = reader->section("tile");
  if (!payload.ok()) return payload.error();
  ByteReader r(**payload);
  if (r.u32() != kTileVersion)
    return store_error(ErrorCode::kCorrupt, path, "unsupported tile version");
  TileRecord record;
  record.timed_out = r.u32() != 0;
  record.degraded = r.u32() != 0;
  record.evaluations = r.i64();
  const std::uint64_t nlayers = r.u64();
  if (!r.ok() || nlayers != layers)
    return store_error(ErrorCode::kCorrupt, path, "layer count mismatch");
  record.x.reserve(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    const std::uint64_t grows = r.u64();
    const std::uint64_t gcols = r.u64();
    const std::vector<double> values = r.f64_vec();
    if (!r.ok() || grows != rows || gcols != cols ||
        values.size() != rows * cols)
      return store_error(ErrorCode::kCorrupt, path,
                         "tile grid shape mismatch (layer " +
                             std::to_string(l) + ")");
    GridD g(rows, cols);
    for (std::size_t k = 0; k < values.size(); ++k) {
      const double v = values[k];
      if (!std::isfinite(v))
        return store_error(ErrorCode::kCorrupt, path,
                           "non-finite fill value in layer " +
                               std::to_string(l));
      g[k] = v;
    }
    record.x.push_back(std::move(g));
  }
  if (!r.at_end())
    return store_error(ErrorCode::kCorrupt, path,
                       "trailing bytes after tile payload");
  return record;
}

}  // namespace neurfill::fullchip
