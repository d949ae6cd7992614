#pragma once

// Out-of-core GLF access (docs/fullchip.md).
//
// A full-chip GLF at paper scale (256x256 .. 1000x1000 windows) is too large
// to hold as a parsed Layout while dozens of tiles are in flight.  This
// module provides the two streaming primitives the fullchip driver needs:
//
//  * GlfRegionIndex — one sequential pass over the file records the byte
//    offset of every rectangle line, bucketed on a coarse spatial grid.
//    load_region() then reads back only the records whose rectangle
//    intersects a query region.  Returned rects are UNCLIPPED: a wire that
//    straddles a tile edge is returned whole, which is what keeps tiled
//    window extraction bitwise-equal to monolithic extraction (density
//    clipping and perimeter attribution both use original rect coords).
//  * write_glf_with_dummies() — streams a fill result to disk by copying
//    the original file's record bytes verbatim (so untouched geometry stays
//    byte-identical) and appending the newly synthesized dummies per layer,
//    all through the crash-safe AtomicFileWriter.
//
// Memory: the index holds ~8 bytes per record per bucket touched, never the
// parsed rectangles, so resident size is bounded by record *count*, not by
// the O(rects) Layout representation plus per-tile duplication.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "geom/layout.hpp"

namespace neurfill {

/// Spatial index over one GLF file.  Build once (single sequential pass),
/// then issue any number of region loads.  All methods throw
/// std::runtime_error on malformed input, matching read_glf; build throws
/// std::invalid_argument for a bucket pitch window_count refuses.
class GlfRegionIndex {
 public:
  /// Indexes `path`, bucketing record offsets on a `bucket_um`-pitch grid.
  /// Pick the tile core size (or the window size) as the bucket pitch; the
  /// exact value only affects load_region scan cost, never its result.
  static GlfRegionIndex build(const std::string& path, double bucket_um);

  const std::string& path() const { return path_; }
  const std::string& name() const { return name_; }
  double width_um() const { return width_um_; }
  double height_um() const { return height_um_; }
  std::size_t num_layers() const { return layers_.size(); }
  const std::string& layer_name(std::size_t l) const {
    return layers_[l].name;
  }
  std::size_t wire_count(std::size_t l) const { return layers_[l].wires; }
  std::size_t dummy_count(std::size_t l) const { return layers_[l].dummies; }

  /// Loads every wire/dummy whose rectangle intersects `region` (unclipped,
  /// chip coordinates).  The returned Layout keeps the full-chip name and
  /// extents; only its rect population is regional.  Within each layer,
  /// rects appear in file order, so identical queries produce identical
  /// Layouts regardless of thread count or load order.
  Layout load_region(const Rect& region) const;

  /// Copies layer l's record lines byte-for-byte from `src` (an open stream
  /// over path()) to `os`, using `buf` as the chunk buffer.  Used by
  /// write_glf_with_dummies to keep untouched geometry byte-identical.
  void copy_layer_records(std::istream& src, std::ostream& os, std::size_t l,
                          std::vector<char>& buf) const;

 private:
  struct LayerIndex {
    std::string name;
    std::size_t wires = 0;
    std::size_t dummies = 0;
    // Byte range of this layer's record lines in the source file
    // (first wire line .. one past the last dummy line).
    std::uint64_t records_begin = 0;
    std::uint64_t records_end = 0;
    // buckets[by * nbx + bx] -> offsets of record lines whose rect
    // intersects that bucket.  A rect spanning buckets appears in each;
    // load_region dedupes by sorting.
    std::vector<std::vector<std::uint64_t>> buckets;
  };

  std::size_t bucket_of(double v, double extent) const;

  std::string path_;
  std::string name_;
  double width_um_ = 0.0;
  double height_um_ = 0.0;
  double bucket_um_ = 0.0;
  std::size_t nbx_ = 0;
  std::size_t nby_ = 0;
  std::vector<LayerIndex> layers_;
};

/// Streams `index`'s source file to `out_path`, appending `extra_dummies[l]`
/// to layer l.  Original record lines are copied byte-for-byte; appended
/// dummies are formatted at full round-trip precision.  The write is atomic
/// and crash-safe (temp + fsync + rename).  Throws std::runtime_error on IO
/// failure; `extra_dummies` must have one entry per layer.
void write_glf_with_dummies(const GlfRegionIndex& index,
                            const std::string& out_path,
                            const std::vector<std::vector<Rect>>& extra_dummies);

/// Generator interface for the streaming form below: the writer asks for
/// the per-layer dummy count up front (the GLF layer header carries counts
/// before records), then has the source push each dummy through `sink`.
/// emit(l) must produce exactly count(l) rects, deterministically.
class DummySource {
 public:
  virtual ~DummySource() = default;
  virtual std::size_t count(std::size_t layer) = 0;
  virtual void emit(std::size_t layer,
                    const std::function<void(const Rect&)>& sink) = 0;
};

/// Streaming form of write_glf_with_dummies: dummies are produced window by
/// window instead of being accumulated, so writing a full-chip fill result
/// needs O(1) memory beyond the index.  Same atomicity and byte-identity
/// guarantees.
void write_glf_with_dummies(const GlfRegionIndex& index,
                            const std::string& out_path, DummySource& source);

}  // namespace neurfill
