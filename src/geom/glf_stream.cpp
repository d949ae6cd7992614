#include "geom/glf_stream.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/atomic_file.hpp"
#include "common/check.hpp"

namespace neurfill {

namespace {

/// Parses "w x0 y0 x1 y1" / "d x0 y0 x1 y1" without stream overhead; record
/// lines dominate a full-chip file so this is the hot path of both the index
/// build and every region load.
bool parse_rect_line(const std::string& line, char* tag, Rect* out) {
  const char* p = line.c_str();
  if ((p[0] != 'w' && p[0] != 'd') || p[1] != ' ') return false;
  *tag = p[0];
  char* end = nullptr;
  const char* cur = p + 1;
  double v[4];
  for (double& x : v) {
    x = std::strtod(cur, &end);
    // strtod reads "nan" and "inf" too; read_glf refuses them.
    if (end == cur || !std::isfinite(x)) return false;
    cur = end;
  }
  if (v[2] < v[0] || v[3] < v[1]) return false;
  out->x0 = v[0];
  out->y0 = v[1];
  out->x1 = v[2];
  out->y1 = v[3];
  return true;
}

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error("GLF: " + what);
}

}  // namespace

std::size_t GlfRegionIndex::bucket_of(double v, double extent) const {
  const double clamped = std::min(std::max(v, 0.0), extent);
  std::size_t b = static_cast<std::size_t>(clamped / bucket_um_);
  const std::size_t nb = static_cast<std::size_t>(
      std::ceil(extent / bucket_um_));
  if (b >= nb && nb > 0) b = nb - 1;
  return b;
}

GlfRegionIndex GlfRegionIndex::build(const std::string& path,
                                     double bucket_um) {
  std::ifstream is(path, std::ios::binary);
  if (!is) bad("cannot open for read: " + path);

  GlfRegionIndex index;
  index.path_ = path;
  index.bucket_um_ = bucket_um;

  std::uint64_t offset = 0;
  std::string line;
  // Each getline consumes the line plus its '\n'; write_glf always
  // terminates every line, so the running offset stays exact.
  auto next_line = [&](const char* what) {
    if (!std::getline(is, line)) bad(std::string("truncated before ") + what);
    const std::uint64_t at = offset;
    offset += line.size() + 1;
    return at;
  };

  next_line("magic");
  {
    std::istringstream hs(line);
    std::string kw;
    int version = 0;
    if (!(hs >> kw >> version) || kw != "GLF" || version != 1)
      bad("bad magic/version");
  }
  next_line("name");
  {
    std::istringstream hs(line);
    std::string kw;
    if (!(hs >> kw >> index.name_) || kw != "name") bad("missing name");
  }
  next_line("size");
  {
    std::istringstream hs(line);
    std::string kw;
    if (!(hs >> kw >> index.width_um_ >> index.height_um_) || kw != "size")
      bad("missing size");
    if (index.width_um_ <= 0.0 || index.height_um_ <= 0.0)
      bad("non-positive extents");
  }
  std::size_t nlayers = 0;
  next_line("layer count");
  {
    std::istringstream hs(line);
    std::string kw;
    if (!(hs >> kw >> nlayers) || kw != "layers") bad("missing layer count");
    if (nlayers > 1024) bad("implausible layer count");
  }

  // The pitch derives from a user's window: window_count refuses one that
  // is not positive or too fine for the extents.
  index.nbx_ = window_count(index.width_um_, bucket_um);
  index.nby_ = window_count(index.height_um_, bucket_um);
  if (index.nbx_ == 0) index.nbx_ = 1;
  if (index.nby_ == 0) index.nby_ = 1;

  index.layers_.resize(nlayers);
  for (LayerIndex& layer : index.layers_) {
    next_line("layer header");
    {
      std::istringstream hs(line);
      std::string kw, kw2;
      if (!(hs >> kw >> layer.name >> kw2 >> layer.wires) || kw != "layer" ||
          kw2 != "wires")
        bad("malformed layer header");
      if (!(hs >> kw2 >> layer.dummies) || kw2 != "dummies")
        bad("malformed layer header (dummies)");
    }
    layer.buckets.assign(index.nbx_ * index.nby_, {});
    layer.records_begin = offset;
    const std::size_t nrecords = layer.wires + layer.dummies;
    for (std::size_t i = 0; i < nrecords; ++i) {
      const std::uint64_t at = next_line("rectangle record");
      char tag = 0;
      Rect r;
      if (!parse_rect_line(line, &tag, &r)) bad("malformed rectangle record");
      const char expect = i < layer.wires ? 'w' : 'd';
      if (tag != expect)
        bad(std::string("expected '") + expect + "' record, got '" + tag +
            "'");
      const std::size_t bx0 = index.bucket_of(r.x0, index.width_um_);
      const std::size_t bx1 = index.bucket_of(r.x1, index.width_um_);
      const std::size_t by0 = index.bucket_of(r.y0, index.height_um_);
      const std::size_t by1 = index.bucket_of(r.y1, index.height_um_);
      for (std::size_t by = by0; by <= by1; ++by)
        for (std::size_t bx = bx0; bx <= bx1; ++bx)
          layer.buckets[by * index.nbx_ + bx].push_back(at);
    }
    layer.records_end = offset;
  }
  return index;
}

Layout GlfRegionIndex::load_region(const Rect& region) const {
  std::ifstream is(path_, std::ios::binary);
  if (!is) bad("cannot open for read: " + path_);

  Layout layout;
  layout.name = name_;
  layout.width_um = width_um_;
  layout.height_um = height_um_;
  layout.layers.resize(layers_.size());

  const std::size_t bx0 = bucket_of(region.x0, width_um_);
  const std::size_t bx1 = bucket_of(region.x1, width_um_);
  const std::size_t by0 = bucket_of(region.y0, height_um_);
  const std::size_t by1 = bucket_of(region.y1, height_um_);

  std::vector<std::uint64_t> offsets;
  std::string line;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const LayerIndex& src = layers_[l];
    Layer& dst = layout.layers[l];
    dst.name = src.name;

    offsets.clear();
    for (std::size_t by = by0; by <= by1; ++by)
      for (std::size_t bx = bx0; bx <= bx1; ++bx) {
        const auto& bucket = src.buckets[by * nbx_ + bx];
        offsets.insert(offsets.end(), bucket.begin(), bucket.end());
      }
    // Sorted ascending = file order, so identical queries yield identical
    // rect sequences no matter how the buckets were walked.
    std::sort(offsets.begin(), offsets.end());
    offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());

    for (const std::uint64_t at : offsets) {
      is.clear();
      is.seekg(static_cast<std::streamoff>(at));
      if (!std::getline(is, line)) bad("truncated rectangle record");
      char tag = 0;
      Rect r;
      if (!parse_rect_line(line, &tag, &r)) bad("malformed rectangle record");
      if (!r.intersects(region)) continue;  // bucket pitch is coarse
      if (tag == 'w')
        dst.wires.push_back(r);
      else
        dst.dummies.push_back(r);
    }
  }
  return layout;
}

void GlfRegionIndex::copy_layer_records(std::istream& src, std::ostream& os,
                                        std::size_t l,
                                        std::vector<char>& buf) const {
  NF_CHECK_BOUNDS(l, layers_.size());
  const LayerIndex& layer = layers_[l];
  src.clear();
  src.seekg(static_cast<std::streamoff>(layer.records_begin));
  std::uint64_t left = layer.records_end - layer.records_begin;
  while (left > 0) {
    const std::streamsize chunk = static_cast<std::streamsize>(
        std::min<std::uint64_t>(left, buf.size()));
    src.read(buf.data(), chunk);
    if (src.gcount() != chunk) bad("truncated while copying records");
    os.write(buf.data(), chunk);
    left -= static_cast<std::uint64_t>(chunk);
  }
}

void write_glf_with_dummies(const GlfRegionIndex& index,
                            const std::string& out_path,
                            DummySource& source) {
  std::ifstream src(index.path(), std::ios::binary);
  if (!src) bad("cannot open for read: " + index.path());

  AtomicFileWriter writer(out_path, "geom.glf");
  if (!writer.ok()) bad("cannot open for write: " + out_path);
  std::ostream& os = writer.stream();
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "GLF 1\n";
  os << "name " << (index.name().empty() ? "unnamed" : index.name()) << '\n';
  os << "size " << index.width_um() << ' ' << index.height_um() << '\n';
  os << "layers " << index.num_layers() << '\n';

  std::vector<char> buf(std::size_t{1} << 16);
  for (std::size_t l = 0; l < index.num_layers(); ++l) {
    os << "layer "
       << (index.layer_name(l).empty() ? "m" : index.layer_name(l))
       << " wires " << index.wire_count(l) << " dummies "
       << index.dummy_count(l) + source.count(l) << '\n';
    // Copy the original record bytes verbatim: untouched geometry stays
    // byte-identical across a read -> fill -> write cycle.
    index.copy_layer_records(src, os, l, buf);
    source.emit(l, [&os](const Rect& r) {
      os << 'd' << ' ' << r.x0 << ' ' << r.y0 << ' ' << r.x1 << ' ' << r.y1
         << '\n';
    });
  }
  Expected<void> committed = writer.commit();
  if (!committed) bad(committed.error().to_string());
}

namespace {

/// Adapter for the pre-materialized form.
class VectorDummySource final : public DummySource {
 public:
  explicit VectorDummySource(const std::vector<std::vector<Rect>>& d)
      : dummies_(d) {}
  std::size_t count(std::size_t layer) override {
    return dummies_[layer].size();
  }
  void emit(std::size_t layer,
            const std::function<void(const Rect&)>& sink) override {
    for (const Rect& r : dummies_[layer]) sink(r);
  }

 private:
  const std::vector<std::vector<Rect>>& dummies_;
};

}  // namespace

void write_glf_with_dummies(
    const GlfRegionIndex& index, const std::string& out_path,
    const std::vector<std::vector<Rect>>& extra_dummies) {
  NF_CHECK(extra_dummies.size() == index.num_layers(),
           "write_glf_with_dummies: %zu dummy sets for %zu layers",
           extra_dummies.size(), index.num_layers());
  VectorDummySource source(extra_dummies);
  write_glf_with_dummies(index, out_path, source);
}

}  // namespace neurfill
