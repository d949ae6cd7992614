// Error-path coverage for the GLF readers: every malformed-input branch of
// read_glf (src/geom/glf_io.cpp) must throw std::runtime_error with a
// diagnosable message rather than crash, loop, or return a half-parsed
// layout, and the full-chip region index (src/geom/glf_stream.cpp), which
// parses the same grammar on its own, must refuse the same inputs.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "geom/glf_io.hpp"
#include "geom/glf_stream.hpp"
#include "geom/layout.hpp"

namespace {

using neurfill::GlfRegionIndex;
using neurfill::Layout;
using neurfill::read_glf;
using neurfill::read_glf_file;
using neurfill::write_glf;
using neurfill::write_glf_file;

Layout parse(const std::string& text) {
  std::istringstream is(text);
  return read_glf(is);
}

void expect_parse_error(const std::string& text, const std::string& what) {
  try {
    parse(text);
    ADD_FAILURE() << "expected std::runtime_error mentioning '" << what << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "actual message: " << e.what();
  }
  // The index words its errors differently; it only has to refuse.
  const std::string path = testing::TempDir() + "glf_malformed.glf";
  {
    std::ofstream os(path, std::ios::binary);
    os << text;
  }
  try {
    GlfRegionIndex::build(path, 100.0);
    ADD_FAILURE() << "GlfRegionIndex accepted input read_glf refuses ('"
                  << what << "')";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("GLF: ", 0), 0u)
        << "actual message: " << e.what();
  }
}

constexpr const char* kValid =
    "GLF 1\n"
    "name chip\n"
    "size 10 10\n"
    "layers 1\n"
    "layer m1 wires 1 dummies 1\n"
    "w 0 0 1 1\n"
    "d 2 2 3 3\n";

TEST(GlfErrors, ValidInputParses) {
  const Layout layout = parse(kValid);
  ASSERT_EQ(layout.layers.size(), 1u);
  EXPECT_EQ(layout.layers[0].wires.size(), 1u);
  EXPECT_EQ(layout.layers[0].dummies.size(), 1u);

  const std::string path = testing::TempDir() + "glf_valid.glf";
  {
    std::ofstream os(path, std::ios::binary);
    os << kValid;
  }
  const GlfRegionIndex index = GlfRegionIndex::build(path, 100.0);
  ASSERT_EQ(index.num_layers(), 1u);
  EXPECT_EQ(index.wire_count(0), 1u);
  EXPECT_EQ(index.dummy_count(0), 1u);
}

TEST(GlfErrors, BadMagic) { expect_parse_error("GLX 1\n", "bad magic"); }

TEST(GlfErrors, UnsupportedVersion) {
  expect_parse_error("GLF 2\n", "bad magic/version");
}

TEST(GlfErrors, MissingName) { expect_parse_error("GLF 1\n", "missing name"); }

TEST(GlfErrors, NonPositiveExtent) {
  expect_parse_error("GLF 1\nname c\nsize -5 10\n", "non-positive extents");
}

TEST(GlfErrors, NonNumericExtent) {
  expect_parse_error("GLF 1\nname c\nsize wide tall\n", "missing size");
}

TEST(GlfErrors, MissingLayerCount) {
  expect_parse_error("GLF 1\nname c\nsize 10 10\n", "missing layer count");
}

TEST(GlfErrors, ImplausibleLayerCount) {
  expect_parse_error("GLF 1\nname c\nsize 10 10\nlayers 99999999\n",
                     "implausible layer count");
}

TEST(GlfErrors, MalformedLayerHeader) {
  expect_parse_error(
      "GLF 1\nname c\nsize 10 10\nlayers 1\nlayer m1 rects 1 dummies 0\n",
      "malformed layer header");
}

TEST(GlfErrors, TruncatedRectRecord) {
  // Header promises two wires; the stream ends after one.
  expect_parse_error(
      "GLF 1\nname c\nsize 10 10\nlayers 1\nlayer m1 wires 2 dummies 0\n"
      "w 0 0 1 1\n",
      "truncated rectangle");
}

TEST(GlfErrors, BadRectCoords) {
  // x1 < x0: geometrically inverted rectangle.
  expect_parse_error(
      "GLF 1\nname c\nsize 10 10\nlayers 1\nlayer m1 wires 1 dummies 0\n"
      "w 5 0 1 1\n",
      "degenerate rectangle");
}

TEST(GlfErrors, NonNumericRectCoords) {
  expect_parse_error(
      "GLF 1\nname c\nsize 10 10\nlayers 1\nlayer m1 wires 1 dummies 0\n"
      "w a b c d\n",
      "truncated rectangle");
}

TEST(GlfErrors, NonFiniteRectCoords) {
  // strtod reads these literals; the stream extractor in read_glf does not.
  for (const char* rect : {"w nan 0 1 1", "w 0 nan 1 1", "w 0 0 1 nan",
                           "w 0 0 inf 1", "w -inf 0 1 1", "w 0 0 1 1e999"}) {
    SCOPED_TRACE(rect);
    expect_parse_error(
        std::string("GLF 1\nname c\nsize 10 10\nlayers 1\n"
                    "layer m1 wires 1 dummies 0\n") +
            rect + "\n",
        "truncated rectangle");
  }
}

TEST(GlfErrors, WrongRecordTag) {
  // A dummy record where a wire record was promised.
  expect_parse_error(
      "GLF 1\nname c\nsize 10 10\nlayers 1\nlayer m1 wires 1 dummies 0\n"
      "d 0 0 1 1\n",
      "expected 'w'");
}

TEST(GlfErrors, HugeRectCountFailsWithoutPreallocating) {
  // A corrupt 4-billion-wire count must fail on the missing records, not by
  // attempting a multi-gigabyte reserve first.
  expect_parse_error(
      "GLF 1\nname c\nsize 10 10\nlayers 1\nlayer m1 wires 4000000000 "
      "dummies 0\n",
      "truncated rectangle");
}

TEST(GlfErrors, IndexRejectsABucketPitchTooFineForTheExtents) {
  // nf_fill --tiled buckets the index at 4x the window, so a tiny or zero
  // --window arrives here.
  const std::string path = testing::TempDir() + "glf_pitch.glf";
  {
    std::ofstream os(path, std::ios::binary);
    os << kValid;
  }
  for (const double pitch : {1e-300, 0.0, -4.0})
    EXPECT_THROW(GlfRegionIndex::build(path, pitch), std::invalid_argument)
        << pitch;
}

TEST(GlfErrors, MissingFile) {
  EXPECT_THROW(read_glf_file("/nonexistent/dir/layout.glf"),
               std::runtime_error);
  EXPECT_THROW(GlfRegionIndex::build("/nonexistent/dir/layout.glf", 100.0),
               std::runtime_error);
}

TEST(GlfErrors, TruncatedFileOnDisk) {
  const std::string path = testing::TempDir() + "glf_truncated.glf";
  {
    std::ofstream os(path);
    // Write only the first half of a valid file.
    const std::string text(kValid);
    os << text.substr(0, text.size() / 2);
  }
  EXPECT_THROW(read_glf_file(path), std::runtime_error);
  EXPECT_THROW(GlfRegionIndex::build(path, 100.0), std::runtime_error);
}

TEST(GlfErrors, RoundTripStillWorks) {
  const Layout layout = parse(kValid);
  const std::string path = testing::TempDir() + "glf_roundtrip.glf";
  write_glf_file(path, layout);
  const Layout back = read_glf_file(path);
  ASSERT_EQ(back.layers.size(), layout.layers.size());
  EXPECT_EQ(back.layers[0].wires.size(), layout.layers[0].wires.size());
  EXPECT_EQ(back.layers[0].dummies.size(), layout.layers[0].dummies.size());
}

}  // namespace
