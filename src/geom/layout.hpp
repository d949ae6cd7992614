#pragma once

#include <string>
#include <vector>

#include "geom/rect.hpp"

namespace neurfill {

/// One metal layer: a bag of non-overlapping wire rectangles plus the dummy
/// rectangles inserted by filling.  Wires and dummies are kept separate so
/// scoring can distinguish design geometry from fill.
struct Layer {
  std::string name;
  std::vector<Rect> wires;
  std::vector<Rect> dummies;
};

/// A multi-layer Manhattan layout.  Dimensions are in micrometres.  This is
/// the stand-in for a GDSII design database: the filling flow only needs
/// per-layer rectangle sets.
struct Layout {
  std::string name;
  double width_um = 0.0;
  double height_um = 0.0;
  std::vector<Layer> layers;

  std::size_t num_layers() const { return layers.size(); }

  std::size_t total_wire_count() const;
  std::size_t total_dummy_count() const;
  /// Sum of wire areas across layers (um^2).
  double total_wire_area() const;
};

/// ceil(extent_um / window_um): the windows (or index buckets) one axis of
/// a layout spans.  Throws std::invalid_argument for a window that is not
/// positive, or for a count of 2^31 or more (a window too small for its
/// extent).
std::size_t window_count(double extent_um, double window_um);

}  // namespace neurfill
