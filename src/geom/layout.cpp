#include "geom/layout.hpp"

#include <cmath>
#include <stdexcept>

namespace neurfill {

std::size_t Layout::total_wire_count() const {
  std::size_t n = 0;
  for (const auto& l : layers) n += l.wires.size();
  return n;
}

std::size_t Layout::total_dummy_count() const {
  std::size_t n = 0;
  for (const auto& l : layers) n += l.dummies.size();
  return n;
}

double Layout::total_wire_area() const {
  double a = 0.0;
  for (const auto& l : layers)
    for (const auto& r : l.wires) a += r.area();
  return a;
}

std::size_t window_count(double extent_um, double window_um) {
  if (!(window_um > 0.0))
    throw std::invalid_argument("window grid: window_um must be positive");
  const double n = std::ceil(extent_um / window_um);
  if (!(n >= 0.0 && n < 0x1p31))
    throw std::invalid_argument("window grid: 2^31 or more windows per axis");
  return static_cast<std::size_t>(n);
}

}  // namespace neurfill
