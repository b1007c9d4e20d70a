// N-dimensional integer bounding boxes — the DataSpaces object-descriptor
// geometry. Boxes are inclusive on both ends ({lo, hi} with lo <= hi per
// dimension), matching the paper's region notation {(2,2),(6,6)}.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace corec::geom {

/// Maximum spatial dimensionality supported (DataSpaces supports up to 3;
/// we allow more for tests/extensions).
inline constexpr std::size_t kMaxDims = 8;

/// Discrete coordinate along one dimension.
using Coord = std::int64_t;

/// Point in n-dimensional index space.
struct Point {
  std::size_t dims = 0;
  std::array<Coord, kMaxDims> x{};

  Point() = default;
  Point(std::initializer_list<Coord> coords);

  Coord operator[](std::size_t d) const { return x[d]; }
  Coord& operator[](std::size_t d) { return x[d]; }

  friend bool operator==(const Point& a, const Point& b);
  std::string to_string() const;
};

/// Axis-aligned box [lo, hi] (inclusive) in n-dimensional index space.
class BoundingBox {
 public:
  BoundingBox() = default;
  /// Constructs from corner points; requires matching dims and lo <= hi.
  BoundingBox(Point lo, Point hi);

  /// 1-D/2-D/3-D conveniences used heavily in tests and workloads.
  static BoundingBox line(Coord lo, Coord hi);
  static BoundingBox rect(Coord x0, Coord y0, Coord x1, Coord y1);
  static BoundingBox cube(Coord x0, Coord y0, Coord z0, Coord x1, Coord y1,
                          Coord z1);

  std::size_t dims() const { return lo_.dims; }
  const Point& lo() const { return lo_; }
  const Point& hi() const { return hi_; }

  /// Extent along dimension d (number of grid points, >= 1).
  Coord extent(std::size_t d) const { return hi_[d] - lo_[d] + 1; }

  /// Total number of grid points covered.
  std::uint64_t volume() const;

  /// True if `p` lies inside the box.
  bool contains(const Point& p) const;
  /// True if `other` is entirely inside this box.
  bool contains(const BoundingBox& other) const;
  /// True if the boxes share at least one grid point.
  bool intersects(const BoundingBox& other) const;

  /// Intersection box; empty optional-like: returns false if disjoint.
  bool intersect(const BoundingBox& other, BoundingBox* out) const;

  /// Chebyshev (L-inf) gap between boxes: 0 when they touch/overlap,
  /// otherwise the smallest per-dimension separation max. Used for the
  /// spatial-locality neighbourhood test in the classifier.
  Coord chebyshev_gap(const BoundingBox& other) const;

  /// Splits this box in two halves along `dim` (lower half gets the
  /// extra point for odd extents). Requires extent(dim) >= 2.
  std::pair<BoundingBox, BoundingBox> split(std::size_t dim) const;

  /// Dimension with the largest extent (ties -> lowest index).
  std::size_t longest_dim() const;

  /// Subtracts `cut` from this box, appending the up-to-2*dims disjoint
  /// remainder boxes to `out`. (Axis-sweep decomposition.)
  void subtract(const BoundingBox& cut,
                std::vector<BoundingBox>* out) const;

  std::string to_string() const;

  friend bool operator==(const BoundingBox& a, const BoundingBox& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }

 private:
  Point lo_;
  Point hi_;
};

/// Row-major linear offset of `p` within `box` (for payload addressing).
std::uint64_t linear_offset(const BoundingBox& box, const Point& p);

/// Decomposes `domain` into a regular grid of `counts[d]` blocks per
/// dimension (DataSpaces-style static domain decomposition). Remainder
/// points go to the trailing blocks. Returns row-major block list.
std::vector<BoundingBox> regular_decomposition(
    const BoundingBox& domain, const std::vector<std::size_t>& counts);

}  // namespace corec::geom
