#include "geom/bbox.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace corec::geom {

Point::Point(std::initializer_list<Coord> coords) {
  assert(coords.size() <= kMaxDims);
  dims = coords.size();
  std::size_t i = 0;
  for (Coord c : coords) x[i++] = c;
}

bool operator==(const Point& a, const Point& b) {
  if (a.dims != b.dims) return false;
  for (std::size_t d = 0; d < a.dims; ++d) {
    if (a.x[d] != b.x[d]) return false;
  }
  return true;
}

std::string Point::to_string() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t d = 0; d < dims; ++d) {
    if (d) os << ",";
    os << x[d];
  }
  os << ")";
  return os.str();
}

BoundingBox::BoundingBox(Point lo, Point hi) : lo_(lo), hi_(hi) {
  assert(lo.dims == hi.dims);
  for (std::size_t d = 0; d < lo.dims; ++d) {
    assert(lo[d] <= hi[d] && "box corners out of order");
  }
}

BoundingBox BoundingBox::line(Coord lo, Coord hi) {
  return BoundingBox(Point{lo}, Point{hi});
}

BoundingBox BoundingBox::rect(Coord x0, Coord y0, Coord x1, Coord y1) {
  return BoundingBox(Point{x0, y0}, Point{x1, y1});
}

BoundingBox BoundingBox::cube(Coord x0, Coord y0, Coord z0, Coord x1,
                              Coord y1, Coord z1) {
  return BoundingBox(Point{x0, y0, z0}, Point{x1, y1, z1});
}

std::uint64_t BoundingBox::volume() const {
  std::uint64_t v = 1;
  for (std::size_t d = 0; d < dims(); ++d) {
    v *= static_cast<std::uint64_t>(extent(d));
  }
  return dims() ? v : 0;
}

bool BoundingBox::contains(const Point& p) const {
  if (p.dims != dims()) return false;
  for (std::size_t d = 0; d < dims(); ++d) {
    if (p[d] < lo_[d] || p[d] > hi_[d]) return false;
  }
  return true;
}

bool BoundingBox::contains(const BoundingBox& other) const {
  return contains(other.lo_) && contains(other.hi_);
}

bool BoundingBox::intersects(const BoundingBox& other) const {
  if (other.dims() != dims()) return false;
  for (std::size_t d = 0; d < dims(); ++d) {
    if (other.hi_[d] < lo_[d] || other.lo_[d] > hi_[d]) return false;
  }
  return dims() != 0;
}

bool BoundingBox::intersect(const BoundingBox& other,
                            BoundingBox* out) const {
  if (!intersects(other)) return false;
  Point lo, hi;
  lo.dims = hi.dims = dims();
  for (std::size_t d = 0; d < dims(); ++d) {
    lo[d] = std::max(lo_[d], other.lo_[d]);
    hi[d] = std::min(hi_[d], other.hi_[d]);
  }
  *out = BoundingBox(lo, hi);
  return true;
}

Coord BoundingBox::chebyshev_gap(const BoundingBox& other) const {
  assert(other.dims() == dims());
  Coord gap = 0;
  for (std::size_t d = 0; d < dims(); ++d) {
    Coord g = 0;
    if (other.hi_[d] < lo_[d]) {
      g = lo_[d] - other.hi_[d];
    } else if (other.lo_[d] > hi_[d]) {
      g = other.lo_[d] - hi_[d];
    }
    gap = std::max(gap, g);
  }
  return gap;
}

std::pair<BoundingBox, BoundingBox> BoundingBox::split(
    std::size_t dim) const {
  assert(extent(dim) >= 2 && "cannot split a unit extent");
  Coord mid = lo_[dim] + (extent(dim) + 1) / 2 - 1;  // lower half larger
  Point lo_hi = hi_;
  lo_hi[dim] = mid;
  Point hi_lo = lo_;
  hi_lo[dim] = mid + 1;
  return {BoundingBox(lo_, lo_hi), BoundingBox(hi_lo, hi_)};
}

std::size_t BoundingBox::longest_dim() const {
  std::size_t best = 0;
  for (std::size_t d = 1; d < dims(); ++d) {
    if (extent(d) > extent(best)) best = d;
  }
  return best;
}

void BoundingBox::subtract(const BoundingBox& cut,
                           std::vector<BoundingBox>* out) const {
  BoundingBox overlap;
  if (!intersect(cut, &overlap)) {
    out->push_back(*this);
    return;
  }
  // Axis sweep: peel off slabs outside the overlap, one dimension at a
  // time; the remaining core equals the overlap and is dropped.
  BoundingBox core = *this;
  for (std::size_t d = 0; d < dims(); ++d) {
    if (core.lo_[d] < overlap.lo_[d]) {
      Point hi = core.hi_;
      hi[d] = overlap.lo_[d] - 1;
      out->push_back(BoundingBox(core.lo_, hi));
      Point lo = core.lo_;
      lo[d] = overlap.lo_[d];
      core = BoundingBox(lo, core.hi_);
    }
    if (core.hi_[d] > overlap.hi_[d]) {
      Point lo = core.lo_;
      lo[d] = overlap.hi_[d] + 1;
      out->push_back(BoundingBox(lo, core.hi_));
      Point hi = core.hi_;
      hi[d] = overlap.hi_[d];
      core = BoundingBox(core.lo_, hi);
    }
  }
}

std::string BoundingBox::to_string() const {
  // Appended piecewise: GCC 12's -Wrestrict misfires on a string
  // literal + std::string temporary in Release builds.
  std::string out = "{";
  out.append(lo_.to_string()).append(",").append(hi_.to_string());
  out.append("}");
  return out;
}

std::uint64_t linear_offset(const BoundingBox& box, const Point& p) {
  assert(box.contains(p));
  std::uint64_t off = 0;
  for (std::size_t d = 0; d < box.dims(); ++d) {
    off = off * static_cast<std::uint64_t>(box.extent(d)) +
          static_cast<std::uint64_t>(p[d] - box.lo()[d]);
  }
  return off;
}

std::vector<BoundingBox> regular_decomposition(
    const BoundingBox& domain, const std::vector<std::size_t>& counts) {
  assert(counts.size() == domain.dims());
  // Per-dimension cut points.
  std::vector<std::vector<Coord>> starts(domain.dims());
  for (std::size_t d = 0; d < domain.dims(); ++d) {
    assert(counts[d] >= 1);
    Coord ext = domain.extent(d);
    auto nblocks = static_cast<Coord>(counts[d]);
    assert(ext >= nblocks && "more blocks than points");
    Coord base = ext / nblocks;
    Coord rem = ext % nblocks;
    Coord pos = domain.lo()[d];
    for (Coord b = 0; b < nblocks; ++b) {
      starts[d].push_back(pos);
      // Trailing `rem` blocks get one extra point.
      pos += base + (b >= nblocks - rem ? 1 : 0);
    }
    starts[d].push_back(domain.hi()[d] + 1);  // sentinel end
  }

  std::size_t total = 1;
  for (std::size_t c : counts) total *= c;
  std::vector<BoundingBox> blocks;
  blocks.reserve(total);
  std::vector<std::size_t> idx(domain.dims(), 0);
  bool done = false;
  while (!done) {
    Point lo, hi;
    lo.dims = hi.dims = domain.dims();
    for (std::size_t d = 0; d < domain.dims(); ++d) {
      lo[d] = starts[d][idx[d]];
      hi[d] = starts[d][idx[d] + 1] - 1;
    }
    blocks.emplace_back(lo, hi);
    // Odometer increment, last dimension fastest (row-major order).
    done = true;
    std::size_t d = domain.dims();
    while (d-- > 0) {
      if (++idx[d] < counts[d]) {
        done = false;
        break;
      }
      idx[d] = 0;
    }
  }
  return blocks;
}

}  // namespace corec::geom
