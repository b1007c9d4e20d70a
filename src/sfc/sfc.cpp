#include "sfc/sfc.hpp"

#include <algorithm>
#include <cassert>

namespace corec::sfc {

// 3-D Hilbert via the transpose method (Skilling, "Programming the
// Hilbert curve", AIP 2004). Coordinates in/out of "transposed" form.
namespace {

void axes_to_transpose(std::uint32_t* X, unsigned b) {
  std::uint32_t M = 1u << (b - 1), P, Q, t;
  const unsigned n = 3;
  // Inverse undo of excess work.
  for (Q = M; Q > 1; Q >>= 1) {
    P = Q - 1;
    for (unsigned i = 0; i < n; ++i) {
      if (X[i] & Q) {
        X[0] ^= P;  // invert
      } else {
        t = (X[0] ^ X[i]) & P;
        X[0] ^= t;
        X[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (unsigned i = 1; i < n; ++i) X[i] ^= X[i - 1];
  t = 0;
  for (Q = M; Q > 1; Q >>= 1) {
    if (X[n - 1] & Q) t ^= Q - 1;
  }
  for (unsigned i = 0; i < n; ++i) X[i] ^= t;
}

void transpose_to_axes(std::uint32_t* X, unsigned b) {
  std::uint32_t N = 2u << (b - 1), P, Q, t;
  const unsigned n = 3;
  // Gray decode by H ^ (H/2).
  t = X[n - 1] >> 1;
  for (unsigned i = n - 1; i > 0; --i) X[i] ^= X[i - 1];
  X[0] ^= t;
  // Undo excess work.
  for (Q = 2; Q != N; Q <<= 1) {
    P = Q - 1;
    for (unsigned i = n; i-- > 0;) {
      if (X[i] & Q) {
        X[0] ^= P;
      } else {
        t = (X[0] ^ X[i]) & P;
        X[0] ^= t;
        X[i] ^= t;
      }
    }
  }
}

}  // namespace

SfcKey hilbert3_encode(std::uint32_t x, std::uint32_t y, std::uint32_t z,
                       unsigned order) {
  assert(order >= 1 && order <= 20);
  assert(x < (1u << order) && y < (1u << order) && z < (1u << order));
  std::uint32_t X[3] = {x, y, z};
  axes_to_transpose(X, order);
  // Interleave the transposed bits, X[0] highest.
  SfcKey key = 0;
  for (unsigned bit = order; bit-- > 0;) {
    for (unsigned i = 0; i < 3; ++i) {
      key = (key << 1) | ((X[i] >> bit) & 1u);
    }
  }
  return key;
}

void hilbert3_decode(SfcKey key, unsigned order, std::uint32_t* x,
                     std::uint32_t* y, std::uint32_t* z) {
  assert(order >= 1 && order <= 20);
  std::uint32_t X[3] = {0, 0, 0};
  for (unsigned bit = 0; bit < order; ++bit) {
    for (unsigned i = 0; i < 3; ++i) {
      unsigned shift = (order - 1 - bit) * 3 + (2 - i);
      X[i] = (X[i] << 1) | ((key >> shift) & 1u);
    }
  }
  transpose_to_axes(X, order);
  *x = X[0];
  *y = X[1];
  *z = X[2];
}

SfcMapper::SfcMapper(const geom::BoundingBox& domain) : domain_(domain) {
  assert(domain.dims() >= 1 && domain.dims() <= 3);
  geom::Coord max_extent = 1;
  for (std::size_t d = 0; d < domain.dims(); ++d) {
    max_extent = std::max(max_extent, domain.extent(d));
  }
  order_ = 1;
  while ((geom::Coord{1} << order_) < max_extent) ++order_;
  assert(order_ <= 20);
}

SfcKey SfcMapper::key_of(const geom::Point& p) const {
  std::uint32_t c[3] = {0, 0, 0};
  for (std::size_t d = 0; d < domain_.dims(); ++d) {
    geom::Coord v =
        std::clamp(p[d], domain_.lo()[d], domain_.hi()[d]) -
        domain_.lo()[d];
    c[d] = static_cast<std::uint32_t>(v);
  }
  return hilbert3_encode(c[0], c[1], c[2], order_);
}

SfcKey SfcMapper::key_of(const geom::BoundingBox& box) const {
  geom::Point centroid;
  centroid.dims = box.dims();
  for (std::size_t d = 0; d < box.dims(); ++d) {
    centroid[d] = box.lo()[d] + (box.hi()[d] - box.lo()[d]) / 2;
  }
  return key_of(centroid);
}

}  // namespace corec::sfc
