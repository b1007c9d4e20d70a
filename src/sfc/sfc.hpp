// Space-filling curves mapping n-D grid coordinates to 1-D keys.
// DataSpaces distributes its shared space across staging servers by SFC
// key ranges; we provide a Hilbert curve for up to 3 dimensions, which
// is what the staging directory uses to map object regions to primary
// servers with good spatial locality.
#pragma once

#include <cstdint>

#include "geom/bbox.hpp"

namespace corec::sfc {

/// 1-D key on a space-filling curve.
using SfcKey = std::uint64_t;

/// Hilbert curve over a 2^order x 2^order x 2^order cube (3-D, order
/// <= 20). Consecutive keys are always adjacent cells.
SfcKey hilbert3_encode(std::uint32_t x, std::uint32_t y, std::uint32_t z,
                       unsigned order);

/// Inverse of hilbert3_encode.
void hilbert3_decode(SfcKey key, unsigned order, std::uint32_t* x,
                     std::uint32_t* y, std::uint32_t* z);

/// Maps object centroids to Hilbert keys within a fixed domain. All
/// coordinates are translated to the domain origin first, so negative
/// domain corners are supported.
class SfcMapper {
 public:
  /// `domain` must be 1-3 dimensional.
  explicit SfcMapper(const geom::BoundingBox& domain);

  /// Key of the centroid of `box` (clamped into the domain).
  SfcKey key_of(const geom::BoundingBox& box) const;

  /// Key of a single point.
  SfcKey key_of(const geom::Point& p) const;

  /// Keys produced by this mapper fit in this many bits (3 * cube
  /// order); used to scale keys into server-range partitions.
  unsigned key_bits() const { return 3 * order_; }

 private:
  geom::BoundingBox domain_;
  unsigned order_ = 0;  // Hilbert cube order covering the domain
};

}  // namespace corec::sfc
