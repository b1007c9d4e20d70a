// N-dimensional region (hyperslab) copies between row-major payloads —
// the assembly step of a DataSpaces get() that stitches object pieces
// into the caller's buffer, and the extraction step of partial writes.
#pragma once

#include <span>

#include "common/buffer.hpp"
#include "common/status.hpp"
#include "geom/bbox.hpp"

namespace corec::staging {

/// Copies the region `region` from `src` (laid out row-major over
/// `src_box`) into `dst` (row-major over `dst_box`). `region` must be
/// contained in both boxes; element_size is bytes per grid point.
/// Trailing dimensions contiguous in both layouts coalesce into one
/// memcpy run; the outer dimensions are walked by byte strides.
Status copy_region(ByteSpan src, const geom::BoundingBox& src_box,
                   MutableByteSpan dst, const geom::BoundingBox& dst_box,
                   const geom::BoundingBox& region,
                   std::size_t element_size);

/// One source of gather_tiles: `data` laid out row-major over `*box`,
/// of which `region` is copied.
struct TileSource {
  ByteSpan data;
  const geom::BoundingBox* box = nullptr;
  geom::BoundingBox region;
};

/// Copies every source's region into `dst` (row-major over `dst_box`),
/// with copy_region's checks. The regions must be pairwise disjoint, as
/// the pieces of a tiling are. Sources whose regions share the range of
/// every dimension but the innermost form a group, written row by row
/// in destination order with one memcpy per member per row; a group of
/// one is a copy_region.
Status gather_tiles(std::span<const TileSource> sources,
                    MutableByteSpan dst, const geom::BoundingBox& dst_box,
                    std::size_t element_size);

/// Extracts `region` of `src` into a fresh buffer (row-major over
/// `region`).
StatusOr<Bytes> extract_region(ByteSpan src,
                               const geom::BoundingBox& src_box,
                               const geom::BoundingBox& region,
                               std::size_t element_size);

}  // namespace corec::staging
