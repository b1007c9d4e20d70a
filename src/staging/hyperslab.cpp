#include "staging/hyperslab.hpp"

#include <array>
#include <cstring>

namespace corec::staging {

Status copy_region(ByteSpan src, const geom::BoundingBox& src_box,
                   MutableByteSpan dst, const geom::BoundingBox& dst_box,
                   const geom::BoundingBox& region,
                   std::size_t element_size) {
  if (!src_box.contains(region) || !dst_box.contains(region)) {
    return Status::InvalidArgument("region not contained in boxes");
  }
  if (src.size() < src_box.volume() * element_size ||
      dst.size() < dst_box.volume() * element_size) {
    return Status::InvalidArgument("buffer too small for box");
  }
  const std::size_t dims = region.dims();
  if (dims == 0) return Status::Ok();

  // Row-major byte strides of every dimension in both layouts.
  std::array<std::uint64_t, geom::kMaxDims> src_stride{}, dst_stride{};
  std::uint64_t s = element_size, d = element_size;
  for (std::size_t k = dims; k-- > 0;) {
    src_stride[k] = s;
    dst_stride[k] = d;
    s *= static_cast<std::uint64_t>(src_box.extent(k));
    d *= static_cast<std::uint64_t>(dst_box.extent(k));
  }

  // One contiguous run covers dimensions [inner, dims): a dimension joins
  // the run while every dimension inside it spans both boxes in full.
  std::size_t inner = dims - 1;
  std::uint64_t run =
      static_cast<std::uint64_t>(region.extent(inner)) * element_size;
  while (inner > 0 && region.extent(inner) == src_box.extent(inner) &&
         region.extent(inner) == dst_box.extent(inner)) {
    --inner;
    run *= static_cast<std::uint64_t>(region.extent(inner));
  }

  const std::uint8_t* sp =
      src.data() + geom::linear_offset(src_box, region.lo()) * element_size;
  std::uint8_t* dp =
      dst.data() + geom::linear_offset(dst_box, region.lo()) * element_size;
  // Odometer over the outer dimensions [0, inner), stepping both
  // pointers by their strides.
  std::array<geom::Coord, geom::kMaxDims> count{};
  for (;;) {
    std::memcpy(dp, sp, run);
    std::size_t k = inner;
    for (;;) {
      if (k == 0) return Status::Ok();
      --k;
      if (++count[k] < region.extent(k)) {
        sp += src_stride[k];
        dp += dst_stride[k];
        break;
      }
      count[k] = 0;
      const auto back = static_cast<std::uint64_t>(region.extent(k) - 1);
      sp -= src_stride[k] * back;
      dp -= dst_stride[k] * back;
    }
  }
}

StatusOr<Bytes> extract_region(ByteSpan src,
                               const geom::BoundingBox& src_box,
                               const geom::BoundingBox& region,
                               std::size_t element_size) {
  Bytes out(static_cast<std::size_t>(region.volume()) * element_size);
  COREC_RETURN_IF_ERROR(copy_region(src, src_box, MutableByteSpan(out),
                                    region, region, element_size));
  return out;
}

}  // namespace corec::staging
