#include "staging/hyperslab.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

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

Status gather_tiles(std::span<const TileSource> sources,
                    MutableByteSpan dst, const geom::BoundingBox& dst_box,
                    std::size_t element_size) {
  if (dst.size() < dst_box.volume() * element_size) {
    return Status::InvalidArgument("buffer too small for box");
  }
  for (const TileSource& s : sources) {
    if (!s.box->contains(s.region) || !dst_box.contains(s.region)) {
      return Status::InvalidArgument("region not contained in boxes");
    }
    if (s.data.size() < s.box->volume() * element_size) {
      return Status::InvalidArgument("buffer too small for box");
    }
  }
  const std::size_t dims = dst_box.dims();
  if (dims == 0) return Status::Ok();
  const std::size_t inner = dims - 1;

  // Order by the outer ranges, then by innermost lo, so each group is
  // one run of `order` with its members left to right.
  std::vector<const TileSource*> order;
  order.reserve(sources.size());
  for (const TileSource& s : sources) order.push_back(&s);
  auto outer_cmp = [inner](const geom::BoundingBox& a,
                           const geom::BoundingBox& b) {
    for (std::size_t k = 0; k < inner; ++k) {
      if (a.lo()[k] != b.lo()[k]) return a.lo()[k] < b.lo()[k] ? -1 : 1;
    }
    for (std::size_t k = 0; k < inner; ++k) {
      if (a.hi()[k] != b.hi()[k]) return a.hi()[k] < b.hi()[k] ? -1 : 1;
    }
    return 0;
  };
  std::sort(order.begin(), order.end(),
            [&](const TileSource* a, const TileSource* b) {
              const int c = outer_cmp(a->region, b->region);
              if (c != 0) return c < 0;
              return a->region.lo()[inner] < b->region.lo()[inner];
            });

  std::array<std::uint64_t, geom::kMaxDims> dst_stride{};
  std::uint64_t d = element_size;
  for (std::size_t k = dims; k-- > 0;) {
    dst_stride[k] = d;
    d *= static_cast<std::uint64_t>(dst_box.extent(k));
  }
  struct Member {
    const std::uint8_t* sp;
    std::array<std::uint64_t, geom::kMaxDims> stride;
    std::uint64_t dst_off;  // bytes right of the group's first member
    std::uint64_t run;
  };
  std::vector<Member> members;
  for (std::size_t g = 0, end = 0; g < order.size(); g = end) {
    end = g + 1;
    while (end < order.size() &&
           outer_cmp(order[end]->region, order[g]->region) == 0) {
      ++end;
    }
    const geom::BoundingBox& lead = order[g]->region;
    if (end - g == 1) {
      COREC_RETURN_IF_ERROR(copy_region(order[g]->data, *order[g]->box,
                                        dst, dst_box, lead, element_size));
      continue;
    }
    members.clear();
    for (std::size_t i = g; i < end; ++i) {
      const TileSource& s = *order[i];
      Member m{};
      std::uint64_t st = element_size;
      for (std::size_t k = dims; k-- > 0;) {
        m.stride[k] = st;
        st *= static_cast<std::uint64_t>(s.box->extent(k));
      }
      m.sp = s.data.data() +
             geom::linear_offset(*s.box, s.region.lo()) * element_size;
      m.dst_off = static_cast<std::uint64_t>(s.region.lo()[inner] -
                                             lead.lo()[inner]) *
                  element_size;
      m.run = static_cast<std::uint64_t>(s.region.extent(inner)) *
              element_size;
      members.push_back(m);
    }
    std::uint8_t* dp =
        dst.data() + geom::linear_offset(dst_box, lead.lo()) * element_size;
    // Odometer over the shared outer range, as in copy_region.
    std::array<geom::Coord, geom::kMaxDims> count{};
    for (bool more = true; more;) {
      for (const Member& m : members) std::memcpy(dp + m.dst_off, m.sp, m.run);
      more = false;
      for (std::size_t k = inner; k-- > 0;) {
        if (++count[k] < lead.extent(k)) {
          dp += dst_stride[k];
          for (Member& m : members) m.sp += m.stride[k];
          more = true;
          break;
        }
        count[k] = 0;
        const auto back = static_cast<std::uint64_t>(lead.extent(k) - 1);
        dp -= dst_stride[k] * back;
        for (Member& m : members) m.sp -= m.stride[k] * back;
      }
    }
  }
  return Status::Ok();
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
