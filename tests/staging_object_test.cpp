// Object model, object store accounting, hyperslab copies.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "staging/hyperslab.hpp"
#include "staging/object.hpp"
#include "staging/object_store.hpp"

namespace corec::staging {
namespace {

ObjectDescriptor desc(VarId var, Version v, geom::Coord lo,
                      geom::Coord hi) {
  return {var, v, geom::BoundingBox::line(lo, hi), kWholeObject};
}

TEST(ObjectDescriptor, EqualityAndHash) {
  auto a = desc(1, 2, 0, 7);
  auto b = desc(1, 2, 0, 7);
  auto c = desc(1, 3, 0, 7);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  DescriptorHash h;
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));  // overwhelmingly likely
}

TEST(ObjectDescriptor, ShardsDistinct) {
  auto base = desc(1, 2, 0, 7);
  auto s1 = base.shard_of(1);
  auto s2 = base.shard_of(2);
  EXPECT_FALSE(s1 == s2);
  EXPECT_FALSE(s1 == base);
  EXPECT_EQ(s1.base(), base);
  EXPECT_EQ(s2.base(), base);
}

TEST(DataObject, RealAndPhantom) {
  auto d = desc(1, 0, 0, 3);
  auto real = DataObject::real(d, Bytes{1, 2, 3, 4});
  EXPECT_FALSE(real.phantom);
  EXPECT_EQ(real.logical_size, 4u);
  auto ph = DataObject::make_phantom(d, 4096);
  EXPECT_TRUE(ph.phantom);
  EXPECT_EQ(ph.logical_size, 4096u);
  EXPECT_TRUE(ph.data.empty());
}

TEST(ObjectStore, PutFindErase) {
  ObjectStore store;
  auto d = desc(1, 0, 0, 3);
  ASSERT_TRUE(store.put(DataObject::real(d, Bytes{9, 9, 9, 9}),
                        StoredKind::kPrimary)
                  .ok());
  ASSERT_TRUE(store.contains(d));
  const StoredObject* found = store.find(d);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->kind, StoredKind::kPrimary);
  EXPECT_EQ(found->object.data[0], 9);
  EXPECT_TRUE(store.erase(d));
  EXPECT_FALSE(store.contains(d));
  EXPECT_FALSE(store.erase(d));
}

TEST(ObjectStore, ByteAccountingPerKind) {
  ObjectStore store;
  ASSERT_TRUE(store.put(DataObject::make_phantom(desc(1, 0, 0, 3), 100),
                        StoredKind::kPrimary)
                  .ok());
  ASSERT_TRUE(store.put(DataObject::make_phantom(desc(1, 0, 4, 7), 50),
                        StoredKind::kReplica)
                  .ok());
  ASSERT_TRUE(store.put(DataObject::make_phantom(desc(2, 0, 0, 3), 25),
                        StoredKind::kParity)
                  .ok());
  EXPECT_EQ(store.total_bytes(), 175u);
  EXPECT_EQ(store.bytes_of(StoredKind::kPrimary), 100u);
  EXPECT_EQ(store.bytes_of(StoredKind::kReplica), 50u);
  EXPECT_EQ(store.bytes_of(StoredKind::kParity), 25u);
  EXPECT_EQ(store.count(), 3u);
}

TEST(ObjectStore, OverwriteAdjustsAccounting) {
  ObjectStore store;
  auto d = desc(1, 0, 0, 3);
  ASSERT_TRUE(store.put(DataObject::make_phantom(d, 100),
                        StoredKind::kPrimary)
                  .ok());
  ASSERT_TRUE(store.put(DataObject::make_phantom(d, 40),
                        StoredKind::kReplica)
                  .ok());
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.total_bytes(), 40u);
  EXPECT_EQ(store.bytes_of(StoredKind::kPrimary), 0u);
  EXPECT_EQ(store.bytes_of(StoredKind::kReplica), 40u);
}

TEST(ObjectStore, CapacityEnforced) {
  ObjectStore store(100);
  ASSERT_TRUE(store.put(DataObject::make_phantom(desc(1, 0, 0, 3), 80),
                        StoredKind::kPrimary)
                  .ok());
  Status st = store.put(DataObject::make_phantom(desc(1, 0, 4, 7), 30),
                        StoredKind::kPrimary);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // The refused put leaves no entry and no bytes behind.
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.find(desc(1, 0, 4, 7)), nullptr);
  EXPECT_EQ(store.total_bytes(), 80u);
  // Overwriting the existing entry with something that fits is fine.
  ASSERT_TRUE(store.put(DataObject::make_phantom(desc(1, 0, 0, 3), 95),
                        StoredKind::kPrimary)
                  .ok());
}

TEST(ObjectStore, ClearResetsEverything) {
  ObjectStore store;
  ASSERT_TRUE(store.put(DataObject::make_phantom(desc(1, 0, 0, 3), 10),
                        StoredKind::kPrimary)
                  .ok());
  store.clear();
  EXPECT_EQ(store.count(), 0u);
  EXPECT_EQ(store.total_bytes(), 0u);
  EXPECT_EQ(store.bytes_of(StoredKind::kPrimary), 0u);
}

TEST(ObjectStore, ChurnKeepsAccountingEqualToARecount) {
  ObjectStore store(3u << 20);  // full enough that some puts are refused
  Rng rng(7);
  constexpr StoredKind kKinds[] = {StoredKind::kPrimary, StoredKind::kReplica,
                                   StoredKind::kDataChunk, StoredKind::kParity};
  for (int op = 0; op < 20000; ++op) {
    const auto d = desc(1 + rng.uniform(3), 0, rng.uniform(500), 900);
    if (rng.uniform(3) == 0) {
      store.erase(d);
      continue;
    }
    const std::size_t before = store.total_bytes();
    const std::size_t count = store.count();
    const bool present = store.contains(d);
    const std::size_t size = 1 + rng.uniform(8192);
    Status st = store.put(DataObject::make_phantom(d, size),
                          kKinds[rng.uniform(4)]);
    if (!st.ok()) {
      // A refused put leaves nothing behind, not even the key.
      ASSERT_EQ(st.code(), StatusCode::kResourceExhausted);
      ASSERT_EQ(store.total_bytes(), before);
      ASSERT_EQ(store.count(), count);
      ASSERT_EQ(store.contains(d), present);
    }
  }
  std::size_t total = 0;
  std::size_t by_kind[4] = {0, 0, 0, 0};
  std::size_t count = 0;
  store.for_each([&](const StoredObject& e) {
    total += e.object.logical_size;
    by_kind[static_cast<std::size_t>(e.kind)] += e.object.logical_size;
    ++count;
    EXPECT_EQ(store.find(e.object.desc), &e);
  });
  EXPECT_EQ(count, store.count());
  EXPECT_EQ(total, store.total_bytes());
  for (StoredKind k : kKinds) {
    EXPECT_EQ(by_kind[static_cast<std::size_t>(k)], store.bytes_of(k))
        << to_string(k);
  }
}

TEST(Hyperslab, ExtractAndCopyRegion2d) {
  // Source: 4x4 grid with value = linear index.
  auto src_box = geom::BoundingBox::rect(0, 0, 3, 3);
  Bytes src(16);
  for (std::size_t i = 0; i < 16; ++i) {
    src[i] = static_cast<std::uint8_t>(i);
  }
  auto region = geom::BoundingBox::rect(1, 1, 2, 2);
  auto extracted = extract_region(src, src_box, region, 1);
  ASSERT_TRUE(extracted.ok());
  EXPECT_EQ(extracted.value(), (Bytes{5, 6, 9, 10}));

  // Paste back into a zeroed destination of the same domain.
  Bytes dst(16, 0);
  ASSERT_TRUE(copy_region(extracted.value(), region, MutableByteSpan(dst),
                          src_box, region, 1)
                  .ok());
  EXPECT_EQ(dst[5], 5);
  EXPECT_EQ(dst[6], 6);
  EXPECT_EQ(dst[9], 9);
  EXPECT_EQ(dst[10], 10);
  EXPECT_EQ(dst[0], 0);
}

TEST(Hyperslab, MultiByteElements) {
  auto src_box = geom::BoundingBox::rect(0, 0, 1, 1);
  Bytes src{1, 2, 3, 4, 5, 6, 7, 8};  // 2x2 of uint16
  auto region = geom::BoundingBox::rect(1, 0, 1, 1);
  auto ext = extract_region(src, src_box, region, 2);
  ASSERT_TRUE(ext.ok());
  EXPECT_EQ(ext.value(), (Bytes{5, 6, 7, 8}));
}

TEST(Hyperslab, ThreeDimensionalRoundTrip) {
  auto box = geom::BoundingBox::cube(0, 0, 0, 3, 3, 3);
  Bytes src(64);
  for (std::size_t i = 0; i < 64; ++i) {
    src[i] = static_cast<std::uint8_t>(i * 3 + 1);
  }
  auto region = geom::BoundingBox::cube(1, 0, 2, 2, 3, 3);
  auto ext = extract_region(src, box, region, 1);
  ASSERT_TRUE(ext.ok());
  Bytes dst(64, 0);
  ASSERT_TRUE(copy_region(ext.value(), region, MutableByteSpan(dst), box,
                          region, 1)
                  .ok());
  // Every point inside the region matches, everything else is zero.
  for (geom::Coord x = 0; x < 4; ++x) {
    for (geom::Coord y = 0; y < 4; ++y) {
      for (geom::Coord z = 0; z < 4; ++z) {
        geom::Point p{x, y, z};
        auto off = geom::linear_offset(box, p);
        if (region.contains(p)) {
          EXPECT_EQ(dst[off], src[off]);
        } else {
          EXPECT_EQ(dst[off], 0);
        }
      }
    }
  }
}

TEST(Hyperslab, RegionOutsideBoxRejected) {
  auto box = geom::BoundingBox::rect(0, 0, 3, 3);
  Bytes src(16);
  auto bad = geom::BoundingBox::rect(2, 2, 5, 5);
  EXPECT_FALSE(extract_region(src, box, bad, 1).ok());
}

TEST(Hyperslab, UndersizedBufferRejected) {
  auto box = geom::BoundingBox::rect(0, 0, 3, 3);
  Bytes src(8);  // needs 16
  EXPECT_FALSE(
      extract_region(src, box, geom::BoundingBox::rect(0, 0, 1, 1), 1)
          .ok());
}

// Per-element reference for copy_region: each point's offset is
// recomputed from scratch in both layouts and one element moved.
std::size_t reference_offset(const geom::BoundingBox& box,
                             const geom::Point& p) {
  std::size_t off = 0;
  for (std::size_t d = 0; d < box.dims(); ++d) {
    off = off * static_cast<std::size_t>(box.extent(d)) +
          static_cast<std::size_t>(p[d] - box.lo()[d]);
  }
  return off;
}

void reference_copy(ByteSpan src, const geom::BoundingBox& src_box,
                    MutableByteSpan dst, const geom::BoundingBox& dst_box,
                    const geom::BoundingBox& region, std::size_t elem) {
  geom::Point p = region.lo();
  for (;;) {
    std::memcpy(dst.data() + reference_offset(dst_box, p) * elem,
                src.data() + reference_offset(src_box, p) * elem, elem);
    std::size_t d = region.dims();
    while (d-- > 0) {
      if (++p[d] <= region.hi()[d]) break;
      p[d] = region.lo()[d];
    }
    if (d == static_cast<std::size_t>(-1)) return;
  }
}

// Grows `region` by 0-2 points on each side of every dimension d where
// pad(d) holds.
template <typename Pad>
geom::BoundingBox grow(Rng& rng, const geom::BoundingBox& region, Pad pad) {
  geom::Point lo = region.lo(), hi = region.hi();
  for (std::size_t d = 0; d < region.dims(); ++d) {
    if (!pad(d)) continue;
    lo[d] -= rng.uniform_range(0, 2);
    hi[d] += rng.uniform_range(0, 2);
  }
  return geom::BoundingBox(lo, hi);
}

enum class Shape { kRandom, kWholeBoxes, kOneSideFull, kSinglePoint };

// Compares copy_region against the reference on seeded random
// (src box, dst box, region) triples of one shape, every dimension
// count 1..4 and element sizes 1, 3 and 8. The destination starts as
// random bytes, so writes outside the region are caught too.
void check_against_reference(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t dims = 1; dims <= 4; ++dims) {
    for (std::size_t elem : {1, 3, 8}) {
      for (int trial = 0; trial < 40; ++trial) {
        geom::Point lo, hi;
        lo.dims = hi.dims = dims;
        for (std::size_t d = 0; d < dims; ++d) {
          lo[d] = rng.uniform_range(-4, 4);
          hi[d] = shape == Shape::kSinglePoint
                      ? lo[d]
                      : lo[d] + rng.uniform_range(0, 4);
        }
        const geom::BoundingBox region(lo, hi);
        auto any = [](std::size_t) { return true; };
        geom::BoundingBox src_box = grow(rng, region, any);
        geom::BoundingBox dst_box = grow(rng, region, any);
        if (shape == Shape::kWholeBoxes) {
          src_box = dst_box = region;
        } else if (shape == Shape::kOneSideFull) {
          // The source spans every inner extent of the region in full;
          // the destination spans only the last one and is wider in the
          // one before it, so the run takes in just the last two
          // dimensions.
          src_box = grow(rng, region, [](std::size_t d) { return d == 0; });
          const std::size_t wide = dims >= 2 ? dims - 2 : 0;
          dst_box = grow(rng, region, [&](std::size_t d) { return d <= wide; });
          geom::Point dlo = dst_box.lo();
          dlo[wide] -= 1;
          dst_box = geom::BoundingBox(dlo, dst_box.hi());
        }
        SCOPED_TRACE("src " + src_box.to_string() + " dst " +
                     dst_box.to_string() + " region " + region.to_string() +
                     " elem " + std::to_string(elem));

        Bytes src(src_box.volume() * elem);
        for (auto& b : src) b = static_cast<std::uint8_t>(rng.next_u32());
        Bytes want(dst_box.volume() * elem);
        for (auto& b : want) b = static_cast<std::uint8_t>(rng.next_u32());
        Bytes got = want;
        reference_copy(src, src_box, MutableByteSpan(want), dst_box, region,
                       elem);
        ASSERT_TRUE(copy_region(src, src_box, MutableByteSpan(got), dst_box,
                                region, elem)
                        .ok());
        ASSERT_EQ(got, want);
      }
    }
  }
}

TEST(Hyperslab, MatchesPerElementReferenceOnRandomBoxes) {
  check_against_reference(Shape::kRandom, 11);
}

TEST(Hyperslab, MatchesReferenceWhenRegionIsBothBoxes) {
  check_against_reference(Shape::kWholeBoxes, 12);
}

TEST(Hyperslab, MatchesReferenceWhenOnlyOneSideIsContiguous) {
  check_against_reference(Shape::kOneSideFull, 13);
}

TEST(Hyperslab, MatchesReferenceForSinglePoint) {
  check_against_reference(Shape::kSinglePoint, 14);
}

// Splits `box` into a random guillotine tiling of uneven pieces. Half
// the cuts go across the innermost dimension, so pieces sharing every
// outer range (one gather group) are common, and so are groups of one.
void random_tiling(Rng& rng, const geom::BoundingBox& box, int depth,
                   std::vector<geom::BoundingBox>* out) {
  const std::size_t inner = box.dims() - 1;
  std::vector<std::size_t> cuttable;
  for (std::size_t d = 0; d < box.dims(); ++d) {
    if (box.extent(d) >= 2) cuttable.push_back(d);
  }
  if (depth == 0 || cuttable.empty() || rng.uniform(5) == 0) {
    out->push_back(box);
    return;
  }
  const std::size_t d =
      rng.uniform(2) == 0 && box.extent(inner) >= 2
          ? inner
          : cuttable[rng.uniform(static_cast<std::uint32_t>(cuttable.size()))];
  const geom::Coord cut = box.lo()[d] + rng.uniform_range(1, box.extent(d) - 1);
  geom::Point lower_hi = box.hi(), upper_lo = box.lo();
  lower_hi[d] = cut - 1;
  upper_lo[d] = cut;
  random_tiling(rng, geom::BoundingBox(box.lo(), lower_hi), depth - 1, out);
  random_tiling(rng, geom::BoundingBox(upper_lo, box.hi()), depth - 1, out);
}

// gather_tiles against one copy_region per piece on seeded random
// tilings: 1-4 dims, element sizes 1, 3 and 8, source boxes wider than
// their pieces, sources in shuffled order. Half the destinations are
// wider than the tiled box and start as random bytes, so a write
// outside the pieces is caught as well as a missing one.
TEST(Hyperslab, GatherTilesMatchesPerPieceCopyRegion) {
  Rng rng(21);
  int shared_outer = 0;  // trials with a group of two or more
  for (std::size_t dims = 1; dims <= 4; ++dims) {
    for (std::size_t elem : {1, 3, 8}) {
      for (int trial = 0; trial < 40; ++trial) {
        geom::Point lo, hi;
        lo.dims = hi.dims = dims;
        for (std::size_t d = 0; d < dims; ++d) {
          lo[d] = rng.uniform_range(-4, 4);
          hi[d] = lo[d] + rng.uniform_range(0, 6);
        }
        const geom::BoundingBox tiled(lo, hi);
        auto any = [](std::size_t) { return true; };
        const geom::BoundingBox dst_box =
            rng.uniform(2) == 0 ? tiled : grow(rng, tiled, any);
        std::vector<geom::BoundingBox> regions;
        random_tiling(rng, tiled, 6, &regions);

        std::vector<geom::BoundingBox> src_boxes;
        std::vector<Bytes> srcs;
        for (const auto& region : regions) {
          src_boxes.push_back(grow(rng, region, any));
          Bytes src(src_boxes.back().volume() * elem);
          for (auto& b : src) b = static_cast<std::uint8_t>(rng.next_u32());
          srcs.push_back(std::move(src));
        }
        Bytes want(dst_box.volume() * elem);
        for (auto& b : want) b = static_cast<std::uint8_t>(rng.next_u32());
        Bytes got = want;
        std::vector<TileSource> sources;
        for (std::size_t i = 0; i < regions.size(); ++i) {
          ASSERT_TRUE(copy_region(srcs[i], src_boxes[i], MutableByteSpan(want),
                                  dst_box, regions[i], elem)
                          .ok());
          sources.push_back({srcs[i], &src_boxes[i], regions[i]});
        }
        for (std::size_t i = sources.size(); i > 1; --i) {
          std::swap(sources[i - 1],
                    sources[rng.uniform(static_cast<std::uint32_t>(i))]);
        }
        auto same_outer = [dims](const geom::BoundingBox& a,
                                 const geom::BoundingBox& b) {
          for (std::size_t d = 0; d + 1 < dims; ++d) {
            if (a.lo()[d] != b.lo()[d] || a.hi()[d] != b.hi()[d]) {
              return false;
            }
          }
          return true;
        };
        bool shared = false;
        for (std::size_t i = 0; i < regions.size(); ++i) {
          for (std::size_t j = i + 1; j < regions.size(); ++j) {
            shared = shared || same_outer(regions[i], regions[j]);
          }
        }
        shared_outer += shared ? 1 : 0;
        SCOPED_TRACE("dst " + dst_box.to_string() + " tiled " +
                     tiled.to_string() + " pieces " +
                     std::to_string(regions.size()) + " elem " +
                     std::to_string(elem));
        ASSERT_TRUE(
            gather_tiles(sources, MutableByteSpan(got), dst_box, elem).ok());
        ASSERT_EQ(got, want);
      }
    }
  }
  EXPECT_GT(shared_outer, 200);
}

TEST(Hyperslab, GatherTilesRejectsWhatCopyRegionRejects) {
  const auto box = geom::BoundingBox::rect(0, 0, 3, 3);
  const auto left = geom::BoundingBox::rect(0, 0, 3, 1);
  const auto right = geom::BoundingBox::rect(0, 2, 3, 3);
  Bytes src(16), dst(16);
  std::vector<TileSource> sources{{src, &left, left}, {src, &right, right}};
  EXPECT_TRUE(gather_tiles(sources, MutableByteSpan(dst), box, 1).ok());
  // A region outside its source box.
  sources[1].region = geom::BoundingBox::rect(0, 1, 3, 3);
  EXPECT_EQ(gather_tiles(sources, MutableByteSpan(dst), box, 1).code(),
            StatusCode::kInvalidArgument);
  // A destination smaller than its box.
  sources[1].region = right;
  Bytes small(15);
  EXPECT_EQ(gather_tiles(sources, MutableByteSpan(small), box, 1).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace corec::staging
