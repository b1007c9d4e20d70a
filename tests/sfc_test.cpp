// Hilbert curve: encode/decode round trips, bijectivity on small cubes,
// adjacency, and the mapper's routing behaviour.
#include "sfc/sfc.hpp"

#include <gtest/gtest.h>

#include <set>

namespace corec::sfc {
namespace {

TEST(Hilbert3, RoundTrip) {
  for (unsigned order : {1u, 2u, 3u, 5u}) {
    std::uint32_t max = 1u << order;
    for (std::uint32_t x = 0; x < max; x += (order > 2 ? 3 : 1)) {
      for (std::uint32_t y = 0; y < max; y += (order > 2 ? 5 : 1)) {
        for (std::uint32_t z = 0; z < max; z += (order > 2 ? 7 : 1)) {
          SfcKey key = hilbert3_encode(x, y, z, order);
          std::uint32_t rx, ry, rz;
          hilbert3_decode(key, order, &rx, &ry, &rz);
          EXPECT_EQ(rx, x);
          EXPECT_EQ(ry, y);
          EXPECT_EQ(rz, z);
        }
      }
    }
  }
}

TEST(Hilbert3, BijectiveOnSmallCube) {
  const unsigned order = 2;  // 4x4x4 = 64 cells
  std::set<SfcKey> keys;
  for (std::uint32_t x = 0; x < 4; ++x) {
    for (std::uint32_t y = 0; y < 4; ++y) {
      for (std::uint32_t z = 0; z < 4; ++z) {
        keys.insert(hilbert3_encode(x, y, z, order));
      }
    }
  }
  EXPECT_EQ(keys.size(), 64u);
  EXPECT_EQ(*keys.begin(), 0u);
  EXPECT_EQ(*keys.rbegin(), 63u);
}

TEST(Hilbert3, ConsecutiveKeysAreAdjacentCells) {
  // The defining Hilbert property: cells at consecutive curve positions
  // differ by exactly 1 in exactly one coordinate.
  const unsigned order = 3;  // 8x8x8
  std::uint32_t px = 0, py = 0, pz = 0;
  hilbert3_decode(0, order, &px, &py, &pz);
  for (SfcKey k = 1; k < 512; ++k) {
    std::uint32_t x, y, z;
    hilbert3_decode(k, order, &x, &y, &z);
    unsigned manhattan = 0;
    manhattan += x > px ? x - px : px - x;
    manhattan += y > py ? y - py : py - y;
    manhattan += z > pz ? z - pz : pz - z;
    EXPECT_EQ(manhattan, 1u) << "at key " << k;
    px = x;
    py = y;
    pz = z;
  }
}

TEST(SfcMapper, CentroidKeyStableAndClamped) {
  auto domain = geom::BoundingBox::cube(0, 0, 0, 63, 63, 63);
  SfcMapper mapper(domain);
  EXPECT_EQ(mapper.key_bits(), 18u);  // order 6
  auto box = geom::BoundingBox::cube(8, 8, 8, 15, 15, 15);
  SfcKey k1 = mapper.key_of(box);
  SfcKey k2 = mapper.key_of(box);
  EXPECT_EQ(k1, k2);
  // Out-of-domain points clamp instead of crashing.
  geom::Point outside{100, -5, 70};
  (void)mapper.key_of(outside);
}

TEST(SfcMapper, NearbyBoxesGetNearbyKeys) {
  auto domain = geom::BoundingBox::cube(0, 0, 0, 63, 63, 63);
  SfcMapper mapper(domain);
  auto a = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  auto b = geom::BoundingBox::cube(0, 0, 8, 7, 7, 15);   // neighbour
  auto far = geom::BoundingBox::cube(56, 56, 56, 63, 63, 63);
  SfcKey ka = mapper.key_of(a);
  SfcKey kb = mapper.key_of(b);
  SfcKey kf = mapper.key_of(far);
  auto dist = [](SfcKey x, SfcKey y) { return x > y ? x - y : y - x; };
  EXPECT_LT(dist(ka, kb), dist(ka, kf));
}

TEST(SfcMapper, KeysWithinKeyBits) {
  auto domain = geom::BoundingBox::cube(0, 0, 0, 255, 255, 255);
  SfcMapper mapper(domain);
  auto box = geom::BoundingBox::cube(200, 100, 50, 210, 110, 60);
  SfcKey k = mapper.key_of(box);
  EXPECT_LT(k, SfcKey{1} << mapper.key_bits());
}

TEST(SfcMapper, OneDimensionalDomain) {
  auto domain = geom::BoundingBox::line(0, 1023);
  SfcMapper mapper(domain);
  SfcKey a = mapper.key_of(geom::Point{10});
  SfcKey b = mapper.key_of(geom::Point{900});
  EXPECT_LT(a, b);
}

}  // namespace
}  // namespace corec::sfc
