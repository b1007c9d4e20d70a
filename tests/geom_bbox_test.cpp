// Bounding-box algebra invariants and the regular decomposition.
#include "geom/bbox.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace corec::geom {
namespace {

TEST(BoundingBox, VolumeAndExtent) {
  auto b = BoundingBox::cube(0, 0, 0, 3, 1, 0);
  EXPECT_EQ(b.extent(0), 4);
  EXPECT_EQ(b.extent(1), 2);
  EXPECT_EQ(b.extent(2), 1);
  EXPECT_EQ(b.volume(), 8u);
  EXPECT_EQ(BoundingBox::line(5, 5).volume(), 1u);
}

TEST(BoundingBox, ContainsPoint) {
  auto b = BoundingBox::rect(2, 2, 6, 6);
  EXPECT_TRUE(b.contains(Point{2, 2}));
  EXPECT_TRUE(b.contains(Point{6, 6}));
  EXPECT_TRUE(b.contains(Point{4, 3}));
  EXPECT_FALSE(b.contains(Point{1, 4}));
  EXPECT_FALSE(b.contains(Point{7, 4}));
}

TEST(BoundingBox, ContainsBox) {
  auto outer = BoundingBox::rect(0, 0, 9, 9);
  EXPECT_TRUE(outer.contains(BoundingBox::rect(1, 1, 8, 8)));
  EXPECT_TRUE(outer.contains(outer));
  EXPECT_FALSE(outer.contains(BoundingBox::rect(5, 5, 10, 10)));
}

TEST(BoundingBox, IntersectionSymmetric) {
  auto a = BoundingBox::rect(0, 0, 5, 5);
  auto b = BoundingBox::rect(3, 4, 9, 9);
  BoundingBox ab, ba;
  ASSERT_TRUE(a.intersect(b, &ab));
  ASSERT_TRUE(b.intersect(a, &ba));
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab, BoundingBox::rect(3, 4, 5, 5));
}

TEST(BoundingBox, DisjointBoxesDoNotIntersect) {
  auto a = BoundingBox::rect(0, 0, 2, 2);
  auto b = BoundingBox::rect(3, 0, 5, 2);
  EXPECT_FALSE(a.intersects(b));
  BoundingBox out;
  EXPECT_FALSE(a.intersect(b, &out));
  // Touching along an edge *is* intersecting (inclusive bounds).
  auto c = BoundingBox::rect(2, 0, 4, 2);
  EXPECT_TRUE(a.intersects(c));
}

TEST(BoundingBox, ChebyshevGap) {
  auto a = BoundingBox::rect(0, 0, 2, 2);
  EXPECT_EQ(a.chebyshev_gap(BoundingBox::rect(3, 0, 4, 2)), 1);
  EXPECT_EQ(a.chebyshev_gap(BoundingBox::rect(4, 4, 5, 5)), 2);
  EXPECT_EQ(a.chebyshev_gap(BoundingBox::rect(1, 1, 5, 5)), 0);
  EXPECT_EQ(a.chebyshev_gap(a), 0);
}

TEST(BoundingBox, SplitCoversExactly) {
  auto b = BoundingBox::cube(0, 0, 0, 6, 3, 9);
  for (std::size_t d = 0; d < 3; ++d) {
    auto [lo, hi] = b.split(d);
    EXPECT_EQ(lo.volume() + hi.volume(), b.volume());
    EXPECT_FALSE(lo.intersects(hi));
    // Both halves inside b, disjoint, volumes summing to b's: an exact
    // partition.
    EXPECT_TRUE(b.contains(lo));
    EXPECT_TRUE(b.contains(hi));
    // Lower half gets the extra point for odd extents.
    EXPECT_GE(lo.extent(d), hi.extent(d));
  }
}

TEST(BoundingBox, LongestDim) {
  EXPECT_EQ(BoundingBox::cube(0, 0, 0, 3, 9, 5).longest_dim(), 1u);
  EXPECT_EQ(BoundingBox::cube(0, 0, 0, 3, 3, 3).longest_dim(), 0u);
}

TEST(BoundingBox, SubtractProducesDisjointCover) {
  auto base = BoundingBox::rect(0, 0, 9, 9);
  auto cut = BoundingBox::rect(3, 3, 6, 6);
  std::vector<BoundingBox> rest;
  base.subtract(cut, &rest);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    total += rest[i].volume();
    EXPECT_FALSE(rest[i].intersects(cut));
    for (std::size_t j = i + 1; j < rest.size(); ++j) {
      EXPECT_FALSE(rest[i].intersects(rest[j]));
    }
  }
  EXPECT_EQ(total, base.volume() - cut.volume());
}

TEST(BoundingBox, SubtractDisjointReturnsWhole) {
  auto base = BoundingBox::rect(0, 0, 2, 2);
  std::vector<BoundingBox> rest;
  base.subtract(BoundingBox::rect(5, 5, 6, 6), &rest);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], base);
}

TEST(BoundingBox, SubtractFullCoverReturnsNothing) {
  auto base = BoundingBox::rect(1, 1, 3, 3);
  std::vector<BoundingBox> rest;
  base.subtract(BoundingBox::rect(0, 0, 4, 4), &rest);
  EXPECT_TRUE(rest.empty());
}

TEST(LinearOffset, RowMajorOrder) {
  auto b = BoundingBox::rect(10, 20, 12, 23);  // 3 x 4
  EXPECT_EQ(linear_offset(b, Point{10, 20}), 0u);
  EXPECT_EQ(linear_offset(b, Point{10, 21}), 1u);
  EXPECT_EQ(linear_offset(b, Point{11, 20}), 4u);
  EXPECT_EQ(linear_offset(b, Point{12, 23}), 11u);
}

class DecompositionTest
    : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(DecompositionTest, PartitionsExactly) {
  auto counts = GetParam();
  auto domain = BoundingBox::cube(0, 0, 0, 63, 30, 17);
  auto blocks = regular_decomposition(domain, counts);
  std::size_t expected =
      std::accumulate(counts.begin(), counts.end(), std::size_t{1},
                      std::multiplies<>());
  EXPECT_EQ(blocks.size(), expected);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    total += blocks[i].volume();
    EXPECT_TRUE(domain.contains(blocks[i]));
    for (std::size_t j = i + 1; j < blocks.size(); ++j) {
      EXPECT_FALSE(blocks[i].intersects(blocks[j]))
          << i << " vs " << j;
    }
  }
  EXPECT_EQ(total, domain.volume());
}

INSTANTIATE_TEST_SUITE_P(
    Grids, DecompositionTest,
    ::testing::Values(std::vector<std::size_t>{1, 1, 1},
                      std::vector<std::size_t>{4, 1, 1},
                      std::vector<std::size_t>{2, 3, 2},
                      std::vector<std::size_t>{8, 4, 2},
                      std::vector<std::size_t>{5, 7, 3}));

TEST(Decomposition, NegativeOrigin) {
  auto domain = BoundingBox::rect(-8, -4, 7, 3);
  auto blocks = regular_decomposition(domain, {4, 2});
  EXPECT_EQ(blocks.size(), 8u);
  EXPECT_EQ(blocks[0], BoundingBox::rect(-8, -4, -5, -1));
}

TEST(Decomposition, RowMajorBlockOrder) {
  auto domain = BoundingBox::rect(0, 0, 3, 3);
  auto blocks = regular_decomposition(domain, {2, 2});
  EXPECT_EQ(blocks[0], BoundingBox::rect(0, 0, 1, 1));
  EXPECT_EQ(blocks[1], BoundingBox::rect(0, 2, 1, 3));
  EXPECT_EQ(blocks[2], BoundingBox::rect(2, 0, 3, 1));
  EXPECT_EQ(blocks[3], BoundingBox::rect(2, 2, 3, 3));
}

}  // namespace
}  // namespace corec::geom
