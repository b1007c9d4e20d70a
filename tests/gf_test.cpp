// GF(2^8) arithmetic: field axioms, table consistency, region kernels.
#include "gf/gf256.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace corec::gf {
namespace {

TEST(Gf256, AddIsXor) {
  EXPECT_EQ(add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(add(0, 0xFF), 0xFF);
  EXPECT_EQ(add(0xAB, 0xAB), 0);
}

TEST(Gf256, MulIdentityAndZero) {
  for (unsigned a = 0; a < 256; ++a) {
    auto v = static_cast<std::uint8_t>(a);
    EXPECT_EQ(mul(v, 1), v);
    EXPECT_EQ(mul(1, v), v);
    EXPECT_EQ(mul(v, 0), 0);
    EXPECT_EQ(mul(0, v), 0);
  }
}

TEST(Gf256, MulCommutative) {
  for (unsigned a = 0; a < 256; a += 7) {
    for (unsigned b = 0; b < 256; b += 5) {
      EXPECT_EQ(mul(static_cast<std::uint8_t>(a),
                    static_cast<std::uint8_t>(b)),
                mul(static_cast<std::uint8_t>(b),
                    static_cast<std::uint8_t>(a)));
    }
  }
}

TEST(Gf256, MulAssociative) {
  for (unsigned a = 1; a < 256; a += 31) {
    for (unsigned b = 1; b < 256; b += 29) {
      for (unsigned c = 1; c < 256; c += 37) {
        auto x = static_cast<std::uint8_t>(a);
        auto y = static_cast<std::uint8_t>(b);
        auto z = static_cast<std::uint8_t>(c);
        EXPECT_EQ(mul(mul(x, y), z), mul(x, mul(y, z)));
      }
    }
  }
}

TEST(Gf256, Distributive) {
  for (unsigned a = 0; a < 256; a += 13) {
    for (unsigned b = 0; b < 256; b += 17) {
      for (unsigned c = 0; c < 256; c += 19) {
        auto x = static_cast<std::uint8_t>(a);
        auto y = static_cast<std::uint8_t>(b);
        auto z = static_cast<std::uint8_t>(c);
        EXPECT_EQ(mul(x, add(y, z)), add(mul(x, y), mul(x, z)));
      }
    }
  }
}

TEST(Gf256, InverseRoundTrip) {
  for (unsigned a = 1; a < 256; ++a) {
    auto v = static_cast<std::uint8_t>(a);
    EXPECT_EQ(mul(v, inv(v)), 1) << "a=" << a;
  }
}

TEST(Gf256, PowMatchesRepeatedMul) {
  for (unsigned a = 2; a < 256; a += 23) {
    auto v = static_cast<std::uint8_t>(a);
    std::uint8_t acc = 1;
    for (unsigned e = 0; e < 20; ++e) {
      EXPECT_EQ(pow(v, e), acc) << "a=" << a << " e=" << e;
      acc = mul(acc, v);
    }
  }
}

TEST(Gf256, PowZeroAndOne) {
  EXPECT_EQ(pow(0, 0), 1);  // convention: x^0 == 1
  EXPECT_EQ(pow(0, 5), 0);
  EXPECT_EQ(pow(1, 200), 1);
}

TEST(Gf256, GeneratorHasFullOrder) {
  // alpha = 2 must generate the whole multiplicative group.
  std::vector<bool> seen(256, false);
  std::uint8_t x = 1;
  for (unsigned i = 0; i < kGroupOrder; ++i) {
    EXPECT_FALSE(seen[x]) << "cycle shorter than 255 at " << i;
    seen[x] = true;
    x = mul(x, 2);
  }
  EXPECT_EQ(x, 1);  // full cycle returns to 1
}

class RegionOpTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RegionOpTest, MulAddMatchesScalar) {
  std::size_t n = GetParam();
  std::vector<std::uint8_t> src(n), dst(n), expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = static_cast<std::uint8_t>(i * 7 + 3);
    dst[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  for (std::uint8_t c : {0, 1, 2, 37, 255}) {
    auto d = dst;
    expected = dst;
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] = add(expected[i], mul(c, src[i]));
    }
    region_mul_add(c, src, d);
    EXPECT_EQ(d, expected) << "c=" << unsigned(c) << " n=" << n;
  }
}

TEST_P(RegionOpTest, MulMatchesScalar) {
  std::size_t n = GetParam();
  std::vector<std::uint8_t> src(n), dst(n, 0xEE), expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = static_cast<std::uint8_t>(i * 11 + 1);
  }
  for (std::uint8_t c : {0, 1, 9, 254}) {
    for (std::size_t i = 0; i < n; ++i) expected[i] = mul(c, src[i]);
    region_mul(c, src, dst);
    EXPECT_EQ(dst, expected);
  }
}

TEST_P(RegionOpTest, XorMatchesScalar) {
  std::size_t n = GetParam();
  std::vector<std::uint8_t> src(n), dst(n), expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = static_cast<std::uint8_t>(i + 9);
    dst[i] = static_cast<std::uint8_t>(i * 3);
    expected[i] = dst[i] ^ src[i];
  }
  region_xor(src, dst);
  EXPECT_EQ(dst, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RegionOpTest,
                         ::testing::Values(0, 1, 3, 7, 8, 9, 15, 16, 63,
                                           64, 100, 1024, 4097));

TEST(Gf256, RegionMulAddZeroCoefficientIsNoop) {
  std::vector<std::uint8_t> src(64, 0xAA), dst(64, 0x55);
  auto before = dst;
  region_mul_add(0, src, dst);
  EXPECT_EQ(dst, before);
}

}  // namespace
}  // namespace corec::gf
