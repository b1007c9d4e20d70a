// Exhaustive cross-check of the table-driven GF(2^8) arithmetic against
// an independent bit-by-bit carry-less ("Russian peasant") reference
// implementation of multiplication modulo x^8+x^4+x^3+x^2+1. All 65536
// products are compared, plus the derived inverse/pow operations.
#include "gf/gf256.hpp"

#include <gtest/gtest.h>

namespace corec::gf {
namespace {

/// Reference multiply: shift-and-add with modular reduction, no tables.
std::uint8_t slow_mul(std::uint8_t a, std::uint8_t b) {
  unsigned acc = 0;
  unsigned aa = a;
  unsigned bb = b;
  while (bb) {
    if (bb & 1) acc ^= aa;
    aa <<= 1;
    if (aa & 0x100) aa ^= kPrimitivePoly;
    bb >>= 1;
  }
  return static_cast<std::uint8_t>(acc);
}

TEST(GfReference, AllProductsMatch) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      ASSERT_EQ(mul(static_cast<std::uint8_t>(a),
                    static_cast<std::uint8_t>(b)),
                slow_mul(static_cast<std::uint8_t>(a),
                         static_cast<std::uint8_t>(b)))
          << a << " * " << b;
    }
  }
}

TEST(GfReference, AllInversesMatch) {
  // inv(a) is the unique x with slow_mul(a, x) == 1.
  for (unsigned a = 1; a < 256; ++a) {
    EXPECT_EQ(slow_mul(static_cast<std::uint8_t>(a),
                       inv(static_cast<std::uint8_t>(a))),
              1)
        << a;
  }
}

TEST(GfReference, FrobeniusSquareIsLinear) {
  // In characteristic 2, (a + b)^2 == a^2 + b^2.
  for (unsigned a = 0; a < 256; a += 3) {
    for (unsigned b = 0; b < 256; b += 11) {
      auto x = static_cast<std::uint8_t>(a);
      auto y = static_cast<std::uint8_t>(b);
      EXPECT_EQ(pow(add(x, y), 2), add(pow(x, 2), pow(y, 2)));
    }
  }
}

TEST(GfReference, FermatLittleTheorem) {
  // a^255 == 1 for all nonzero a (multiplicative group order 255).
  for (unsigned a = 1; a < 256; ++a) {
    EXPECT_EQ(pow(static_cast<std::uint8_t>(a), 255), 1) << a;
  }
}

}  // namespace
}  // namespace corec::gf
