// GF(2^8) arithmetic over the AES/Rijndael-compatible field used by
// Reed-Solomon coding. Provides scalar ops backed by log/exp tables plus
// wide region operations (multiply-accumulate over buffers) that dominate
// encode/decode cost. This is our substitute for the Jerasure library's
// galois_* primitives. Region ops dispatch to the fastest kernel the CPU
// supports (AVX2/SSSE3 split-nibble PSHUFB or a portable table walk; see
// gf256_simd.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace corec::gf {

/// Primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the standard
/// choice for storage Reed-Solomon codes (matches Jerasure's GF(2^8)).
inline constexpr unsigned kPrimitivePoly = 0x11d;

/// Field order and multiplicative group order.
inline constexpr unsigned kFieldSize = 256;
inline constexpr unsigned kGroupOrder = 255;

namespace detail {

/// Compile-time construction of exp/log tables for generator alpha = 2.
struct Tables {
  std::array<std::uint8_t, 512> exp{};  // doubled to avoid mod in mul
  std::array<std::uint8_t, 256> log{};
  // mul[a][b] = a*b. 64 KiB dense product table backing the scalar
  // mul() and the portable region kernel; the SIMD kernels work from
  // the 8 KiB split-nibble tables instead (gf256_simd.hpp) and never
  // touch this table.
  std::array<std::array<std::uint8_t, 256>, 256> mul{};
  std::array<std::uint8_t, 256> inv{};

  constexpr Tables() {
    unsigned x = 1;
    for (unsigned i = 0; i < kGroupOrder; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= kPrimitivePoly;
    }
    for (unsigned i = kGroupOrder; i < 512; ++i) {
      exp[i] = exp[i - kGroupOrder];
    }
    log[0] = 0;  // undefined; guarded by callers
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        mul[a][b] =
            (a == 0 || b == 0)
                ? 0
                : exp[static_cast<unsigned>(log[a]) + log[b]];
      }
    }
    inv[0] = 0;  // undefined; guarded by callers
    for (unsigned a = 1; a < 256; ++a) {
      inv[a] = exp[kGroupOrder - log[a]];
    }
  }
};

const Tables& tables();

}  // namespace detail

/// Field addition (= subtraction) is XOR.
constexpr std::uint8_t add(std::uint8_t a, std::uint8_t b) {
  return a ^ b;
}

/// Field multiplication via the dense 256x256 table.
inline std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  return detail::tables().mul[a][b];
}

/// Multiplicative inverse. Precondition: a != 0.
std::uint8_t inv(std::uint8_t a);

/// Exponentiation a^e (e >= 0).
std::uint8_t pow(std::uint8_t a, unsigned e);

/// dst[i] ^= c * src[i] for all i. The Reed-Solomon inner loop;
/// dispatched to the selected SIMD/portable kernel.
void region_mul_add(std::uint8_t c, std::span<const std::uint8_t> src,
                    std::span<std::uint8_t> dst);

/// dst[i] = c * src[i] for all i.
void region_mul(std::uint8_t c, std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst);

/// dst[i] ^= src[i] for all i (the c == 1 fast path).
void region_xor(std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst);

/// Fused multi-source overwrite: dst[i] = sum_j coeffs[j]*srcs[j][i],
/// produced in a single pass over dst (no prior zero-fill needed).
/// Every srcs[j] must hold dst.size() readable bytes and must not
/// overlap dst. This is the Reed-Solomon parity row evaluated without
/// re-reading the parity buffer once per data block.
void region_mul_multi(const std::uint8_t* coeffs,
                      const std::uint8_t* const* srcs, std::size_t k,
                      std::span<std::uint8_t> dst);

}  // namespace corec::gf
