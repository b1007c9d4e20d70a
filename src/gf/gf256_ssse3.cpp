// SSSE3 split-nibble GF(2^8) region kernels (PSHUFB, 16 B/iteration).
// Compiled with -mssse3; reached only after the dispatcher's CPUID
// check (see gf256_simd.cpp).
#include <cstddef>
#include <cstdint>
#include <tmmintrin.h>

#include "gf/gf256_simd.hpp"

namespace corec::gf::detail {
namespace {

/// Product of one 16-byte lane: (tl, th) are the coefficient's nibble
/// tables; returns c * s per byte.
inline __m128i mul_lane(__m128i tl, __m128i th, __m128i mask, __m128i s) {
  __m128i lo = _mm_and_si128(s, mask);
  __m128i hi = _mm_and_si128(_mm_srli_epi64(s, 4), mask);
  return _mm_xor_si128(_mm_shuffle_epi8(tl, lo), _mm_shuffle_epi8(th, hi));
}

void mul_add_ssse3(std::uint8_t c, const std::uint8_t* src,
                   std::uint8_t* dst, std::size_t n) {
  if (c == 0) return;
  const NibbleTables& t = nibble_tables();
  const __m128i tl =
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[c]));
  const __m128i th =
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[c]));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i d = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    d = _mm_xor_si128(d, mul_lane(tl, th, mask, s));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), d);
  }
  mul_add_nibble_tail(t, c, src + i, dst + i, n - i);
}

void mul_ssse3(std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
               std::size_t n) {
  const NibbleTables& t = nibble_tables();
  const __m128i tl =
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[c]));
  const __m128i th =
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[c]));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     mul_lane(tl, th, mask, s));
  }
  mul_nibble_tail(t, c, src + i, dst + i, n - i);
}

void xor_ssse3(const std::uint8_t* src, std::uint8_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i d = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, s));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void mul_multi_ssse3(const std::uint8_t* coeffs,
                     const std::uint8_t* const* srcs, std::size_t nsrc,
                     std::uint8_t* dst, std::size_t n) {
  const NibbleTables& t = nibble_tables();
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i acc = _mm_setzero_si128();
    for (std::size_t j = 0; j < nsrc; ++j) {
      const std::uint8_t c = coeffs[j];
      __m128i tl =
          _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[c]));
      __m128i th =
          _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[c]));
      __m128i s = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(srcs[j] + i));
      acc = _mm_xor_si128(acc, mul_lane(tl, th, mask, s));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), acc);
  }
  if (i < n) {
    std::size_t rem = n - i;
    mul_nibble_tail(t, coeffs[0], srcs[0] + i, dst + i, rem);
    for (std::size_t j = 1; j < nsrc; ++j) {
      mul_add_nibble_tail(t, coeffs[j], srcs[j] + i, dst + i, rem);
    }
  }
}

constexpr Kernels kSsse3Kernels = {"ssse3", mul_add_ssse3, mul_ssse3,
                                   xor_ssse3, mul_multi_ssse3};

}  // namespace

const Kernels& ssse3_kernels() { return kSsse3Kernels; }

}  // namespace corec::gf::detail
