// AVX2 split-nibble GF(2^8) region kernels (VPSHUFB, 32 B/iteration).
// The 16-entry nibble tables are broadcast across both 128-bit lanes so
// one VPSHUFB performs 32 table lookups. Compiled with -mavx2; reached
// only after the dispatcher's CPUID check (see gf256_simd.cpp).
#include <cstddef>
#include <cstdint>
#include <immintrin.h>

#include "gf/gf256_simd.hpp"

namespace corec::gf::detail {
namespace {

inline __m256i load_table(const std::uint8_t (&row)[16]) {
  return _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(row)));
}

/// Product of one 32-byte lane: (tl, th) hold the coefficient's nibble
/// tables in both 128-bit halves; returns c * s per byte.
inline __m256i mul_lane(__m256i tl, __m256i th, __m256i mask, __m256i s) {
  __m256i lo = _mm256_and_si256(s, mask);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi64(s, 4), mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(tl, lo),
                          _mm256_shuffle_epi8(th, hi));
}

void mul_add_avx2(std::uint8_t c, const std::uint8_t* src,
                  std::uint8_t* dst, std::size_t n) {
  if (c == 0) return;
  const NibbleTables& t = nibble_tables();
  const __m256i tl = load_table(t.lo[c]);
  const __m256i th = load_table(t.hi[c]);
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    d = _mm256_xor_si256(d, mul_lane(tl, th, mask, s));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), d);
  }
  mul_add_nibble_tail(t, c, src + i, dst + i, n - i);
}

void mul_avx2(std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
              std::size_t n) {
  const NibbleTables& t = nibble_tables();
  const __m256i tl = load_table(t.lo[c]);
  const __m256i th = load_table(t.hi[c]);
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        mul_lane(tl, th, mask, s));
  }
  mul_nibble_tail(t, c, src + i, dst + i, n - i);
}

void xor_avx2(const std::uint8_t* src, std::uint8_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, s));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void mul_multi_avx2(const std::uint8_t* coeffs,
                    const std::uint8_t* const* srcs, std::size_t nsrc,
                    std::uint8_t* dst, std::size_t n) {
  const NibbleTables& t = nibble_tables();
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t j = 0; j < nsrc; ++j) {
      const std::uint8_t c = coeffs[j];
      __m256i s = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(srcs[j] + i));
      acc = _mm256_xor_si256(
          acc, mul_lane(load_table(t.lo[c]), load_table(t.hi[c]), mask, s));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc);
  }
  if (i < n) {
    std::size_t rem = n - i;
    mul_nibble_tail(t, coeffs[0], srcs[0] + i, dst + i, rem);
    for (std::size_t j = 1; j < nsrc; ++j) {
      mul_add_nibble_tail(t, coeffs[j], srcs[j] + i, dst + i, rem);
    }
  }
}

constexpr Kernels kAvx2Kernels = {"avx2", mul_add_avx2, mul_avx2,
                                  xor_avx2, mul_multi_avx2};

}  // namespace

const Kernels& avx2_kernels() { return kAvx2Kernels; }

}  // namespace corec::gf::detail
