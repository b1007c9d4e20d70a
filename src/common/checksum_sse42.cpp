// SSE4.2 CRC32C kernel. Compiled with -msse4.2 (this file only) and
// reached only after a CPUID check in checksum.cpp.
//
// The CRC32 instruction has a 3-cycle latency but issues once per
// cycle, so one dependent chain runs at a third of its throughput. The
// kernel splits each block into three equal lanes, runs one chain per
// lane, and folds the lanes back together with "append N zero bytes"
// operators: for a raw (un-inverted) CRC register,
//
//   crc(s, A || B) = shift_|B|(crc(s, A)) ^ crc(0, B)
//
// where shift_n multiplies the register by x^(8n) mod P. shift_n is
// linear over GF(2), so it is four 256-entry lookups, one per register
// byte. Two block sizes (3 x 8 KiB, then 3 x 256 B) keep the fold cost
// small next to the bytes it covers for both long and short buffers.
#include <nmmintrin.h>

#include <cstring>

#include "common/checksum_kernels.hpp"

namespace corec::detail {
namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected CRC32C
constexpr std::size_t kLongLane = 8192;
constexpr std::size_t kShortLane = 256;

// Polynomials mod P in the reflected order the CRC register uses: bit
// 31 holds the x^0 coefficient, bit 0 holds x^31.
constexpr std::uint32_t mul_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (int i = 0; i < 32; ++i) {
    if (a & (0x80000000u >> i)) product ^= b;  // a has an x^i term
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;  // b *= x
  }
  return product;
}

/// x^n mod P, by square-and-multiply.
constexpr std::uint32_t x_pow_mod_p(std::uint64_t n) {
  std::uint32_t result = 0x80000000u;  // 1
  std::uint32_t square = 0x40000000u;  // x
  for (; n != 0; n >>= 1) {
    if (n & 1u) result = mul_mod_p(result, square);
    square = mul_mod_p(square, square);
  }
  return result;
}

/// shift_n as byte-indexed tables: entry [j][b] is shift_n applied to
/// byte value b sitting in register byte j.
struct ShiftTable {
  std::uint32_t t[4][256];
};

constexpr ShiftTable make_shift_table(std::size_t zero_bytes) {
  const std::uint32_t xn = x_pow_mod_p(8 * std::uint64_t{zero_bytes});
  ShiftTable st{};
  for (int j = 0; j < 4; ++j) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      st.t[j][b] = mul_mod_p(xn, b << (8 * j));
    }
  }
  return st;
}

constexpr ShiftTable kLongShift = make_shift_table(kLongLane);
constexpr ShiftTable kShortShift = make_shift_table(kShortLane);

inline std::uint32_t shift(const ShiftTable& st, std::uint32_t crc) {
  return st.t[0][crc & 0xffu] ^ st.t[1][(crc >> 8) & 0xffu] ^
         st.t[2][(crc >> 16) & 0xffu] ^ st.t[3][crc >> 24];
}

inline std::uint32_t step8(std::uint32_t crc, const std::uint8_t* p) {
#if defined(__x86_64__)
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  return static_cast<std::uint32_t>(_mm_crc32_u64(crc, word));
#else
  std::uint32_t lo, hi;
  std::memcpy(&lo, p, 4);
  std::memcpy(&hi, p + 4, 4);
  return _mm_crc32_u32(_mm_crc32_u32(crc, lo), hi);
#endif
}

/// Consumes whole 3 x `lane` blocks from (data, len) into `crc`.
template <std::size_t lane>
std::uint32_t three_lanes(std::uint32_t crc, const ShiftTable& st,
                          const std::uint8_t*& data, std::size_t& len) {
  while (len >= 3 * lane) {
    std::uint32_t crc1 = 0;
    std::uint32_t crc2 = 0;
    for (std::size_t i = 0; i < lane; i += 8) {
      crc = step8(crc, data + i);
      crc1 = step8(crc1, data + lane + i);
      crc2 = step8(crc2, data + 2 * lane + i);
    }
    crc = shift(st, crc) ^ crc1;
    crc = shift(st, crc) ^ crc2;
    data += 3 * lane;
    len -= 3 * lane;
  }
  return crc;
}

std::uint32_t crc32c_sse42(const std::uint8_t* data, std::size_t len,
                           std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(data) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *data++);
    --len;
  }
  crc = three_lanes<kLongLane>(crc, kLongShift, data, len);
  crc = three_lanes<kShortLane>(crc, kShortShift, data, len);
  for (; len >= 8; data += 8, len -= 8) crc = step8(crc, data);
  while (len-- > 0) crc = _mm_crc32_u8(crc, *data++);
  return ~crc;
}

constexpr Crc32cKernel kSse42Kernel = {"sse42", crc32c_sse42};

}  // namespace

const Crc32cKernel& sse42_crc32c_kernel() { return kSse42Kernel; }

}  // namespace corec::detail
