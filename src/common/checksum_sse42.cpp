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
#include <emmintrin.h>
#include <nmmintrin.h>

#include <cstring>

#include "common/checksum_kernels.hpp"

namespace corec::detail {
namespace {

constexpr std::size_t kLongLane = 8192;
constexpr std::size_t kShortLane = 256;

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

// A CRC chain register. On x86-64 it is 64 bits wide: _mm_crc32_u64
// zero-extends its result, and keeping the chain in 64 bits saves a
// truncating move per step on the chain's critical path.
#if defined(__x86_64__)
using Reg = std::uint64_t;
#else
using Reg = std::uint32_t;
#endif

inline Reg step8(Reg crc, const std::uint8_t* p) {
#if defined(__x86_64__)
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  return _mm_crc32_u64(crc, word);
#else
  std::uint32_t lo, hi;
  std::memcpy(&lo, p, 4);
  std::memcpy(&hi, p + 4, 4);
  return _mm_crc32_u32(_mm_crc32_u32(crc, lo), hi);
#endif
}

/// Consumes whole 3 x `lane` blocks from (data, len) into `crc`. The
/// copying kernel first moves each lane's next 16 bytes to dst with one
/// vector load and store, then checksums the bytes it wrote while they
/// are in L1, and advances `dst` too. One vector store per 16 bytes is
/// much faster than storing each 8-byte CRC word from its register.
/// All three lanes are stored before any is checksummed: with each
/// CRC right after its own store, GCC forwards the stored vector
/// through movq/pextrq, which is slower than crc32 from memory.
template <std::size_t lane, bool kCopy>
std::uint32_t three_lanes(std::uint32_t crc, const ShiftTable& st,
                          const std::uint8_t*& data, std::uint8_t*& dst,
                          std::size_t& len) {
  while (len >= 3 * lane) {
    const std::uint8_t* words = data;
    if constexpr (kCopy) words = dst;
    Reg crc0 = crc;
    Reg crc1 = 0;
    Reg crc2 = 0;
    for (std::size_t i = 0; i < lane; i += 16) {
      if constexpr (kCopy) {
        for (std::size_t at = i; at < 3 * lane; at += lane) {
          _mm_storeu_si128(
              reinterpret_cast<__m128i*>(dst + at),
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + at)));
        }
      }
      crc0 = step8(step8(crc0, words + i), words + i + 8);
      crc1 = step8(step8(crc1, words + lane + i), words + lane + i + 8);
      crc2 = step8(step8(crc2, words + 2 * lane + i),
                   words + 2 * lane + i + 8);
    }
    crc = shift(st, static_cast<std::uint32_t>(crc0)) ^
          static_cast<std::uint32_t>(crc1);
    crc = shift(st, crc) ^ static_cast<std::uint32_t>(crc2);
    data += 3 * lane;
    if constexpr (kCopy) dst += 3 * lane;
    len -= 3 * lane;
  }
  return crc;
}

/// CRC32C of (data, len) from `seed`; with kCopy, also copies the bytes
/// to `dst` in the same pass (`dst` is unused otherwise).
template <bool kCopy>
std::uint32_t crc32c_sse42_pass(std::uint8_t* dst, const std::uint8_t* data,
                                std::size_t len, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  auto step1 = [&] {
    const std::uint8_t byte = *data++;
    if constexpr (kCopy) *dst++ = byte;
    crc = _mm_crc32_u8(crc, byte);
    --len;
  };
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(data) & 7u) != 0) {
    step1();
  }
  crc = three_lanes<kLongLane, kCopy>(crc, kLongShift, data, dst, len);
  crc = three_lanes<kShortLane, kCopy>(crc, kShortShift, data, dst, len);
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint8_t* word = data;
    if constexpr (kCopy) {
      std::memcpy(dst, data, 8);
      word = dst;
      dst += 8;
    }
    crc = static_cast<std::uint32_t>(step8(crc, word));
  }
  while (len > 0) step1();
  return ~crc;
}

std::uint32_t crc32c_sse42(const std::uint8_t* data, std::size_t len,
                           std::uint32_t seed) {
  return crc32c_sse42_pass<false>(nullptr, data, len, seed);
}

std::uint32_t crc32c_copy_sse42(std::uint8_t* dst, const std::uint8_t* src,
                                std::size_t len, std::uint32_t seed) {
  return crc32c_sse42_pass<true>(dst, src, len, seed);
}

constexpr Crc32cKernel kSse42Kernel = {"sse42", crc32c_sse42,
                                       crc32c_copy_sse42};

}  // namespace

const Crc32cKernel& sse42_crc32c_kernel() { return kSse42Kernel; }

}  // namespace corec::detail
