// AVX-512 VPCLMULQDQ CRC32C kernel, reached only after the CPUID check
// in checksum.cpp. The file is compiled with the default arch: only the
// functions below marked COREC_VPCLMUL_TARGET may use AVX-512, so no inline
// function this file shares with other files (a COMDAT copy the linker
// may keep) is ever compiled with AVX-512 encodings.
//
// Folding, after Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009). A 16-byte lane
// A = (lo, hi) read from the stream stands for A(x) = lo(x) x^64 + hi(x),
// both qwords in the reflected order. Moving it d bytes further down the
// stream multiplies it by x^(8d). A reflected 64 x 64 carry-less product
// of a qword q with a constant c held in its low 32 bits is worth
// q(x) c(x) x^33 as a 16-byte lane, so
//
//   fold_d(A) = clmul(lo, x^(8d+31) mod P) ^ clmul(hi, x^(8d-33) mod P)
//
// is congruent to A(x) x^(8d) mod P and fits in the lane (95 bits). The
// main loop keeps four zmm accumulators (16 lanes, 256 B) and folds each
// by 256 bytes onto the next 256 bytes; then one accumulator takes the
// rest 64 bytes at a time. At the end its four lanes are folded straight
// onto the last one, and two CRC32 instructions turn that
// 128-bit value into the CRC register: crc32(crc32(0, lo), hi) is
// (lo(x) x^64 + hi(x)) x^32 mod P. Heads up to 64-byte alignment, tails
// under 64 bytes and inputs under 512 bytes go through the SSE4.2
// kernel with the seed chained.
#include <immintrin.h>

#include <cstdint>

#include "common/checksum_kernels.hpp"

namespace corec::detail {

const Crc32cKernel& sse42_crc32c_kernel();

namespace {

#define COREC_VPCLMUL_TARGET __attribute__((target("avx512f,vpclmulqdq")))

constexpr std::size_t kBlock = 256;  // four zmm accumulators
constexpr std::size_t kMinLen = 2 * kBlock;
// Lines are touched 4 KiB ahead of the fold: from DRAM the hardware
// prefetcher alone leaves the kernel slower than SSE4.2's.
constexpr std::size_t kPrefetchAhead = 4096;

/// The (lo, hi) qword constants that fold a lane forward by `d` bytes;
/// d == 0 gives zeros, for the lane the others are folded onto.
struct FoldPair {
  std::uint64_t lo;
  std::uint64_t hi;
};

constexpr FoldPair fold_pair(std::size_t d) {
  if (d == 0) return {0, 0};
  return {x_pow_mod_p(8 * std::uint64_t{d} + 31),
          x_pow_mod_p(8 * std::uint64_t{d} - 33)};
}

/// One zmm worth of constants: a pair per 128-bit lane.
struct alignas(64) ZmmFolds {
  FoldPair lane[4];
};

constexpr ZmmFolds broadcast(FoldPair p) { return {{p, p, p, p}}; }

constexpr ZmmFolds kFold256 = broadcast(fold_pair(kBlock));
constexpr ZmmFolds kFold64 = broadcast(fold_pair(64));
// Lane j of one zmm sits 16 * (3 - j) bytes before its last lane.
constexpr ZmmFolds kFoldLanes = {
    {fold_pair(48), fold_pair(32), fold_pair(16), fold_pair(0)}};

COREC_VPCLMUL_TARGET inline __m512i fold(__m512i acc, __m512i k,
                                         __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, k, 0x00),
                                   _mm512_clmulepi64_epi128(acc, k, 0x11),
                                   next, 0x96);  // a ^ b ^ c
}

/// The 64 B at src + at; with kCopy, also stored to dst + at.
template <bool kCopy>
COREC_VPCLMUL_TARGET inline __m512i load64(std::uint8_t* dst,
                                           const std::uint8_t* src,
                                           std::size_t at) {
  const __m512i v = _mm512_load_si512(src + at);
  if constexpr (kCopy) _mm512_storeu_si512(dst + at, v);
  return v;
}

/// The SSE4.2 kernel over (src, len) from `seed`, copying with kCopy.
template <bool kCopy>
std::uint32_t sse42_pass(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t len, std::uint32_t seed) {
  const Crc32cKernel& k = sse42_crc32c_kernel();
  return kCopy ? k.copy(dst, src, len, seed) : k.fn(src, len, seed);
}

/// CRC32C of (src, len) from `seed`; with kCopy, also copies the bytes
/// to `dst` in the same pass (`dst` is unused otherwise).
template <bool kCopy>
COREC_VPCLMUL_TARGET std::uint32_t vpclmul_pass(std::uint8_t* dst,
                                                const std::uint8_t* src,
                                                std::size_t len,
                                                std::uint32_t seed) {
  if (len < kMinLen) return sse42_pass<kCopy>(dst, src, len, seed);
  const std::size_t head = -reinterpret_cast<std::uintptr_t>(src) & 63u;
  if (head != 0) {
    seed = sse42_pass<kCopy>(dst, src, head, seed);
    src += head;
    if constexpr (kCopy) dst += head;
    len -= head;
  }
  // Four named accumulators: as an array, GCC at -O2 keeps them in
  // memory. The inverted seed enters as an xor over the first four bytes.
  __m512i x0 =
      _mm512_xor_si512(load64<kCopy>(dst, src, 0),
                       _mm512_maskz_set1_epi32(1, static_cast<int>(~seed)));
  __m512i x1 = load64<kCopy>(dst, src, 64);
  __m512i x2 = load64<kCopy>(dst, src, 128);
  __m512i x3 = load64<kCopy>(dst, src, 192);
  src += kBlock;
  if constexpr (kCopy) dst += kBlock;
  len -= kBlock;

  const __m512i k256 = _mm512_load_si512(&kFold256);
  for (; len >= kBlock; src += kBlock, len -= kBlock) {
    for (std::size_t line = 0; line < kBlock; line += 64) {
      _mm_prefetch(
          reinterpret_cast<const char*>(src) + kPrefetchAhead + line,
          _MM_HINT_T0);
    }
    x0 = fold(x0, k256, load64<kCopy>(dst, src, 0));
    x1 = fold(x1, k256, load64<kCopy>(dst, src, 64));
    x2 = fold(x2, k256, load64<kCopy>(dst, src, 128));
    x3 = fold(x3, k256, load64<kCopy>(dst, src, 192));
    if constexpr (kCopy) dst += kBlock;
  }

  // Fold the four accumulators into one, then the rest 64 B at a time.
  const __m512i k64 = _mm512_load_si512(&kFold64);
  __m512i x = fold(fold(fold(x0, k64, x1), k64, x2), k64, x3);
  for (; len >= 64; src += 64, len -= 64) {
    x = fold(x, k64, load64<kCopy>(dst, src, 0));
    if constexpr (kCopy) dst += 64;
  }

  // Fold all four lanes onto the last one (its own constants are zero,
  // so it is added back as it is), then xor the four 128-bit lanes.
  const __m512i sum = fold(x, _mm512_load_si512(&kFoldLanes),
                           _mm512_maskz_mov_epi64(0xC0, x));
  alignas(64) std::uint64_t q[8];
  _mm512_store_si512(q, sum);
  std::uint64_t crc = _mm_crc32_u64(0, q[0] ^ q[2] ^ q[4] ^ q[6]);
  crc = _mm_crc32_u64(crc, q[1] ^ q[3] ^ q[5] ^ q[7]);
  return sse42_pass<kCopy>(dst, src, len, ~static_cast<std::uint32_t>(crc));
}

std::uint32_t crc32c_vpclmul(const std::uint8_t* data, std::size_t len,
                             std::uint32_t seed) {
  return vpclmul_pass<false>(nullptr, data, len, seed);
}

std::uint32_t crc32c_copy_vpclmul(std::uint8_t* dst, const std::uint8_t* src,
                                  std::size_t len, std::uint32_t seed) {
  return vpclmul_pass<true>(dst, src, len, seed);
}

constexpr Crc32cKernel kVpclmulKernel = {"vpclmul", crc32c_vpclmul,
                                         crc32c_copy_vpclmul};

}  // namespace

const Crc32cKernel& vpclmul_crc32c_kernel() { return kVpclmulKernel; }

}  // namespace corec::detail
