// CRC32C kernel table behind corec::crc32c(). The dispatcher picks the
// best kernel the build compiled and CPUID reports support for:
//   vpclmul  - AVX-512 carry-less multiplies folding 256 B per step
//              (AVX512F, VPCLMULQDQ, SSE4.2, zmm state enabled by the OS);
//   sse42    - the hardware CRC32 instruction, three interleaved streams;
//   portable - the slice-by-8 table loop.
// All compute the same function bit for bit, and each has a copying
// form behind corec::crc32c_copy(); tests and benchmarks reach each
// kernel directly through here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace corec::detail {

inline constexpr std::uint32_t kCrc32cPoly = 0x82f63b78u;  // reflected

// Polynomial arithmetic mod P, shared by the SSE4.2 kernel's lane folds,
// the VPCLMULQDQ kernel's fold constants and crc32c_combine().
// Polynomials are held in the reflected order the CRC register uses:
// bit 31 holds the x^0 coefficient, bit 0 holds x^31.
constexpr std::uint32_t mul_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (int i = 0; i < 32; ++i) {
    if (a & (0x80000000u >> i)) product ^= b;  // a has an x^i term
    b = (b & 1u) ? (b >> 1) ^ kCrc32cPoly : b >> 1;  // b *= x
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

using Crc32cFn = std::uint32_t (*)(const std::uint8_t* data,
                                   std::size_t len, std::uint32_t seed);

using Crc32cCopyFn = std::uint32_t (*)(std::uint8_t* dst,
                                       const std::uint8_t* src,
                                       std::size_t len, std::uint32_t seed);

struct Crc32cKernel {
  const char* name;   // "portable", "sse42" or "vpclmul"
  Crc32cFn fn;        // same contract as corec::crc32c
  Crc32cCopyFn copy;  // same contract as corec::crc32c_copy
};

/// The kernel crc32c() dispatches to (resolved once on first use).
const Crc32cKernel& crc32c_selected_kernel();

/// Kernel lookup by name; nullptr when the kernel is not compiled into
/// this build or not supported by the running CPU.
const Crc32cKernel* crc32c_kernel_by_name(std::string_view name);

/// Every kernel this build can run on this CPU, slowest (portable)
/// first; the last is the one crc32c() dispatches to.
std::vector<const Crc32cKernel*> crc32c_available_kernels();

/// True when the build compiled the named kernel ("sse42": x86 with a
/// compiler that accepts -msse4.2; "vpclmul": x86-64 with a compiler
/// that accepts AVX-512 VPCLMULQDQ), whatever the running CPU supports.
bool crc32c_kernel_compiled(std::string_view name);

}  // namespace corec::detail
