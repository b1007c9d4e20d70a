#include "common/checksum.hpp"

#include <cstring>

#if COREC_CRC_HAVE_VPCLMUL
#include <cpuid.h>
#endif

#include "common/checksum_kernels.hpp"

namespace corec {
namespace detail {

// Defined in checksum_sse42.cpp and checksum_vpclmul.cpp when the build
// compiles them (see src/common/CMakeLists.txt). Only ever called after
// a CPUID check.
#if COREC_CRC_HAVE_SSE42
const Crc32cKernel& sse42_crc32c_kernel();
#endif
#if COREC_CRC_HAVE_VPCLMUL
const Crc32cKernel& vpclmul_crc32c_kernel();
#endif

namespace {

// Slice-by-8 lookup tables: table[0] is the classic byte-at-a-time
// table; table[j] folds a byte that sits j positions deeper into the
// running CRC, letting the hot loop consume 8 bytes per iteration with
// no data dependency between the table lookups.
struct Tables {
  std::uint32_t t[8][256];
};

Tables make_tables() {
  Tables tb{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
    }
    tb.t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tb.t[0][i];
    for (int j = 1; j < 8; ++j) {
      crc = (crc >> 8) ^ tb.t[0][crc & 0xffu];
      tb.t[j][i] = crc;
    }
  }
  return tb;
}

const Tables& tables() {
  static const Tables tb = make_tables();
  return tb;
}

std::uint32_t crc32c_portable(const std::uint8_t* data, std::size_t len,
                              std::uint32_t seed) {
  const Tables& tb = tables();
  std::uint32_t crc = ~seed;
  while (len >= 8) {
    std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(data[0]) |
                              static_cast<std::uint32_t>(data[1]) << 8 |
                              static_cast<std::uint32_t>(data[2]) << 16 |
                              static_cast<std::uint32_t>(data[3]) << 24);
    crc = tb.t[7][lo & 0xffu] ^ tb.t[6][(lo >> 8) & 0xffu] ^
          tb.t[5][(lo >> 16) & 0xffu] ^ tb.t[4][lo >> 24] ^
          tb.t[3][data[4]] ^ tb.t[2][data[5]] ^ tb.t[1][data[6]] ^
          tb.t[0][data[7]];
    data += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *data++) & 0xffu];
  }
  return ~crc;
}

std::uint32_t crc32c_copy_portable(std::uint8_t* dst,
                                   const std::uint8_t* src,
                                   std::size_t len, std::uint32_t seed) {
  if (len != 0) std::memcpy(dst, src, len);
  return crc32c_portable(src, len, seed);
}

constexpr Crc32cKernel kPortableKernel = {"portable", crc32c_portable,
                                          crc32c_copy_portable};

bool cpu_has_sse42() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

#if COREC_CRC_HAVE_VPCLMUL
/// SSE4.2, AVX512F and VPCLMULQDQ in CPUID, and an OS that saves the
/// opmask and full zmm registers on a context switch (XCR0 bits 1, 2
/// and 5-7).
bool cpu_has_vpclmul() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || !(ecx & bit_OSXSAVE) ||
      !(ecx & bit_SSE4_2)) {
    return false;
  }
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) ||
      !(ebx & bit_AVX512F) || !(ecx & bit_VPCLMULQDQ)) {
    return false;
  }
  std::uint32_t xcr0 = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_hi) : "c"(0));
  return (xcr0 & 0xe6u) == 0xe6u;
}
#endif

// Hardware kernels, slowest first; the dispatcher takes the last one
// the CPU runs.
constexpr const char* kHardwareKernels[] = {"sse42", "vpclmul"};

}  // namespace

const Crc32cKernel* crc32c_kernel_by_name(std::string_view name) {
  if (name == "portable") return &kPortableKernel;
#if COREC_CRC_HAVE_SSE42
  if (name == "sse42" && cpu_has_sse42()) return &sse42_crc32c_kernel();
#endif
#if COREC_CRC_HAVE_VPCLMUL
  if (name == "vpclmul" && cpu_has_vpclmul()) return &vpclmul_crc32c_kernel();
#endif
  return nullptr;
}

std::vector<const Crc32cKernel*> crc32c_available_kernels() {
  std::vector<const Crc32cKernel*> out{&kPortableKernel};
  for (const char* name : kHardwareKernels) {
    if (const Crc32cKernel* hw = crc32c_kernel_by_name(name)) {
      out.push_back(hw);
    }
  }
  return out;
}

const Crc32cKernel& crc32c_selected_kernel() {
  static const Crc32cKernel* const selected =
      crc32c_available_kernels().back();
  return *selected;
}

bool crc32c_kernel_compiled(std::string_view name) {
  if (name == "portable") return true;
#if COREC_CRC_HAVE_SSE42
  if (name == "sse42") return true;
#endif
#if COREC_CRC_HAVE_VPCLMUL
  if (name == "vpclmul") return true;
#endif
  return false;
}

}  // namespace detail

std::uint32_t crc32c(const std::uint8_t* data, std::size_t len,
                     std::uint32_t seed) {
  return detail::crc32c_selected_kernel().fn(data, len, seed);
}

std::uint32_t crc32c_copy(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t len, std::uint32_t seed) {
  return detail::crc32c_selected_kernel().copy(dst, src, len, seed);
}

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::size_t len_b) {
  // crc(A || B) = crc(A) * x^(8|B|) mod P  xor  crc(B): the inversions
  // crc32c() applies on entry and exit cancel in the xor.
  const std::uint32_t shift = detail::x_pow_mod_p(8 * std::uint64_t{len_b});
  return detail::mul_mod_p(shift, crc_a) ^ crc_b;
}

const char* crc32c_kernel_name() {
  return detail::crc32c_selected_kernel().name;
}

}  // namespace corec
