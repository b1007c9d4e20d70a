#include "common/checksum.hpp"

#include "common/checksum_kernels.hpp"

namespace corec {
namespace detail {

// Defined in checksum_sse42.cpp when the build compiles it (per-file
// -msse4.2; see src/common/CMakeLists.txt). Only ever called after a
// CPUID check.
#if COREC_CRC_HAVE_SSE42
const Crc32cKernel& sse42_crc32c_kernel();
#endif

namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected CRC32C

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
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
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

constexpr Crc32cKernel kPortableKernel = {"portable", crc32c_portable};

bool cpu_has_sse42() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

}  // namespace

const Crc32cKernel* crc32c_kernel_by_name(std::string_view name) {
  if (name == "portable") return &kPortableKernel;
#if COREC_CRC_HAVE_SSE42
  if (name == "sse42" && cpu_has_sse42()) return &sse42_crc32c_kernel();
#endif
  return nullptr;
}

std::vector<const Crc32cKernel*> crc32c_available_kernels() {
  std::vector<const Crc32cKernel*> out{&kPortableKernel};
  if (const Crc32cKernel* hw = crc32c_kernel_by_name("sse42")) {
    out.push_back(hw);
  }
  return out;
}

const Crc32cKernel& crc32c_selected_kernel() {
  static const Crc32cKernel* const selected = [] {
    const Crc32cKernel* hw = crc32c_kernel_by_name("sse42");
    return hw != nullptr ? hw : &kPortableKernel;
  }();
  return *selected;
}

bool crc32c_sse42_compiled() {
#if COREC_CRC_HAVE_SSE42
  return true;
#else
  return false;
#endif
}

}  // namespace detail

std::uint32_t crc32c(const std::uint8_t* data, std::size_t len,
                     std::uint32_t seed) {
  return detail::crc32c_selected_kernel().fn(data, len, seed);
}

const char* crc32c_kernel_name() {
  return detail::crc32c_selected_kernel().name;
}

}  // namespace corec
