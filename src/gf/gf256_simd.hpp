// Vectorized GF(2^8) kernel layer with runtime CPU dispatch.
//
// Region operations (the Reed-Solomon inner loops) are routed through a
// kernel vtable selected once at startup: AVX2 (VPSHUFB, 32 B/iter) >
// SSSE3 (PSHUFB, 16 B/iter) > portable 64-bit scalar. The SIMD kernels
// use the split-nibble technique: for a coefficient c, the products
// c*x factor through the two 16-entry tables
//
//   lo[c][i] = c * i          (products of the low nibble)
//   hi[c][i] = c * (i << 4)   (products of the high nibble)
//
// and c*b = lo[c][b & 0xF] ^ hi[c][b >> 4] because multiplication by c
// is linear over GF(2). PSHUFB evaluates 16 (VPSHUFB: 32) such table
// lookups per instruction. The full table set is 256 coefficients x
// 2 x 16 B = 8 KiB — it fits in L1, unlike the 64 KiB dense product
// table the portable path walks.
//
// Selection can be forced with COREC_GF_KERNEL=portable|ssse3|avx2
// (falls back to the best supported kernel, with a warning, if the
// requested one is unavailable on this CPU/build).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace corec::gf {

/// Dispatch table of region kernels. All functions tolerate n == 0 and
/// arbitrary (mis)alignment of src/dst; src and dst must not overlap.
struct Kernels {
  const char* name;

  /// dst[i] ^= c * src[i].
  void (*mul_add)(std::uint8_t c, const std::uint8_t* src,
                  std::uint8_t* dst, std::size_t n);

  /// dst[i] = c * src[i].
  void (*mul)(std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
              std::size_t n);

  /// dst[i] ^= src[i].
  void (*xor_into)(const std::uint8_t* src, std::uint8_t* dst,
                   std::size_t n);

  /// Fused multi-source overwrite: dst[i] = sum_j coeffs[j] * srcs[j][i],
  /// one pass over dst per call. Callers guarantee nsrc >= 1 and every
  /// coeffs[j] != 0.
  void (*mul_multi)(const std::uint8_t* coeffs,
                    const std::uint8_t* const* srcs, std::size_t nsrc,
                    std::uint8_t* dst, std::size_t n);
};

/// The kernel table selected for this process (CPUID + COREC_GF_KERNEL
/// override, resolved once on first use).
const Kernels& kernels();

/// Name of the selected kernel: "portable", "ssse3" or "avx2".
const char* kernel_name();

namespace detail {

/// Split-nibble product tables (8 KiB): lo[c][i] = c*i,
/// hi[c][i] = c*(i<<4). 16-byte row alignment for direct SIMD loads.
struct NibbleTables {
  alignas(16) std::uint8_t lo[256][16];
  alignas(16) std::uint8_t hi[256][16];
};

const NibbleTables& nibble_tables();

/// Scalar split-nibble tail used by the SIMD kernels for the last
/// sub-vector bytes (keeps the dense 64 KiB table out of their
/// working set).
inline void mul_add_nibble_tail(const NibbleTables& t, std::uint8_t c,
                                const std::uint8_t* src, std::uint8_t* dst,
                                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] ^= t.lo[c][src[i] & 0x0f] ^ t.hi[c][src[i] >> 4];
  }
}

inline void mul_nibble_tail(const NibbleTables& t, std::uint8_t c,
                            const std::uint8_t* src, std::uint8_t* dst,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = t.lo[c][src[i] & 0x0f] ^ t.hi[c][src[i] >> 4];
  }
}

/// Kernel lookup by name; nullptr when the kernel is not compiled into
/// this build or not supported by the running CPU.
const Kernels* kernel_by_name(std::string_view name);

/// Every kernel this build can run on this CPU (portable always
/// included). For differential tests and per-kernel benchmarks.
std::vector<const Kernels*> available_kernels();

/// Test hook: force the dispatched kernel table (nullptr restores
/// normal dispatch). Not thread-safe against concurrent region ops.
void override_kernels(const Kernels* k);

}  // namespace detail
}  // namespace corec::gf
