#include "gf/gf256_simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "gf/gf256.hpp"

namespace corec::gf {
namespace detail {

// Defined in gf256_ssse3.cpp / gf256_avx2.cpp when the build compiles
// them (per-file -mssse3 / -mavx2; see src/gf/CMakeLists.txt). Only
// ever called after a CPUID check.
#if COREC_GF_HAVE_SSSE3
const Kernels& ssse3_kernels();
#endif
#if COREC_GF_HAVE_AVX2
const Kernels& avx2_kernels();
#endif

namespace {

/// Table-free multiply (shift-and-reduce); constexpr so the nibble
/// tables are built at compile time.
constexpr std::uint8_t cmul(unsigned a, unsigned b) {
  unsigned acc = 0;
  while (b) {
    if (b & 1) acc ^= a;
    a <<= 1;
    if (a & 0x100) a ^= kPrimitivePoly;
    b >>= 1;
  }
  return static_cast<std::uint8_t>(acc);
}

constexpr NibbleTables make_nibble_tables() {
  NibbleTables t{};
  for (unsigned c = 0; c < 256; ++c) {
    for (unsigned i = 0; i < 16; ++i) {
      t.lo[c][i] = cmul(c, i);
      t.hi[c][i] = cmul(c, i << 4);
    }
  }
  return t;
}

constexpr NibbleTables kNibbleTables = make_nibble_tables();

// --- portable kernel ----------------------------------------------------

void xor_portable(const std::uint8_t* src, std::uint8_t* dst,
                  std::size_t n) {
  std::size_t i = 0;
  // Word-wide main loop; memcpy keeps it alias/alignment safe and the
  // compiler lowers it to plain 64-bit loads/stores.
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, src + i, 8);
    std::memcpy(&b, dst + i, 8);
    b ^= a;
    std::memcpy(dst + i, &b, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void mul_add_portable(std::uint8_t c, const std::uint8_t* src,
                      std::uint8_t* dst, std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    xor_portable(src, dst, n);
    return;
  }
  const auto& row = tables().mul[c];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    dst[i] ^= row[src[i]];
    dst[i + 1] ^= row[src[i + 1]];
    dst[i + 2] ^= row[src[i + 2]];
    dst[i + 3] ^= row[src[i + 3]];
  }
  for (; i < n; ++i) dst[i] ^= row[src[i]];
}

void mul_portable(std::uint8_t c, const std::uint8_t* src,
                  std::uint8_t* dst, std::size_t n) {
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    std::memmove(dst, src, n);
    return;
  }
  const auto& row = tables().mul[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[src[i]];
}

void mul_multi_portable(const std::uint8_t* coeffs,
                        const std::uint8_t* const* srcs, std::size_t nsrc,
                        std::uint8_t* dst, std::size_t n) {
  if (n == 0) return;
  // Cache-blocked: walk dst in L1-sized chunks so the nsrc
  // accumulation sweeps hit a resident destination instead of
  // re-streaming it from memory nsrc times.
  constexpr std::size_t kBlock = 8192;
  for (std::size_t off = 0; off < n; off += kBlock) {
    std::size_t len = n - off < kBlock ? n - off : kBlock;
    mul_portable(coeffs[0], srcs[0] + off, dst + off, len);
    for (std::size_t j = 1; j < nsrc; ++j) {
      mul_add_portable(coeffs[j], srcs[j] + off, dst + off, len);
    }
  }
}

constexpr Kernels kPortableKernels = {"portable", mul_add_portable,
                                     mul_portable, xor_portable,
                                     mul_multi_portable};

// --- dispatch -----------------------------------------------------------

bool cpu_supports(std::string_view isa) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (isa == "ssse3") return __builtin_cpu_supports("ssse3");
  if (isa == "avx2") return __builtin_cpu_supports("avx2");
#else
  (void)isa;
#endif
  return false;
}

const Kernels* best_supported() {
#if COREC_GF_HAVE_AVX2
  if (cpu_supports("avx2")) return &avx2_kernels();
#endif
#if COREC_GF_HAVE_SSSE3
  if (cpu_supports("ssse3")) return &ssse3_kernels();
#endif
  return &kPortableKernels;
}

const Kernels* select_kernels() {
  const char* env = std::getenv("COREC_GF_KERNEL");
  if (env != nullptr && env[0] != '\0') {
    if (const Kernels* k = kernel_by_name(env)) return k;
    std::fprintf(stderr,
                 "corec/gf: COREC_GF_KERNEL=%s unavailable on this "
                 "CPU/build; using best supported kernel\n",
                 env);
  }
  return best_supported();
}

std::atomic<const Kernels*> g_kernels{nullptr};

}  // namespace

const NibbleTables& nibble_tables() { return kNibbleTables; }

const Kernels* kernel_by_name(std::string_view name) {
  if (name == "portable") return &kPortableKernels;
#if COREC_GF_HAVE_SSSE3
  if (name == "ssse3" && cpu_supports("ssse3")) return &ssse3_kernels();
#endif
#if COREC_GF_HAVE_AVX2
  if (name == "avx2" && cpu_supports("avx2")) return &avx2_kernels();
#endif
  return nullptr;
}

std::vector<const Kernels*> available_kernels() {
  std::vector<const Kernels*> out{&kPortableKernels};
#if COREC_GF_HAVE_SSSE3
  if (cpu_supports("ssse3")) out.push_back(&ssse3_kernels());
#endif
#if COREC_GF_HAVE_AVX2
  if (cpu_supports("avx2")) out.push_back(&avx2_kernels());
#endif
  return out;
}

void override_kernels(const Kernels* k) {
  g_kernels.store(k != nullptr ? k : select_kernels(),
                  std::memory_order_release);
}

}  // namespace detail

const Kernels& kernels() {
  const Kernels* k = detail::g_kernels.load(std::memory_order_acquire);
  if (k == nullptr) {
    // Benign race: every thread resolves the same table.
    k = detail::select_kernels();
    detail::g_kernels.store(k, std::memory_order_release);
  }
  return *k;
}

const char* kernel_name() { return kernels().name; }

}  // namespace corec::gf
