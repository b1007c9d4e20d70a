#include "gf/gf256.hpp"

#include <cassert>
#include <cstring>

#include "gf/gf256_simd.hpp"

namespace corec::gf {
namespace detail {

const Tables& tables() {
  // Built once on first use; ~80 KiB, immutable afterwards.
  static const Tables t;
  return t;
}

}  // namespace detail

std::uint8_t inv(std::uint8_t a) {
  assert(a != 0 && "inverse of zero");
  return detail::tables().inv[a];
}

std::uint8_t pow(std::uint8_t a, unsigned e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const auto& t = detail::tables();
  unsigned le = (static_cast<unsigned>(t.log[a]) * e) % kGroupOrder;
  return t.exp[le];
}

void region_xor(std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst) {
  assert(src.size() == dst.size());
  kernels().xor_into(src.data(), dst.data(), dst.size());
}

void region_mul_add(std::uint8_t c, std::span<const std::uint8_t> src,
                    std::span<std::uint8_t> dst) {
  assert(src.size() == dst.size());
  if (c == 0) return;
  if (c == 1) {
    region_xor(src, dst);
    return;
  }
  kernels().mul_add(c, src.data(), dst.data(), dst.size());
}

void region_mul(std::uint8_t c, std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst) {
  assert(src.size() == dst.size());
  // Empty vectors hand out a null data(); memset/memcpy declare their
  // pointers nonnull, so bail before the dispatch on c.
  if (dst.empty()) return;
  if (c == 0) {
    std::memset(dst.data(), 0, dst.size());
    return;
  }
  if (c == 1) {
    std::memcpy(dst.data(), src.data(), src.size());
    return;
  }
  kernels().mul(c, src.data(), dst.data(), dst.size());
}

namespace {

/// Drops zero coefficients (they contribute nothing and the kernels
/// require nonzero rows). Returns the compacted count.
inline std::size_t compact_nonzero(const std::uint8_t* coeffs,
                                   const std::uint8_t* const* srcs,
                                   std::size_t k, std::uint8_t* c_out,
                                   const std::uint8_t** s_out) {
  std::size_t nz = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (coeffs[j] != 0) {
      c_out[nz] = coeffs[j];
      s_out[nz] = srcs[j];
      ++nz;
    }
  }
  return nz;
}

}  // namespace

void region_mul_multi(const std::uint8_t* coeffs,
                      const std::uint8_t* const* srcs, std::size_t k,
                      std::span<std::uint8_t> dst) {
  assert(k <= kGroupOrder);
  std::uint8_t c[kGroupOrder];
  const std::uint8_t* s[kGroupOrder];
  std::size_t nz = compact_nonzero(coeffs, srcs, k, c, s);
  if (dst.empty()) return;
  if (nz == 0) {
    std::memset(dst.data(), 0, dst.size());
    return;
  }
  kernels().mul_multi(c, s, nz, dst.data(), dst.size());
}

}  // namespace corec::gf
