// Differential tests for the dispatched GF(2^8) kernels: every kernel
// this build/CPU can run (portable/ssse3/avx2) is cross-checked against
// the scalar table reference over randomized sizes, odd lengths and
// misaligned src/dst offsets, and the full RS encode/decode round-trip
// is exercised under each forced kernel.
#include "gf/gf256.hpp"
#include "gf/gf256_simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "erasure/codec.hpp"

namespace corec::gf {
namespace {

using corec::Bytes;
using corec::ByteSpan;
using corec::MutableByteSpan;
using corec::Rng;

/// Forces the dispatched kernel for a scope; restores dispatch on exit.
class KernelGuard {
 public:
  explicit KernelGuard(const Kernels* k) { detail::override_kernels(k); }
  ~KernelGuard() { detail::override_kernels(nullptr); }
};

Bytes random_buf(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.next_u32());
  return b;
}

/// Sizes covering empty, sub-vector, odd, around the 16/32-byte SIMD
/// widths, and multi-KiB regions.
std::vector<std::size_t> test_sizes() {
  std::vector<std::size_t> sizes = {0,  1,  3,   7,   15,  16,  17,
                                    31, 32, 33,  63,  64,  65,  100,
                                    255, 256, 1023, 4096};
  Rng rng(2024);
  for (int i = 0; i < 8; ++i) {
    sizes.push_back(rng.next_u32() % 4097);  // randomized 0-4 KiB
  }
  return sizes;
}

class GfKernelTest : public ::testing::TestWithParam<const Kernels*> {};

TEST_P(GfKernelTest, MulAddMatchesScalarWithMisalignment) {
  const Kernels* kern = GetParam();
  Rng rng(1);
  for (std::size_t n : test_sizes()) {
    for (std::size_t src_off : {0u, 1u, 7u, 13u}) {
      for (std::size_t dst_off : {0u, 3u, 15u}) {
        Bytes src = random_buf(rng, n + src_off + 16);
        Bytes dst = random_buf(rng, n + dst_off + 16);
        Bytes expect(dst);
        std::uint8_t c = static_cast<std::uint8_t>(rng.next_u32());
        for (std::size_t i = 0; i < n; ++i) {
          expect[dst_off + i] ^= mul(c, src[src_off + i]);
        }
        kern->mul_add(c, src.data() + src_off, dst.data() + dst_off, n);
        ASSERT_EQ(dst, expect)
            << kern->name << " c=" << unsigned(c) << " n=" << n
            << " src_off=" << src_off << " dst_off=" << dst_off;
      }
    }
  }
}

TEST_P(GfKernelTest, MulMatchesScalar) {
  const Kernels* kern = GetParam();
  Rng rng(2);
  for (std::size_t n : test_sizes()) {
    for (std::size_t off : {0u, 5u, 11u}) {
      Bytes src = random_buf(rng, n + off + 16);
      Bytes dst = random_buf(rng, n + off + 16);
      Bytes expect(dst);
      std::uint8_t c = static_cast<std::uint8_t>(rng.next_u32());
      for (std::size_t i = 0; i < n; ++i) {
        expect[off + i] = mul(c, src[off + i]);
      }
      kern->mul(c, src.data() + off, dst.data() + off, n);
      ASSERT_EQ(dst, expect) << kern->name << " c=" << unsigned(c)
                             << " n=" << n << " off=" << off;
    }
  }
}

TEST_P(GfKernelTest, XorMatchesScalar) {
  const Kernels* kern = GetParam();
  Rng rng(3);
  for (std::size_t n : test_sizes()) {
    for (std::size_t off : {0u, 1u, 9u}) {
      Bytes src = random_buf(rng, n + off + 16);
      Bytes dst = random_buf(rng, n + off + 16);
      Bytes expect(dst);
      for (std::size_t i = 0; i < n; ++i) {
        expect[off + i] ^= src[off + i];
      }
      kern->xor_into(src.data() + off, dst.data() + off, n);
      ASSERT_EQ(dst, expect) << kern->name << " n=" << n;
    }
  }
}

TEST_P(GfKernelTest, MulMultiMatchesScalar) {
  const Kernels* kern = GetParam();
  Rng rng(4);
  for (std::size_t n : test_sizes()) {
    for (std::size_t nsrc : {1u, 2u, 6u, 10u}) {
      std::vector<Bytes> bufs;
      std::vector<const std::uint8_t*> srcs;
      std::vector<std::uint8_t> coeffs;
      for (std::size_t j = 0; j < nsrc; ++j) {
        bufs.push_back(random_buf(rng, n));
        coeffs.push_back(static_cast<std::uint8_t>(
            1 + rng.next_u32() % 255));  // kernels require nonzero
      }
      for (const auto& b : bufs) srcs.push_back(b.data());
      Bytes dst = random_buf(rng, n);  // overwritten, not read
      Bytes expect(n, 0);
      for (std::size_t j = 0; j < nsrc; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
          expect[i] ^= mul(coeffs[j], bufs[j][i]);
        }
      }
      kern->mul_multi(coeffs.data(), srcs.data(), nsrc, dst.data(), n);
      ASSERT_EQ(dst, expect)
          << kern->name << " n=" << n << " nsrc=" << nsrc;
    }
  }
}

/// region_mul_multi (the public wrapper) must drop zero coefficients
/// and agree with per-source region_mul_add.
TEST_P(GfKernelTest, RegionMultiWrappersHandleZeroCoefficients) {
  KernelGuard guard(GetParam());
  Rng rng(5);
  const std::size_t n = 1000;
  std::vector<Bytes> bufs;
  std::vector<const std::uint8_t*> srcs;
  std::uint8_t coeffs[5] = {0, 7, 0, 255, 1};
  for (std::size_t j = 0; j < 5; ++j) {
    bufs.push_back(random_buf(rng, n));
    srcs.push_back(bufs[j].data());
  }
  Bytes dst = random_buf(rng, n);
  Bytes expect(n, 0);
  for (std::size_t j = 0; j < 5; ++j) {
    region_mul_add(coeffs[j], bufs[j], expect);
  }
  region_mul_multi(coeffs, srcs.data(), 5, dst);
  EXPECT_EQ(dst, expect);

  // All-zero coefficients: overwrite clears.
  std::uint8_t zeros[3] = {0, 0, 0};
  region_mul_multi(zeros, srcs.data(), 3, dst);
  EXPECT_EQ(dst, Bytes(n, 0));
}

TEST_P(GfKernelTest, ZeroLengthRegionsAreSafe) {
  KernelGuard guard(GetParam());
  Bytes empty;
  region_mul_add(9, empty, empty);
  region_mul(9, empty, empty);
  region_xor(empty, empty);
  std::uint8_t c = 3;
  const std::uint8_t* src = nullptr;
  region_mul_multi(&c, &src, 0, MutableByteSpan(empty));
}

/// Full RS round-trip under the forced kernel: encode, erase m blocks,
/// decode, expect byte-identical recovery.
TEST_P(GfKernelTest, ReedSolomonRoundTrip) {
  KernelGuard guard(GetParam());
  Rng rng(6);
  const std::vector<std::pair<std::size_t, std::size_t>> geometries = {
      {3, 1}, {6, 3}, {10, 4}};
  for (auto [k, m] : geometries) {
    for (std::size_t block : {std::size_t{1}, std::size_t{1000},
                              std::size_t{4096}, std::size_t{10000}}) {
      auto codec = std::move(erasure::make_reed_solomon(k, m)).value();
      std::vector<Bytes> blocks(k + m);
      for (std::size_t i = 0; i < k; ++i) {
        blocks[i] = random_buf(rng, block);
      }
      for (std::size_t i = k; i < k + m; ++i) blocks[i] = Bytes(block);
      std::vector<ByteSpan> data;
      std::vector<MutableByteSpan> parity;
      for (std::size_t i = 0; i < k; ++i) data.emplace_back(blocks[i]);
      for (std::size_t i = k; i < k + m; ++i) {
        parity.emplace_back(blocks[i]);
      }
      ASSERT_TRUE(codec->encode(data, parity).ok());
      auto pristine = blocks;

      // Erase m blocks (mixed data+parity), zero them, decode.
      std::vector<std::size_t> erased;
      while (erased.size() < m) {
        std::size_t e = rng.next_u32() % (k + m);
        if (std::find(erased.begin(), erased.end(), e) == erased.end()) {
          erased.push_back(e);
        }
      }
      for (std::size_t e : erased) {
        std::fill(blocks[e].begin(), blocks[e].end(), 0);
      }
      std::vector<MutableByteSpan> spans;
      for (auto& b : blocks) spans.emplace_back(b);
      ASSERT_TRUE(codec->decode(spans, erased).ok());
      EXPECT_EQ(blocks, pristine)
          << GetParam()->name << " k=" << k << " m=" << m
          << " block=" << block;
    }
  }
}

/// All kernels must produce bit-identical parity for one stripe.
TEST(GfSimd, KernelsAgreeOnParity) {
  auto kernels_list = detail::available_kernels();
  Rng rng(7);
  const std::size_t k = 6, m = 3, block = 8191;
  std::vector<Bytes> data_bufs;
  std::vector<ByteSpan> data;
  for (std::size_t i = 0; i < k; ++i) {
    data_bufs.push_back(random_buf(rng, block));
  }
  for (const auto& b : data_bufs) data.emplace_back(b);
  auto codec = std::move(erasure::make_reed_solomon(k, m)).value();

  std::vector<std::vector<Bytes>> results;
  for (const Kernels* kern : kernels_list) {
    KernelGuard guard(kern);
    std::vector<Bytes> parity_bufs(m, Bytes(block));
    std::vector<MutableByteSpan> parity;
    for (auto& b : parity_bufs) parity.emplace_back(b);
    ASSERT_TRUE(codec->encode(data, parity).ok());
    results.push_back(std::move(parity_bufs));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0])
        << kernels_list[i]->name << " vs " << kernels_list[0]->name;
  }
}

TEST(GfSimd, DispatchHonorsEnvOverride) {
  // The test runner may force a kernel (CI matrix legs do); when it
  // does and that kernel is available, dispatch must have honored it.
  const char* want = std::getenv("COREC_GF_KERNEL");
  if (want == nullptr || want[0] == '\0') {
    GTEST_SKIP() << "COREC_GF_KERNEL not set";
  }
  if (detail::kernel_by_name(want) == nullptr) {
    GTEST_SKIP() << "kernel '" << want
                 << "' not available on this CPU/build";
  }
  EXPECT_STREQ(kernel_name(), want);
}

TEST(GfSimd, KernelByNameAndAvailability) {
  // portable always exists and always dispatches.
  ASSERT_NE(detail::kernel_by_name("portable"), nullptr);
  EXPECT_EQ(detail::kernel_by_name("no-such-kernel"), nullptr);
  auto avail = detail::available_kernels();
  ASSERT_FALSE(avail.empty());
  EXPECT_STREQ(avail[0]->name, "portable");
  for (const Kernels* k : avail) {
    EXPECT_EQ(detail::kernel_by_name(k->name), k);
  }
}

std::string kernel_test_name(
    const ::testing::TestParamInfo<const Kernels*>& info) {
  return info.param->name;
}

INSTANTIATE_TEST_SUITE_P(Kernels, GfKernelTest,
                         ::testing::ValuesIn(detail::available_kernels()),
                         kernel_test_name);

}  // namespace
}  // namespace corec::gf
