// Microbenchmark: GF(2^8) kernel throughput — the region operations
// that dominate Reed-Solomon encode/decode cost. Feeds the cost-model
// calibration (net::calibrate_encode_rate). Also measures the CRC32C
// kernels, the other per-byte cost on every put and every shard, and
// their copy-with-CRC forms next to a plain memcpy.
//
// Benchmarks are registered once per kernel this build/CPU can run
// (GF: portable/ssse3/avx2; CRC32C: portable/sse42), so one run
// reports the scalar baseline next to the SIMD kernels.
// `--benchmark_format=json` (or tools/bench_gf_json.sh) emits the
// machine-readable form tracked in BENCH_gf.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/checksum_kernels.hpp"
#include "gf/gf256.hpp"
#include "gf/gf256_simd.hpp"

namespace {

using corec::detail::Crc32cKernel;
using corec::gf::Kernels;

std::vector<std::uint8_t> make_buf(std::size_t n, unsigned salt) {
  std::vector<std::uint8_t> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(i * 31 + salt);
  }
  return b;
}

void BM_RegionMulAdd(benchmark::State& state, const Kernels* kernels) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  auto src = make_buf(n, 1);
  auto dst = make_buf(n, 2);
  std::uint8_t c = 0x57;
  for (auto _ : state) {
    kernels->mul_add(c, src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_RegionXor(benchmark::State& state, const Kernels* kernels) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  auto src = make_buf(n, 3);
  auto dst = make_buf(n, 4);
  for (auto _ : state) {
    kernels->xor_into(src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

/// The fused RS parity row: dst = sum of k coefficient-scaled sources
/// in one pass. Bytes processed counts the k source streams — the
/// figure comparable to per-source region_mul_add calls.
void BM_RegionMulMulti(benchmark::State& state, const Kernels* kernels) {
  constexpr std::size_t kSources = 6;
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<std::uint8_t>> bufs;
  std::vector<const std::uint8_t*> srcs;
  std::uint8_t coeffs[kSources];
  for (std::size_t j = 0; j < kSources; ++j) {
    bufs.push_back(make_buf(n, static_cast<unsigned>(j)));
    srcs.push_back(bufs.back().data());
    coeffs[j] = static_cast<std::uint8_t>(0x1d + 31 * j);
  }
  auto dst = make_buf(n, 99);
  for (auto _ : state) {
    kernels->mul_multi(coeffs, srcs.data(), kSources, dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * kSources));
}

void BM_Crc32c(benchmark::State& state, const Crc32cKernel* kernel) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  auto buf = make_buf(n, 5);
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = kernel->fn(buf.data(), n, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_Memcpy(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  auto src = make_buf(n, 5);
  std::vector<std::uint8_t> dst(n);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

/// The put's ingest pass: copy into a fresh store and checksum it,
/// reading the source once.
void BM_Crc32cCopy(benchmark::State& state, const Crc32cKernel* kernel) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  auto src = make_buf(n, 5);
  std::vector<std::uint8_t> dst(n);
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = kernel->copy(dst.data(), src.data(), n, crc);
    benchmark::DoNotOptimize(crc);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_ScalarMul(benchmark::State& state) {
  std::uint8_t acc = 1;
  for (auto _ : state) {
    acc = corec::gf::mul(acc, 0x1d);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ScalarMul);

void BM_ScalarInv(benchmark::State& state) {
  std::uint8_t v = 1;
  for (auto _ : state) {
    v = corec::gf::inv(v);
    v = static_cast<std::uint8_t>(v | 1);  // keep nonzero
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ScalarInv);

void register_region_benchmarks() {
  for (const Kernels* k : corec::gf::detail::available_kernels()) {
    std::string suffix = std::string("<") + k->name + ">";
    benchmark::RegisterBenchmark(("BM_RegionMulAdd" + suffix).c_str(),
                                 BM_RegionMulAdd, k)
        ->Range(1 << 10, 1 << 22);
    benchmark::RegisterBenchmark(("BM_RegionXor" + suffix).c_str(),
                                 BM_RegionXor, k)
        ->Range(1 << 10, 1 << 22);
    benchmark::RegisterBenchmark(("BM_RegionMulMulti" + suffix).c_str(),
                                 BM_RegionMulMulti, k)
        ->Range(1 << 10, 1 << 22);
  }
  // Sizes: a serve_small object, a corec_s3d object, a serve_bulk put.
  // BM_Memcpy + BM_Crc32c is what BM_Crc32cCopy fuses.
  benchmark::RegisterBenchmark("BM_Memcpy", BM_Memcpy)
      ->Arg(4096)
      ->Arg(32768)
      ->Arg(2097152);
  for (const Crc32cKernel* k : corec::detail::crc32c_available_kernels()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Crc32c/") + k->name).c_str(), BM_Crc32c, k)
        ->Arg(4096)
        ->Arg(32768)
        ->Arg(2097152);
    benchmark::RegisterBenchmark(
        (std::string("BM_Crc32cCopy/") + k->name).c_str(), BM_Crc32cCopy,
        k)
        ->Arg(4096)
        ->Arg(32768)
        ->Arg(2097152);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_region_benchmarks();
  benchmark::AddCustomContext("gf_kernel_dispatched",
                              corec::gf::kernel_name());
  benchmark::AddCustomContext("crc32c_kernel_dispatched",
                              corec::crc32c_kernel_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
