// Microbenchmark: Reed-Solomon encode/decode throughput across stripe
// geometries and block sizes, Vandermonde vs Cauchy construction, and
// incremental parity update. The encode/decode paths run on the fused
// multi-source GF kernels; the dispatched kernel is recorded in the
// benchmark context (force one with COREC_GF_KERNEL=portable|ssse3|
// avx2). `--benchmark_format=json` / tools/bench_gf_json.sh emit the
// machine-readable form tracked in BENCH_gf.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "erasure/codec.hpp"
#include "gf/gf256_simd.hpp"

namespace {

using corec::Bytes;
using corec::ByteSpan;
using corec::MutableByteSpan;
using corec::Rng;
using namespace corec::erasure;

struct Fixture {
  std::unique_ptr<Codec> codec;
  std::vector<Bytes> blocks;
  std::vector<ByteSpan> data_spans;
  std::vector<MutableByteSpan> parity_spans;

  Fixture(std::size_t k, std::size_t m, std::size_t block,
          RsConstruction c) {
    codec = std::move(make_reed_solomon(k, m, c)).value();
    Rng rng(7);
    blocks.assign(k + m, Bytes(block));
    for (auto& b : blocks) {
      for (auto& v : b) v = static_cast<std::uint8_t>(rng.next_u32());
    }
    for (std::size_t i = 0; i < k; ++i) {
      data_spans.emplace_back(blocks[i]);
    }
    for (std::size_t i = k; i < k + m; ++i) {
      parity_spans.emplace_back(blocks[i]);
    }
  }
};

void BM_RsEncode(benchmark::State& state) {
  auto k = static_cast<std::size_t>(state.range(0));
  auto m = static_cast<std::size_t>(state.range(1));
  auto block = static_cast<std::size_t>(state.range(2));
  Fixture f(k, m, block, RsConstruction::kVandermonde);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.codec->encode(f.data_spans, f.parity_spans).ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * block));
}
BENCHMARK(BM_RsEncode)
    ->Args({3, 1, 64 << 10})    // Table I geometry
    ->Args({3, 1, 1 << 20})
    ->Args({6, 2, 64 << 10})
    ->Args({6, 3, 1 << 20})
    ->Args({10, 4, 64 << 10});

void BM_RsEncodeCauchy(benchmark::State& state) {
  Fixture f(3, 1, 1 << 20, RsConstruction::kCauchy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.codec->encode(f.data_spans, f.parity_spans).ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (3ll << 20));
}
BENCHMARK(BM_RsEncodeCauchy);

void BM_RsDecode(benchmark::State& state) {
  auto erasures = static_cast<std::size_t>(state.range(0));
  Fixture f(6, 3, 256 << 10, RsConstruction::kVandermonde);
  (void)f.codec->encode(f.data_spans, f.parity_spans);
  auto pristine = f.blocks;
  std::vector<std::size_t> erased;
  for (std::size_t e = 0; e < erasures; ++e) erased.push_back(e);
  for (auto _ : state) {
    state.PauseTiming();
    f.blocks = pristine;
    for (std::size_t e : erased) {
      std::fill(f.blocks[e].begin(), f.blocks[e].end(), 0);
    }
    std::vector<MutableByteSpan> spans;
    for (auto& b : f.blocks) spans.emplace_back(b);
    state.ResumeTiming();
    benchmark::DoNotOptimize(f.codec->decode(spans, erased).ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(erasures) *
                          (256ll << 10));
}
BENCHMARK(BM_RsDecode)->Arg(1)->Arg(2)->Arg(3);

void BM_RsUpdateParity(benchmark::State& state) {
  Fixture f(6, 2, 256 << 10, RsConstruction::kVandermonde);
  (void)f.codec->encode(f.data_spans, f.parity_spans);
  Bytes delta(256 << 10, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.codec->update_parity(2, delta, f.parity_spans).ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (256ll << 10));
}
BENCHMARK(BM_RsUpdateParity);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("gf_kernel_dispatched",
                              corec::gf::kernel_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
