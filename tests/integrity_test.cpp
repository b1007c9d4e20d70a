// End-to-end integrity: CRC32C known answers and kernel parity (the
// hardware kernel against the portable one), the erasure/corruption
// property suite over the production stripe builder (every erasure
// combination within tolerance round trips; checksum-flagged shards
// repair exactly like missing ones), the
// scrubber detect-and-repair loop, and the degenerate-size regressions
// (zero-length and single-byte payloads, empty coding regions).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/checksum.hpp"
#include "common/checksum_kernels.hpp"
#include "common/rng.hpp"
#include "resilience/primitives.hpp"
#include "resilience/scrubber.hpp"
#include "staging/object_store.hpp"
#include "staging/service.hpp"
#include "workloads/mechanisms.hpp"

namespace corec {
namespace {

using detail::Crc32cKernel;
using erasure::make_reed_solomon;
using workloads::make_scheme;
using workloads::Mechanism;

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 3);
  }
  return b;
}

std::size_t popcount(std::size_t mask) {
  std::size_t n = 0;
  while (mask != 0) {
    n += mask & 1u;
    mask >>= 1;
  }
  return n;
}

// ---- CRC32C --------------------------------------------------------------

TEST(Crc32c, KnownAnswers) {
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  // The CRC32C check value (iSCSI / RFC 3720 test vector).
  const char* digits = "123456789";
  EXPECT_EQ(crc32c(reinterpret_cast<const std::uint8_t*>(digits), 9),
            0xE3069283u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  Bytes b = pattern(300, 17);
  std::uint32_t full = crc32c(b.data(), b.size());
  std::uint32_t head = crc32c(b.data(), 100);
  EXPECT_EQ(crc32c(b.data() + 100, 200, head), full);
}

TEST(Crc32c, DetectsSingleBitFlips) {
  Bytes b = pattern(64, 5);
  std::uint32_t clean = crc32c(b.data(), b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] ^= 0x40;
    EXPECT_NE(crc32c(b.data(), b.size()), clean) << "offset " << i;
    b[i] ^= 0x40;
  }
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes b(n);
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next_u32());
  return b;
}

const Crc32cKernel& portable_kernel() {
  return *detail::crc32c_kernel_by_name("portable");
}

TEST(Crc32c, EveryKernelMatchesPortableAtEveryAlignmentAndLength) {
  constexpr std::size_t kMaxLen = 1024;
  const Bytes buf = random_bytes(kMaxLen + 16, 1);
  const Crc32cKernel& ref = portable_kernel();
  for (const Crc32cKernel* k : detail::crc32c_available_kernels()) {
    for (std::size_t align = 0; align < 16; ++align) {
      const std::uint8_t* p = buf.data() + align;
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        const std::uint32_t seed = static_cast<std::uint32_t>(len * align);
        ASSERT_EQ(k->fn(p, len, seed), ref.fn(p, len, seed))
            << k->name << " align " << align << " len " << len;
      }
    }
  }
}

TEST(Crc32c, EveryKernelMatchesPortableAtLaneBoundaries) {
  // Lengths straddling the hardware kernel's 3 x 8 KiB and 3 x 256 B
  // interleaved blocks, plus one long odd-length buffer.
  const std::vector<std::size_t> lengths = {
      3 * 8192 - 1, 3 * 8192, 3 * 8192 + 1, 3 * 256 - 1, 3 * 256,
      3 * 256 + 1,  2 * 3 * 8192 + 3 * 256 + 7, (1u << 20) + 7};
  const Bytes buf = random_bytes((1u << 20) + 32, 2);
  const Crc32cKernel& ref = portable_kernel();
  for (const Crc32cKernel* k : detail::crc32c_available_kernels()) {
    for (std::size_t len : lengths) {
      for (std::size_t align : {0, 1, 7, 8, 13}) {
        const std::uint8_t* p = buf.data() + align;
        ASSERT_EQ(k->fn(p, len, 0), ref.fn(p, len, 0))
            << k->name << " align " << align << " len " << len;
        ASSERT_EQ(k->fn(p, len, 0xdeadbeefu), ref.fn(p, len, 0xdeadbeefu))
            << k->name << " seeded, align " << align << " len " << len;
      }
    }
  }
}

TEST(Crc32c, CopyKernelsMatchMemcpyPlusCrc) {
  // Every kernel's copying form must write exactly memcpy's bytes and
  // return exactly crc32c's tag: at every source alignment 0-15 and
  // length 0-1024 against a destination offset that differs from the
  // source's, at the lane boundaries, and chained through seeds.
  const Bytes src = random_bytes((1u << 20) + 64, 5);
  const Crc32cKernel& ref = portable_kernel();
  auto check = [&](const Crc32cKernel& k, std::size_t align,
                   std::size_t len, std::uint32_t seed) {
    Bytes dst(len + 32, 0xEE);
    Bytes expect = dst;
    const std::uint8_t* p = src.data() + align;
    const std::size_t out = (align * 5 + 3) % 16;
    std::memcpy(expect.data() + out, p, len);
    ASSERT_EQ(k.copy(dst.data() + out, p, len, seed), ref.fn(p, len, seed))
        << k.name << " align " << align << " len " << len;
    ASSERT_EQ(dst, expect) << k.name << " align " << align << " len " << len;
  };
  for (const Crc32cKernel* k : detail::crc32c_available_kernels()) {
    for (std::size_t align = 0; align < 16; ++align) {
      for (std::size_t len = 0; len <= 1024; ++len) {
        check(*k, align, len, static_cast<std::uint32_t>(len * align));
      }
    }
    for (std::size_t len : {3 * 8192 - 1, 3 * 8192, 3 * 8192 + 1,
                            3 * 256 - 1, 3 * 256, 3 * 256 + 1,
                            (1 << 20) + 7}) {
      for (std::size_t align : {0, 1, 7, 8, 13}) {
        check(*k, align, static_cast<std::size_t>(len), 0);
        check(*k, align, static_cast<std::size_t>(len), 0xdeadbeefu);
      }
    }
    // Seed chaining: copying a payload in pieces tags it as one pass.
    Bytes dst(100 * 1024);
    std::uint32_t chained = 0;
    Rng rng(6);
    for (std::size_t off = 0; off < dst.size();) {
      const std::size_t piece = std::min<std::size_t>(
          1 + rng.uniform(30000), dst.size() - off);
      chained = k->copy(dst.data() + off, src.data() + off, piece, chained);
      off += piece;
    }
    EXPECT_EQ(chained, ref.fn(src.data(), dst.size(), 0)) << k->name;
    EXPECT_EQ(0, std::memcmp(dst.data(), src.data(), dst.size())) << k->name;
  }
  // The dispatched entry point runs the selected kernel.
  Bytes dst(4096);
  EXPECT_EQ(crc32c_copy(dst.data(), src.data(), dst.size()),
            crc32c(src.data(), dst.size()));
}

TEST(Crc32c, SeedChainsAcrossRandomSplits) {
  const Bytes buf = random_bytes(100 * 1024, 3);
  Rng rng(4);
  for (const Crc32cKernel* k : detail::crc32c_available_kernels()) {
    const std::uint32_t whole = k->fn(buf.data(), buf.size(), 0);
    for (int trial = 0; trial < 64; ++trial) {
      const std::size_t cut =
          rng.uniform(static_cast<std::uint32_t>(buf.size() + 1));
      const std::uint32_t a = k->fn(buf.data(), cut, 0);
      ASSERT_EQ(k->fn(buf.data() + cut, buf.size() - cut, a), whole)
          << k->name << " cut " << cut;
    }
    // Many pieces: chaining through every piece still gives crc(a||b).
    std::uint32_t chained = 0;
    for (std::size_t off = 0; off < buf.size();) {
      const std::size_t piece = std::min<std::size_t>(
          1 + rng.uniform(40000), buf.size() - off);
      chained = k->fn(buf.data() + off, piece, chained);
      off += piece;
    }
    EXPECT_EQ(chained, whole) << k->name;
  }
}

// crc32c_combine joins crc(A) and crc(B) into crc(A||B), and the same
// call strips A's share back out of crc(A||B), which is how the server
// turns a put body's CRC into its payload's. Checked on every kernel
// at random splits of a 3 MiB buffer, with empty prefixes, empty tails
// and multi-MiB tails among them.
TEST(Crc32c, CombineStripsPrefix) {
  const Bytes buf = random_bytes(3u << 20, 11);
  Rng rng(12);
  std::vector<std::size_t> cuts = {0, buf.size(), 1, 20, 77, 4096};
  for (int trial = 0; trial < 24; ++trial) {
    cuts.push_back(rng.uniform(static_cast<std::uint32_t>(buf.size() + 1)));
  }
  for (const Crc32cKernel* k : detail::crc32c_available_kernels()) {
    const std::uint32_t whole = k->fn(buf.data(), buf.size(), 0);
    for (const std::size_t cut : cuts) {
      const std::size_t tail = buf.size() - cut;
      const std::uint32_t a = k->fn(buf.data(), cut, 0);
      const std::uint32_t b = k->fn(buf.data() + cut, tail, 0);
      ASSERT_EQ(crc32c_combine(a, b, tail), whole)
          << k->name << " cut " << cut;
      ASSERT_EQ(crc32c_combine(a, whole, tail), b)
          << k->name << " cut " << cut;
    }
  }
  // A multi-MiB tail behind a short prefix, as a 2 MiB put body has.
  const std::uint32_t head = crc32c(buf.data(), 37);
  const std::uint32_t body = crc32c(buf.data(), 37 + (2u << 20));
  EXPECT_EQ(crc32c_combine(head, body, 2u << 20),
            crc32c(buf.data() + 37, 2u << 20));
}

TEST(Crc32c, Rfc3720Vectors) {
  Bytes zeros(32, 0x00);
  Bytes ones(32, 0xff);
  Bytes ascending(32);
  Bytes descending(32);
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  for (const Crc32cKernel* k : detail::crc32c_available_kernels()) {
    EXPECT_EQ(k->fn(zeros.data(), 32, 0), 0x8A9136AAu) << k->name;
    EXPECT_EQ(k->fn(ones.data(), 32, 0), 0x62A8AB43u) << k->name;
    EXPECT_EQ(k->fn(ascending.data(), 32, 0), 0x46DD794Eu) << k->name;
    EXPECT_EQ(k->fn(descending.data(), 32, 0), 0x113FDB5Cu) << k->name;
    EXPECT_EQ(k->fn(nullptr, 0, 0), 0u) << k->name;
  }
}

TEST(Crc32c, DispatchPicksHardwareKernelWhenAvailable) {
  bool cpu_has_sse42 = false;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  cpu_has_sse42 = __builtin_cpu_supports("sse4.2");
#endif
  const bool want_hw = detail::crc32c_sse42_compiled() && cpu_has_sse42;
  const char* expected = want_hw ? "sse42" : "portable";
  EXPECT_STREQ(detail::crc32c_selected_kernel().name, expected);
  EXPECT_STREQ(crc32c_kernel_name(), expected);
  EXPECT_EQ(detail::crc32c_kernel_by_name("sse42") != nullptr, want_hw);
  EXPECT_EQ(detail::crc32c_available_kernels().size(), want_hw ? 2u : 1u);
}

// ---- property: all erasure combinations within tolerance -----------------

// One object's stripe as its holders store it: the shard bytes that
// resilience::make_stripe_payload (the builder place_encoded uses)
// produces, copied out so a test can lose or corrupt them, plus each
// shard's recorded CRC32C.
struct StoredStripe {
  std::vector<Bytes> blocks;  // k data shards, then m parity shards
  std::vector<std::uint32_t> crcs;
  std::size_t logical_size = 0;
};

StoredStripe stripe_of(const erasure::Codec& codec, const Bytes& payload) {
  const staging::ObjectDescriptor desc{
      1, 0, geom::BoundingBox::line(0, 0), staging::kWholeObject};
  auto sp = resilience::make_stripe_payload(
      codec, staging::DataObject::real(desc, Bytes(payload)), codec.k(),
      codec.m());
  StoredStripe out;
  out.logical_size = payload.size();
  for (const auto& shard : sp.shards) {
    const ByteSpan bytes = shard.data.span();
    out.blocks.emplace_back(bytes.begin(), bytes.end());
    out.crcs.push_back(shard.checksum);
  }
  return out;
}

// Shards whose bytes no longer match their recorded CRC32C.
std::vector<std::size_t> corrupt_shards(const StoredStripe& s) {
  std::vector<std::size_t> bad;
  for (std::size_t i = 0; i < s.blocks.size(); ++i) {
    if (crc32c(s.blocks[i].data(), s.blocks[i].size()) != s.crcs[i]) {
      bad.push_back(i);
    }
  }
  return bad;
}

// Decodes around `erased` plus every CRC-failing shard (corruption and
// loss are one event, as in StagingService::read_degraded), then
// reassembles the payload from the k data shards.
StatusOr<Bytes> repair_and_read(const erasure::Codec& codec, StoredStripe s,
                                std::vector<std::size_t> erased) {
  for (std::size_t i : corrupt_shards(s)) {
    if (std::find(erased.begin(), erased.end(), i) == erased.end()) {
      erased.push_back(i);
    }
  }
  std::sort(erased.begin(), erased.end());
  std::vector<MutableByteSpan> spans(s.blocks.begin(), s.blocks.end());
  COREC_RETURN_IF_ERROR(codec.decode(spans, erased));
  Bytes out;
  for (std::size_t i = 0; i < codec.k(); ++i) {
    out.insert(out.end(), s.blocks[i].begin(), s.blocks[i].end());
  }
  out.resize(s.logical_size);
  return out;
}

TEST(IntegrityProperty, EveryErasureComboWithinToleranceRoundTrips) {
  struct Config {
    std::size_t k, m;
  };
  for (Config c : std::vector<Config>{{2, 1}, {3, 1}, {3, 2}, {4, 2},
                                      {6, 3}}) {
    auto codec_or = make_reed_solomon(c.k, c.m);
    ASSERT_TRUE(codec_or.ok());
    const auto& codec = *codec_or.value();
    // Not a multiple of k, so the last data shard carries padding.
    const Bytes payload =
        pattern(40 * c.k + 13, static_cast<std::uint8_t>(c.k + c.m));
    const StoredStripe base = stripe_of(codec, payload);
    const std::size_t n = c.k + c.m;
    ASSERT_EQ(base.blocks.size(), n);

    for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
      if (popcount(mask) > c.m) continue;
      StoredStripe s = base;
      std::vector<std::size_t> erased;
      for (std::size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1u) {
          erased.push_back(i);
          std::fill(s.blocks[i].begin(), s.blocks[i].end(), 0xAA);
        }
      }
      auto got = repair_and_read(codec, s, erased);
      ASSERT_TRUE(got.ok()) << "k=" << c.k << " m=" << c.m
                            << " mask=" << mask;
      EXPECT_EQ(got.value(), payload)
          << "k=" << c.k << " m=" << c.m << " mask=" << mask;
    }
  }
}

TEST(IntegrityProperty, ChecksumFlaggedShardsRepairLikeMissing) {
  auto codec_or = make_reed_solomon(4, 2);
  ASSERT_TRUE(codec_or.ok());
  const auto& codec = *codec_or.value();
  const Bytes payload = pattern(4 * 70 + 3, 9);
  const StoredStripe base = stripe_of(codec, payload);
  const std::size_t n = base.blocks.size();
  EXPECT_TRUE(corrupt_shards(base).empty());

  // Silently corrupt every pair of shards: the CRCs flag exactly those
  // two, and decoding around them restores the payload.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      StoredStripe s = base;
      s.blocks[i][3] ^= 0xFF;
      s.blocks[j][7] ^= 0x01;
      EXPECT_EQ(corrupt_shards(s), (std::vector<std::size_t>{i, j}));
      auto got = repair_and_read(codec, s, {});
      ASSERT_TRUE(got.ok()) << "corrupt pair " << i << "," << j;
      EXPECT_EQ(got.value(), payload);
    }
  }

  // Mixed: one silent corruption plus one explicit erasure.
  {
    StoredStripe s = base;
    s.blocks[1][0] ^= 0x40;
    std::fill(s.blocks[4].begin(), s.blocks[4].end(), 0);
    auto got = repair_and_read(codec, s, {4});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), payload);
  }

  // Beyond tolerance: two corruptions plus an erasure is three losses
  // against m=2 — the repair must refuse, exactly like three erasures.
  {
    StoredStripe s = base;
    s.blocks[0][1] ^= 0x10;
    s.blocks[2][2] ^= 0x20;
    auto got = repair_and_read(codec, s, {5});
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  }
}

// ---- scrubber: detect + repair injected bit flips ------------------------

staging::ServiceOptions scrub_service_options() {
  auto opts = workloads::table1_service_options();
  opts.domain = geom::BoundingBox::cube(0, 0, 0, 31, 31, 31);
  opts.fit.target_bytes = 4096;
  return opts;
}

TEST(Scrubber, DetectsAndRepairsInjectedBitFlips) {
  sim::Simulation sim;
  staging::StagingService service(scrub_service_options(), &sim,
                                  make_scheme(Mechanism::kErasure));
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  std::vector<Bytes> payloads;
  for (VarId var = 1; var <= 3; ++var) {
    payloads.push_back(pattern(static_cast<std::size_t>(box.volume()),
                               static_cast<std::uint8_t>(var * 31)));
    ASSERT_TRUE(service.put(var, 0, box, payloads.back()).status.ok());
  }

  // Flip a byte in the first data shard of every encoded entity.
  std::size_t injected = 0;
  service.directory().for_each(
      [&](const staging::ObjectDescriptor& desc,
          const staging::ObjectLocation& loc) {
        if (loc.protection != staging::Protection::kEncoded) return;
        if (service.corrupt_at(loc.stripe_servers[0], desc.shard_of(1),
                               5)) {
          ++injected;
        }
      });
  ASSERT_GE(injected, 1u);

  resilience::Scrubber scrub(
      &service,
      {.mtbf_seconds = 0.4, .batches = 4, .repair = true,
       .continuous = false});
  scrub.run_pass(sim.now());
  EXPECT_EQ(scrub.stats().corruptions_found, injected);
  EXPECT_GE(scrub.stats().repairs_triggered, injected);
  EXPECT_EQ(service.integrity().mismatches, injected);
  EXPECT_EQ(service.integrity().quarantined, injected);

  // Every read after the scrub serves pristine bytes.
  for (VarId var = 1; var <= 3; ++var) {
    Bytes out;
    ASSERT_TRUE(service.get(var, 0, box, &out).status.ok());
    EXPECT_EQ(out, payloads[static_cast<std::size_t>(var - 1)]);
  }

  // A second pass over the repaired stores finds nothing new.
  const auto found_before = scrub.stats().corruptions_found;
  const auto missing_before = scrub.stats().missing_found;
  scrub.run_pass(sim.now());
  EXPECT_EQ(scrub.stats().corruptions_found, found_before);
  EXPECT_EQ(scrub.stats().missing_found, missing_before);
}

TEST(Scrubber, DetectOnlyModeCountsWithoutRepair) {
  sim::Simulation sim;
  staging::StagingService service(scrub_service_options(), &sim,
                                  make_scheme(Mechanism::kErasure));
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  ASSERT_TRUE(service
                  .put(1, 0, box,
                       pattern(static_cast<std::size_t>(box.volume()), 77))
                  .status.ok());
  std::size_t injected = 0;
  service.directory().for_each(
      [&](const staging::ObjectDescriptor& desc,
          const staging::ObjectLocation& loc) {
        if (loc.protection != staging::Protection::kEncoded) return;
        if (service.corrupt_at(loc.stripe_servers[0], desc.shard_of(1),
                               9)) {
          ++injected;
        }
      });
  ASSERT_GE(injected, 1u);
  resilience::Scrubber scrub(
      &service,
      {.mtbf_seconds = 0.4, .batches = 1, .repair = false,
       .continuous = false});
  scrub.run_pass(sim.now());
  EXPECT_EQ(scrub.stats().corruptions_found, injected);
  EXPECT_EQ(scrub.stats().repairs_triggered, 0u);
}

// ---- degenerate sizes ----------------------------------------------------

TEST(IntegrityEdge, EmptyPayloadChecksumIsSentinelFree) {
  // A zero-length real object's CRC is 0 — the "nothing recorded"
  // sentinel — so verification is skipped rather than tripped.
  staging::ObjectDescriptor desc{1, 0,
                                 geom::BoundingBox::cube(0, 0, 0, 0, 0, 0),
                                 staging::kWholeObject};
  auto obj = staging::DataObject::real(desc, Bytes{});
  EXPECT_EQ(obj.checksum, 0u);

  staging::ObjectStore store(0);
  ASSERT_TRUE(store.put(std::move(obj), staging::StoredKind::kPrimary).ok());
  // Nothing to corrupt in an empty payload.
  EXPECT_FALSE(store.flip_byte(desc, 0));
}

TEST(IntegrityEdge, ZeroLengthPayloadsThroughStripe) {
  auto codec_or = make_reed_solomon(3, 2);
  ASSERT_TRUE(codec_or.ok());
  const auto& codec = *codec_or.value();

  // One byte over k=3: shards 1 and 2 hold nothing but padding.
  const Bytes one{0x5A};
  const StoredStripe s = stripe_of(codec, one);
  ASSERT_EQ(s.blocks.size(), 5u);
  EXPECT_EQ(s.blocks[0].size(), 1u);
  EXPECT_EQ(s.blocks[1], Bytes{0x00});
  EXPECT_EQ(s.blocks[2], Bytes{0x00});
  EXPECT_TRUE(corrupt_shards(s).empty());
  StoredStripe lost = s;
  lost.blocks[0][0] = 0;
  auto got = repair_and_read(codec, lost, {0});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), one);

  // A zero-length object: every shard is empty, and losing one still
  // reads back the empty payload.
  const StoredStripe empty = stripe_of(codec, Bytes{});
  ASSERT_EQ(empty.blocks.size(), 5u);
  for (const Bytes& block : empty.blocks) EXPECT_TRUE(block.empty());
  EXPECT_TRUE(corrupt_shards(empty).empty());
  auto none = repair_and_read(codec, empty, {1});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());
}

TEST(IntegrityEdge, SingleByteObjectThroughServiceAndScrub) {
  sim::Simulation sim;
  staging::StagingService service(scrub_service_options(), &sim,
                                  make_scheme(Mechanism::kErasure));
  auto box = geom::BoundingBox::cube(0, 0, 0, 0, 0, 0);
  Bytes payload{0x5A};
  ASSERT_TRUE(service.put(1, 0, box, payload).status.ok());
  Bytes out;
  ASSERT_TRUE(service.get(1, 0, box, &out).status.ok());
  EXPECT_EQ(out, payload);

  std::size_t injected = 0;
  service.directory().for_each(
      [&](const staging::ObjectDescriptor& desc,
          const staging::ObjectLocation& loc) {
        if (loc.protection != staging::Protection::kEncoded) return;
        if (service.corrupt_at(loc.stripe_servers[0], desc.shard_of(1),
                               0)) {
          ++injected;
        }
      });
  ASSERT_GE(injected, 1u);
  resilience::Scrubber scrub(
      &service,
      {.mtbf_seconds = 0.4, .batches = 1, .repair = true,
       .continuous = false});
  scrub.run_pass(sim.now());
  EXPECT_GE(scrub.stats().corruptions_found, 1u);
  out.clear();
  ASSERT_TRUE(service.get(1, 0, box, &out).status.ok());
  EXPECT_EQ(out, payload);
}

TEST(IntegrityEdge, CodecOnEmptyRegions) {
  auto codec_or = make_reed_solomon(3, 2);
  ASSERT_TRUE(codec_or.ok());
  const erasure::Codec& codec = *codec_or.value();

  // Zero-length blocks: encode and decode must both be clean no-ops.
  std::vector<Bytes> data_bufs(3);
  std::vector<Bytes> parity_bufs(2);
  std::vector<ByteSpan> data;
  std::vector<MutableByteSpan> parity;
  for (auto& d : data_bufs) data.emplace_back(d);
  for (auto& p : parity_bufs) parity.emplace_back(p);
  EXPECT_TRUE(codec.encode(data, parity).ok());

  std::vector<Bytes> blocks_bufs(5);
  std::vector<MutableByteSpan> blocks;
  for (auto& b : blocks_bufs) blocks.emplace_back(b);
  EXPECT_TRUE(codec.decode(blocks, {1}).ok());
}

}  // namespace
}  // namespace corec
