// End-to-end integrity: CRC32C known answers, the erasure/corruption
// property suite (every erasure combination within tolerance round
// trips; checksum-flagged shards repair exactly like missing ones), the
// scrubber detect-and-repair loop, and the degenerate-size regressions
// (zero-length and single-byte payloads, empty coding regions).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/checksum.hpp"
#include "erasure/stripe.hpp"
#include "resilience/scrubber.hpp"
#include "staging/object_store.hpp"
#include "staging/service.hpp"
#include "workloads/mechanisms.hpp"

namespace corec {
namespace {

using erasure::build_stripe;
using erasure::extract_payload;
using erasure::make_reed_solomon;
using erasure::repair_stripe;
using erasure::repair_stripe_verified;
using erasure::Stripe;
using erasure::verify_stripe;
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

// ---- property: all erasure combinations within tolerance -----------------

TEST(IntegrityProperty, EveryErasureComboWithinToleranceRoundTrips) {
  struct Config {
    std::size_t k, m;
  };
  for (Config c : std::vector<Config>{{2, 1}, {3, 1}, {3, 2}, {4, 2},
                                      {6, 3}}) {
    auto codec_or = make_reed_solomon(c.k, c.m);
    ASSERT_TRUE(codec_or.ok());
    const auto& codec = *codec_or.value();
    std::vector<Bytes> payloads;
    std::vector<ByteSpan> spans;
    for (std::size_t i = 0; i < c.k; ++i) {
      payloads.push_back(
          pattern(40 + 13 * i, static_cast<std::uint8_t>(i + 1)));
    }
    for (const auto& p : payloads) spans.emplace_back(p);
    auto stripe_or = build_stripe(codec, spans);
    ASSERT_TRUE(stripe_or.ok());
    const Stripe& base = stripe_or.value();
    const std::size_t n = c.k + c.m;

    for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
      if (popcount(mask) > c.m) continue;
      Stripe s = base;
      std::vector<std::size_t> erased;
      for (std::size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1u) {
          erased.push_back(i);
          std::fill(s.blocks[i].begin(), s.blocks[i].end(), 0xAA);
        }
      }
      ASSERT_TRUE(repair_stripe(codec, &s, erased).ok())
          << "k=" << c.k << " m=" << c.m << " mask=" << mask;
      for (std::size_t i = 0; i < c.k; ++i) {
        auto p = extract_payload(s, i);
        ASSERT_TRUE(p.ok());
        EXPECT_EQ(p.value(), payloads[i])
            << "k=" << c.k << " m=" << c.m << " mask=" << mask
            << " payload " << i;
      }
    }
  }
}

TEST(IntegrityProperty, ChecksumFlaggedShardsRepairLikeMissing) {
  auto codec_or = make_reed_solomon(4, 2);
  ASSERT_TRUE(codec_or.ok());
  const auto& codec = *codec_or.value();
  std::vector<Bytes> payloads;
  std::vector<ByteSpan> spans;
  for (std::size_t i = 0; i < 4; ++i) {
    payloads.push_back(pattern(70 + i, static_cast<std::uint8_t>(i + 9)));
  }
  for (const auto& p : payloads) spans.emplace_back(p);
  auto base_or = build_stripe(codec, spans);
  ASSERT_TRUE(base_or.ok());
  const Stripe& base = base_or.value();
  const std::size_t n = base.n();

  // Silently corrupt every pair of blocks: verify flags exactly those
  // two, and verified repair restores every payload.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      Stripe s = base;
      s.blocks[i][3] ^= 0xFF;
      s.blocks[j][7] ^= 0x01;
      EXPECT_EQ(verify_stripe(s), (std::vector<std::size_t>{i, j}));
      ASSERT_TRUE(repair_stripe_verified(codec, &s, {}).ok())
          << "corrupt pair " << i << "," << j;
      EXPECT_TRUE(verify_stripe(s).empty());
      for (std::size_t p = 0; p < 4; ++p) {
        auto got = extract_payload(s, p);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), payloads[p]);
      }
    }
  }

  // Mixed: one silent corruption plus one explicit erasure.
  {
    Stripe s = base;
    s.blocks[1][0] ^= 0x40;
    std::fill(s.blocks[4].begin(), s.blocks[4].end(), 0);
    ASSERT_TRUE(repair_stripe_verified(codec, &s, {4}).ok());
    for (std::size_t p = 0; p < 4; ++p) {
      EXPECT_EQ(extract_payload(s, p).value(), payloads[p]);
    }
  }

  // Beyond tolerance: two corruptions plus an erasure is three losses
  // against m=2 — the repair must refuse, exactly like three erasures.
  {
    Stripe s = base;
    s.blocks[0][1] ^= 0x10;
    s.blocks[2][2] ^= 0x20;
    EXPECT_FALSE(repair_stripe_verified(codec, &s, {5}).ok());
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
  Bytes empty;
  Bytes one{0x5A};
  auto stripe_or =
      build_stripe(codec, {ByteSpan(empty), ByteSpan(one), ByteSpan(empty)});
  ASSERT_TRUE(stripe_or.ok());
  Stripe s = std::move(stripe_or).value();
  EXPECT_EQ(s.block_size, 1u);
  EXPECT_TRUE(verify_stripe(s).empty());

  std::fill(s.blocks[1].begin(), s.blocks[1].end(), 0);
  ASSERT_TRUE(repair_stripe_verified(codec, &s, {1}).ok());
  EXPECT_TRUE(extract_payload(s, 0).value().empty());
  EXPECT_EQ(extract_payload(s, 1).value(), one);
  EXPECT_TRUE(extract_payload(s, 2).value().empty());
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
