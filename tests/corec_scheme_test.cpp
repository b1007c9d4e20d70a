// CoREC scheme behaviour: pool admission under the storage floor,
// hot/cold transitions, the encoding workflow, and failure handling.
#include "core/corec_scheme.hpp"

#include <gtest/gtest.h>

#include "staging/service.hpp"

namespace corec::core {
namespace {

using staging::ObjectDescriptor;
using staging::ObjectLocation;
using staging::OpResult;
using staging::Protection;
using staging::ServiceOptions;
using staging::StagingService;

ServiceOptions options_8() {
  ServiceOptions opts;
  opts.topology = net::Topology(4, 2, 1);
  opts.domain = geom::BoundingBox::cube(0, 0, 0, 31, 31, 31);
  opts.fit.element_size = 1;
  opts.fit.target_bytes = 64u << 10;
  return opts;
}

CorecOptions default_corec() {
  CorecOptions o;
  o.k = 3;
  o.m = 1;
  o.n_level = 1;
  o.efficiency_floor = 0.67;
  return o;
}

// A floor of 0.5 lets even a single entity be fully replicated —
// convenient for tests that exercise hot/cold transitions in isolation
// (a 0.67 floor on a one-object workload can never admit replication,
// since one replica alone already means 0.5 efficiency).
CorecOptions loose_corec() {
  CorecOptions o = default_corec();
  o.efficiency_floor = 0.5;
  return o;
}

struct Fixture {
  explicit Fixture(CorecOptions o = default_corec(),
                   ServiceOptions so = options_8())
      : scheme_ptr(new CorecScheme(o)),
        service(std::move(so), &sim,
                std::unique_ptr<staging::ResilienceScheme>(scheme_ptr)) {}
  sim::Simulation sim;
  CorecScheme* scheme_ptr;  // owned by service
  StagingService service;

  std::vector<geom::BoundingBox> blocks(std::size_t per_dim = 4) {
    return geom::regular_decomposition(service.options().domain,
                                       {per_dim, per_dim, per_dim});
  }
  Protection protection_of(const geom::BoundingBox& box) {
    const auto* e = service.directory().find_entity(1, box);
    if (e == nullptr) return Protection::kNone;
    return service.directory().find(*e)->protection;
  }
};

TEST(CorecScheme, FirstWritesReplicatedUntilFloorThenEncoded) {
  Fixture f;
  auto blocks = f.blocks();
  for (Version step = 0; step < 1; ++step) {
    for (const auto& b : blocks) {
      ASSERT_TRUE(f.service.put_phantom(1, step, b).status.ok());
    }
    f.service.end_time_step(step);
  }
  std::size_t replicated = 0, encoded = 0;
  f.service.directory().for_each(
      [&](const ObjectDescriptor&, const ObjectLocation& loc) {
        if (loc.protection == Protection::kReplicated) ++replicated;
        if (loc.protection == Protection::kEncoded) ++encoded;
      });
  EXPECT_GT(replicated, 0u);
  EXPECT_GT(encoded, replicated);  // floor allows only ~24%
  // The floor is respected.
  EXPECT_GE(f.service.storage_efficiency(), 0.67 - 0.02);
}

TEST(CorecScheme, StorageFloorHeldAcrossManySteps) {
  Fixture f;
  auto blocks = f.blocks();
  for (Version step = 0; step < 10; ++step) {
    for (const auto& b : blocks) {
      ASSERT_TRUE(f.service.put_phantom(1, step, b).status.ok());
    }
    f.service.end_time_step(step);
    EXPECT_GE(f.service.storage_efficiency(), 0.67 - 0.02)
        << "step " << step;
  }
}

TEST(CorecScheme, ColdEntitiesDemotedAfterIdleWindow) {
  CorecOptions o = loose_corec();
  o.classifier.cold_after = 2;
  o.classifier.enable_spatial = false;
  Fixture f(o);
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  ASSERT_TRUE(f.service.put_phantom(1, 0, box).status.ok());
  EXPECT_EQ(f.protection_of(box), Protection::kReplicated);
  // Idle steps: entity turns cold and gets demoted by the sweep.
  for (Version s = 0; s < 4; ++s) f.service.end_time_step(s);
  EXPECT_EQ(f.protection_of(box), Protection::kEncoded);
  EXPECT_GE(f.scheme_ptr->stats().demotions, 1u);
}

TEST(CorecScheme, HotEntityStaysReplicated) {
  CorecOptions o = loose_corec();
  o.classifier.cold_after = 2;
  Fixture f(o);
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  for (Version s = 0; s < 6; ++s) {
    ASSERT_TRUE(f.service.put_phantom(1, s, box).status.ok());
    f.service.end_time_step(s);
    EXPECT_EQ(f.protection_of(box), Protection::kReplicated)
        << "step " << s;
  }
  EXPECT_EQ(f.scheme_ptr->stats().writes_encoded, 0u);
}

TEST(CorecScheme, WritesNeverPayOnPathEncode) {
  // The Figure 6 write path: every put responds after the replication
  // chain; erasure transitions happen in the background. Even under a
  // floor that forbids any replicated steady state, client writes must
  // carry zero on-path encode cost.
  CorecOptions o = default_corec();
  o.efficiency_floor = 0.75;  // = E_e: nothing may stay replicated
  Fixture f(o);
  auto blocks = f.blocks();
  for (Version s = 0; s < 3; ++s) {
    for (const auto& b : blocks) {
      auto res = f.service.put_phantom(1, s, b);
      ASSERT_TRUE(res.status.ok());
      EXPECT_EQ(res.breakdown.encode, 0);
    }
    f.service.end_time_step(s);
  }
  // All that encoding happened in the background instead.
  EXPECT_GT(f.scheme_ptr->stats().background.encode, 0);
  EXPECT_GT(f.scheme_ptr->stats().writes_encoded, 0u);
}

TEST(CorecScheme, AlternatingRegionsChurnInBackground) {
  // Case-2-style rotation: two regions alternate; under a floor that
  // admits only one of them, the pool membership churns through
  // background transitions while every write stays on the fast path.
  CorecOptions o = default_corec();
  o.efficiency_floor = 0.55;  // one of two entities fits the pool
  o.classifier.cold_after = 1;
  o.classifier.prediction_ttl = 1;
  o.classifier.enable_spatial = false;
  Fixture f(o);
  auto a = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  auto b = geom::BoundingBox::cube(16, 16, 16, 31, 31, 31);
  for (Version s = 0; s < 12; ++s) {
    const auto& target = (s % 2 == 0) ? a : b;
    auto res = f.service.put_phantom(1, s, target);
    ASSERT_TRUE(res.status.ok());
    EXPECT_EQ(res.breakdown.encode, 0);
    f.service.end_time_step(s);
    EXPECT_GE(f.service.storage_efficiency(), 0.55 - 0.02);
  }
  EXPECT_GT(f.scheme_ptr->stats().demotions, 0u);
}

TEST(CorecScheme, RealPayloadSurvivesDemotionAndPromotionCycle) {
  CorecOptions o = loose_corec();
  o.classifier.cold_after = 1;
  o.classifier.enable_spatial = false;
  ServiceOptions so = options_8();
  so.fit.target_bytes = 4096;
  Fixture f(o, so);
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  Bytes payload(static_cast<std::size_t>(box.volume()));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 13 + 7);
  }
  ASSERT_TRUE(f.service.put(1, 0, box, payload).status.ok());
  // Cool down -> demote to stripes.
  for (Version s = 0; s < 4; ++s) f.service.end_time_step(s);
  Bytes out;
  ASSERT_TRUE(f.service.get(1, 4, box, &out).status.ok());
  EXPECT_EQ(out, payload);
  EXPECT_GE(f.scheme_ptr->stats().demotions, 1u);
}

TEST(CorecScheme, ClassifyCostCharged) {
  Fixture f;
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  OpResult res = f.service.put_phantom(1, 0, box);
  ASSERT_TRUE(res.status.ok());
  EXPECT_GT(res.breakdown.classify, 0);
}

TEST(CorecScheme, SurvivesFailureWhileReplicated) {
  Fixture f(loose_corec());
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  Bytes payload(static_cast<std::size_t>(box.volume()), 0xAB);
  ASSERT_TRUE(f.service.put(1, 0, box, payload).status.ok());
  const auto* e = f.service.directory().find_entity(1, box);
  ASSERT_NE(e, nullptr);
  ObjectLocation loc = *f.service.directory().find(*e);
  ASSERT_EQ(loc.protection, Protection::kReplicated);
  f.service.kill_server(loc.primary);
  Bytes out;
  ASSERT_TRUE(f.service.get(1, 0, box, &out).status.ok());
  EXPECT_EQ(out, payload);
}

TEST(CorecScheme, SurvivesFailureWhileEncoded) {
  CorecOptions o = loose_corec();
  o.classifier.cold_after = 1;
  o.classifier.enable_spatial = false;
  Fixture f(o);
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  Bytes payload(static_cast<std::size_t>(box.volume()), 0xCD);
  ASSERT_TRUE(f.service.put(1, 0, box, payload).status.ok());
  for (Version s = 0; s < 4; ++s) f.service.end_time_step(s);
  const auto* e = f.service.directory().find_entity(1, box);
  ASSERT_NE(e, nullptr);
  ObjectLocation loc = *f.service.directory().find(*e);
  ASSERT_EQ(loc.protection, Protection::kEncoded);
  f.service.kill_server(loc.stripe_servers[1]);
  Bytes out;
  ASSERT_TRUE(f.service.get(1, 4, box, &out).status.ok());
  EXPECT_EQ(out, payload);
}

TEST(CorecScheme, DemotionSkipsCorruptReplicaAndEncodesHealthyCopy) {
  // A bit flip on the primary's copy of a cold object: the demotion's
  // CRC probe quarantines that copy and encodes from the healthy
  // replica, so the stripe holds the original bytes.
  CorecOptions o = loose_corec();
  o.classifier.cold_after = 1;
  o.classifier.enable_spatial = false;
  Fixture f(o);
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  Bytes payload(static_cast<std::size_t>(box.volume()));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 29 + 3);
  }
  ASSERT_TRUE(f.service.put(1, 0, box, payload).status.ok());
  const auto* e = f.service.directory().find_entity(1, box);
  ASSERT_NE(e, nullptr);
  const ObjectDescriptor desc = *e;
  ObjectLocation loc = *f.service.directory().find(desc);
  ASSERT_EQ(loc.protection, Protection::kReplicated);
  ASSERT_EQ(loc.replicas.size(), 1u);
  ASSERT_TRUE(f.service.corrupt_at(loc.primary, desc, 100));

  for (Version s = 0; s < 4; ++s) f.service.end_time_step(s);
  ASSERT_EQ(f.protection_of(box), Protection::kEncoded);
  EXPECT_EQ(f.scheme_ptr->stats().demotions, 1u);
  EXPECT_EQ(f.service.integrity().mismatches, 1u);
  EXPECT_EQ(f.service.integrity().quarantined, 1u);

  Bytes out;
  ASSERT_TRUE(f.service.get(1, 4, box, &out).status.ok());
  EXPECT_EQ(out, payload);
  EXPECT_EQ(f.service.integrity().mismatches, 1u)
      << "reading the stripe finds no corrupt shard";
}

TEST(CorecScheme, DemotionAfterQuarantineRetiresEveryCopy) {
  // The primary copy fails its probe and is quarantined mid-demotion;
  // the demotion still retires both replicas through the location it
  // found, and the incremental byte count matches a recount.
  CorecOptions o = loose_corec();
  o.n_level = 2;
  o.efficiency_floor = 0.3;
  o.classifier.cold_after = 1;
  o.classifier.enable_spatial = false;
  Fixture f(o);
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  Bytes payload(static_cast<std::size_t>(box.volume()));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  ASSERT_TRUE(f.service.put(1, 0, box, payload).status.ok());
  const ObjectDescriptor desc = *f.service.directory().find_entity(1, box);
  const ObjectLocation loc = *f.service.directory().find(desc);
  ASSERT_EQ(loc.protection, Protection::kReplicated);
  ASSERT_EQ(loc.replicas.size(), 2u);
  ASSERT_TRUE(f.service.corrupt_at(loc.primary, desc, 7));

  for (Version s = 0; s < 4; ++s) f.service.end_time_step(s);
  ASSERT_EQ(f.protection_of(box), Protection::kEncoded);
  EXPECT_EQ(f.scheme_ptr->stats().demotions, 1u);
  EXPECT_EQ(f.service.integrity().quarantined, 1u);
  EXPECT_FALSE(f.service.server(loc.primary).store.contains(desc));
  for (ServerId r : loc.replicas) {
    EXPECT_FALSE(f.service.server(r).store.contains(desc)) << "replica " << r;
  }
  const ObjectLocation& striped = *f.service.directory().find(desc);
  EXPECT_EQ(f.service.stored_bytes(),
            striped.chunk_size * (striped.k + striped.m));
  EXPECT_EQ(f.service.stored_bytes(), f.service.stored_bytes_recomputed());

  Bytes out;
  ASSERT_TRUE(f.service.get(1, 4, box, &out).status.ok());
  EXPECT_EQ(out, payload);
}

TEST(CorecScheme, TokenSerializesGroupEncodes) {
  // Four servers, two token groups, and large objects whose background
  // encodes (floor = E_e forbids any replicated steady state) overlap:
  // with the token, same-group encodes serialize and accumulate wait.
  auto run = [](bool conflict_avoid) {
    CorecOptions o = default_corec();
    o.efficiency_floor = 0.75;
    o.workflow.conflict_avoid = conflict_avoid;
    staging::ServiceOptions so;
    so.topology = net::Topology(4, 1, 1);
    so.domain = geom::BoundingBox::cube(0, 0, 0, 31, 31, 31);
    so.fit.element_size = 32;        // 128 KiB per 16^3 block
    so.fit.target_bytes = 1u << 20;  // one piece per block
    Fixture f(o, so);
    auto blocks = geom::regular_decomposition(
        f.service.options().domain, {2, 2, 2});
    for (const auto& b : blocks) {
      EXPECT_TRUE(f.service.put_phantom(1, 0, b).status.ok());
    }
    f.service.end_time_step(0);  // executes the queued transitions
    return f.scheme_ptr->workflow().token_wait();
  };
  EXPECT_GT(run(true), 0);
  EXPECT_EQ(run(false), 0);
}

TEST(CorecScheme, WorkflowPicksLeastLoadedEncoder) {
  Fixture f;
  std::vector<ServerId> holders{0, 1};
  // Load server 0 heavily; the workflow must pick server 1.
  f.service.serve_at(0, 0, from_seconds(1.0));
  EXPECT_EQ(f.scheme_ptr->workflow().pick_encoder(holders, 0), 1u);
}

TEST(CorecScheme, EfficiencyAccessorTracksService) {
  Fixture f;
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  ASSERT_TRUE(f.service.put_phantom(1, 0, box).status.ok());
  EXPECT_NEAR(f.scheme_ptr->efficiency(),
              f.service.storage_efficiency(), 1e-9);
}

}  // namespace
}  // namespace corec::core
