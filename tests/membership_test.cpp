// Property suite for the versioned pool map and HRW placement:
// determinism across processes (a decoded map places identically),
// balance (chi-square bound on per-target counts), minimal movement on
// join/drain vs a naive mod-rehash, map version monotonicity, and
// serialization round-trip hardening. Plus transition-manager behavior
// against a virtual-time staging service: join rebalance, drain
// migration, evict rebuild, failpoint aborts and resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/buffer.hpp"
#include "common/failpoint.hpp"
#include "membership/manager.hpp"
#include "membership/placement.hpp"
#include "membership/pool_map.hpp"
#include "sim/simulation.hpp"
#include "staging/service.hpp"
#include "workloads/mechanisms.hpp"

namespace corec::membership {
namespace {

constexpr std::size_t kObjects = 10000;

std::uint64_t key_of(std::size_t i) { return mix64(0xfeedULL + i); }

// ---- placement properties ------------------------------------------------

TEST(Placement, DeterministicAcrossProcesses) {
  // A map rebuilt from its serialized form (what a second process or a
  // redirected client holds) must place every key identically.
  PoolMap map = PoolMap::initial(16, 4, 1);
  Bytes blob;
  map.encode(&blob);
  auto remote = PoolMap::decode(blob.data(), blob.size());
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(map.digest(), remote->digest());
  for (std::size_t i = 0; i < kObjects; ++i) {
    auto here = place(map, key_of(i), 4);
    auto there = place(*remote, key_of(i), 4);
    EXPECT_EQ(here, there) << "key " << i;
  }
}

TEST(Placement, RankingIsDistinctServers) {
  PoolMap map = PoolMap::initial(8, 4, 1);
  for (std::size_t i = 0; i < 512; ++i) {
    auto ranked = place(map, key_of(i), 5);
    ASSERT_EQ(ranked.size(), 5u);
    std::set<ServerId> uniq(ranked.begin(), ranked.end());
    EXPECT_EQ(uniq.size(), ranked.size()) << "key " << i;
  }
}

TEST(Placement, PlaceOneIsRankZeroOfPlace) {
  // The allocation-free primary scan must agree with the full ranking
  // on maps holding targets in every state, including a map with no
  // placement-eligible target at all.
  PoolMap mixed = PoolMap::initial(12, 4, 1);
  ASSERT_TRUE(mixed.set_state(1, TargetState::kDrain).ok());
  ASSERT_TRUE(mixed.set_state(6, TargetState::kDrain).ok());
  ASSERT_TRUE(mixed.set_state(3, TargetState::kDown).ok());
  ASSERT_TRUE(mixed.set_state(9, TargetState::kDown).ok());
  mixed.add_target(3, 0);  // JOINING
  mixed.add_target(3, 1);  // JOINING
  PoolMap none = PoolMap::initial(2, 2, 1);
  ASSERT_TRUE(none.set_state(0, TargetState::kDrain).ok());
  ASSERT_TRUE(none.set_state(1, TargetState::kDown).ok());
  for (const PoolMap* map : {&mixed, &none}) {
    for (std::size_t i = 0; i < kObjects; ++i) {
      const auto ranked = place(*map, key_of(i), 1);
      const ServerId expect = ranked.empty() ? kInvalidServer : ranked[0];
      ASSERT_EQ(place_one(*map, key_of(i)), expect) << "key " << i;
    }
  }
}

TEST(Placement, BalancedChiSquare) {
  // Per-target primary counts at 10k objects: chi-square against the
  // uniform expectation stays under the p=0.001 critical value for
  // targets-1 degrees of freedom (15 dof -> 37.70).
  constexpr std::size_t kTargets = 16;
  PoolMap map = PoolMap::initial(kTargets, 4, 1);
  std::vector<std::size_t> counts(kTargets, 0);
  for (std::size_t i = 0; i < kObjects; ++i) {
    ServerId s = place_one(map, key_of(i));
    ASSERT_LT(s, kTargets);
    ++counts[s];
  }
  const double expected =
      static_cast<double>(kObjects) / static_cast<double>(kTargets);
  double chi2 = 0;
  for (std::size_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 37.70) << "placement skew beyond p=0.001";
}

TEST(Placement, JoinMovesMinimalFraction) {
  // Adding the 17th target should move ~1/17 of primaries; a naive
  // mod-rehash moves ~16/17. Bound: under 2x the HRW expectation and
  // under a quarter of the rehash fraction.
  PoolMap before = PoolMap::initial(16, 4, 1);
  PoolMap after = before;
  after.add_target(0, 0);
  std::size_t moved = 0, naive_moved = 0;
  for (std::size_t i = 0; i < kObjects; ++i) {
    if (place_one(before, key_of(i)) != place_one(after, key_of(i))) {
      ++moved;
    }
    if (key_of(i) % 16 != key_of(i) % 17) ++naive_moved;
  }
  const double frac = static_cast<double>(moved) / kObjects;
  const double naive = static_cast<double>(naive_moved) / kObjects;
  EXPECT_LT(frac, 2.0 / 17.0);
  EXPECT_LT(frac, naive / 4.0);
}

TEST(Placement, DrainMovesOnlyTheDrainedTargetsKeys) {
  // HRW rank 0 is exact here: removing a target from eligibility
  // changes a key's primary iff that target WAS its primary.
  PoolMap before = PoolMap::initial(16, 4, 1);
  PoolMap after = before;
  ASSERT_TRUE(after.set_state(5, TargetState::kDrain).ok());
  for (std::size_t i = 0; i < kObjects; ++i) {
    ServerId was = place_one(before, key_of(i));
    ServerId now = place_one(after, key_of(i));
    if (was == 5) {
      EXPECT_NE(now, 5u);
    } else {
      EXPECT_EQ(now, was) << "key " << i << " moved without cause";
    }
  }
}

TEST(Placement, DrainedTargetStaysReadableButIneligible) {
  PoolMap map = PoolMap::initial(4, 4, 1);
  ASSERT_TRUE(map.set_state(2, TargetState::kDrain).ok());
  EXPECT_TRUE(map.readable(2));
  EXPECT_EQ(map.placement_count(), 3u);
  for (std::size_t i = 0; i < 512; ++i) {
    auto ranked = place(map, key_of(i), 3);
    EXPECT_EQ(std::count(ranked.begin(), ranked.end(), 2u), 0)
        << "drained target still receiving placements";
  }
  ASSERT_TRUE(map.set_state(2, TargetState::kDown).ok());
  EXPECT_FALSE(map.readable(2));
}

// ---- map versioning ------------------------------------------------------

TEST(PoolMapVersion, EveryMutationBumpsMonotonically) {
  PoolMap map = PoolMap::initial(4, 4, 1);
  std::uint64_t v = map.version();
  EXPECT_EQ(v, 1u);
  ServerId added = map.add_target(1, 0);
  EXPECT_EQ(added, 4u);
  EXPECT_EQ(map.version(), v + 1);
  EXPECT_EQ(map.state_of(added), TargetState::kJoining);
  ASSERT_TRUE(map.set_state(added, TargetState::kUp).ok());
  EXPECT_EQ(map.version(), v + 2);
  // Rejected transitions must NOT bump the version.
  EXPECT_FALSE(map.set_state(99, TargetState::kDown).ok());
  EXPECT_FALSE(map.set_state(0, TargetState::kUp).ok());  // no-op
  EXPECT_EQ(map.version(), v + 2);
}

TEST(PoolMapVersion, AdoptTakesStrictlyNewerOnly) {
  PoolMap a = PoolMap::initial(4, 4, 1);
  PoolMap b = a;
  b.add_target(0, 0);
  ASSERT_GT(b.version(), a.version());
  PoolMap stale = a;
  EXPECT_TRUE(a.adopt(b));
  EXPECT_EQ(a.version(), b.version());
  EXPECT_EQ(a.digest(), b.digest());
  // Same version and older versions are refused: convergence never
  // moves backwards.
  EXPECT_FALSE(a.adopt(b));
  EXPECT_FALSE(a.adopt(stale));
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(PoolMapWire, RoundTripAndHardening) {
  PoolMap map = PoolMap::initial(6, 3, 2);
  map.add_target(2, 1);
  ASSERT_TRUE(map.set_state(1, TargetState::kDrain).ok());
  Bytes blob;
  map.encode(&blob);
  auto back = PoolMap::decode(blob.data(), blob.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->version(), map.version());
  ASSERT_EQ(back->size(), map.size());
  for (std::size_t i = 0; i < map.size(); ++i) {
    EXPECT_EQ(back->targets()[i].id, map.targets()[i].id);
    EXPECT_EQ(back->targets()[i].cabinet, map.targets()[i].cabinet);
    EXPECT_EQ(back->targets()[i].node, map.targets()[i].node);
    EXPECT_EQ(back->targets()[i].state, map.targets()[i].state);
    EXPECT_EQ(back->targets()[i].state_version,
              map.targets()[i].state_version);
  }
  EXPECT_EQ(back->digest(), map.digest());

  // Truncations at every byte boundary are rejected, never crash.
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    EXPECT_FALSE(PoolMap::decode(blob.data(), cut).ok()) << "cut " << cut;
  }
  // Bad format byte.
  Bytes bad = blob;
  bad[0] = 0x7F;
  EXPECT_FALSE(PoolMap::decode(bad.data(), bad.size()).ok());
}

// ---- transition manager against a staging service ------------------------

staging::ServiceOptions pool_service_options() {
  auto opts = workloads::table1_service_options();
  opts.domain = geom::BoundingBox::cube(0, 0, 0, 31, 31, 31);
  opts.fit.target_bytes = 4096;
  opts.placement = staging::PlacementMode::kPoolMap;
  return opts;
}

workloads::MechanismParams replication_params() {
  workloads::MechanismParams p;
  p.n_level = 1;  // primary + 1 replica
  return p;
}

ManagerOptions manager_options() {
  ManagerOptions o;
  o.batch_objects = 8;
  o.replication_group = 2;
  return o;
}

/// Distinct 8^3 regions tiling the 32^3 test domain (one staged object
/// each at target_bytes=4096).
geom::BoundingBox box_of(int i) {
  const int x = (i % 4) * 8;
  const int y = ((i / 4) % 4) * 8;
  const int z = (i / 16) * 8;
  return geom::BoundingBox::cube(x, y, z, x + 7, y + 7, z + 7);
}

/// Checks that every directory record matches the placement the
/// service's current pool map dictates: set-equality for replicated
/// objects (the conform no-op keeps any permutation), slot-exact for
/// encoded stripes.
void expect_conformant(staging::StagingService& service) {
  service.directory().for_each([&](const staging::ObjectDescriptor& desc,
                                   const staging::ObjectLocation& loc) {
    if (desc.shard != staging::kWholeObject) return;
    if (loc.protection == staging::Protection::kEncoded) {
      const std::size_t n = loc.k + static_cast<std::size_t>(loc.m);
      auto desired = service.placement_of(desc.box, n);
      if (desired.size() < n) return;  // degraded: conform skipped it
      EXPECT_EQ(loc.stripe_servers, desired) << desc.to_string();
    } else {
      const std::size_t count = 1 + loc.replicas.size();
      auto desired = service.placement_of(desc.box, count);
      if (desired.size() < count) return;
      std::vector<ServerId> holders;
      holders.push_back(loc.primary);
      holders.insert(holders.end(), loc.replicas.begin(),
                     loc.replicas.end());
      std::sort(holders.begin(), holders.end());
      std::sort(desired.begin(), desired.end());
      EXPECT_EQ(holders, desired) << desc.to_string();
    }
  });
}

struct ManagerFixture {
  ManagerFixture()
      : service(pool_service_options(), &sim,
                workloads::make_scheme(workloads::Mechanism::kReplication,
                                       replication_params())),
        manager(&service, manager_options()) {}

  /// Stages `count` distinct 512-byte objects under variable `var`.
  SimTime put_all(VarId var, int count) {
    SimTime t = 0;
    for (int i = 0; i < count; ++i) {
      Bytes data(512);
      for (std::size_t b = 0; b < data.size(); ++b) {
        data[b] = static_cast<std::uint8_t>(var * 31 + i * 7 + b);
      }
      auto result = service.put(var, 1, box_of(i), data);
      EXPECT_TRUE(result.status.ok());
      t = std::max(t, result.completed);
    }
    return t;
  }

  sim::Simulation sim;
  staging::StagingService service;
  Manager manager;
};

TEST(Manager, JoinRebalancesMinimallyAndConforms) {
  ManagerFixture fx;
  SimTime t = fx.put_all(7, 32);
  const std::size_t before = fx.service.num_servers();
  const std::uint64_t v0 = fx.service.pool_map().version();

  ServerId id = fx.manager.begin_join(t);
  EXPECT_EQ(id, before);
  EXPECT_EQ(fx.service.pool_map().state_of(id), TargetState::kJoining);
  SimTime done = fx.manager.run_to_completion(t);
  EXPECT_GE(done, t);
  ASSERT_EQ(fx.manager.history().size(), 1u);
  const auto& stats = fx.manager.history().back();
  EXPECT_TRUE(stats.complete);
  EXPECT_FALSE(stats.aborted);
  EXPECT_EQ(stats.kind, TransitionKind::kJoin);
  EXPECT_EQ(stats.objects_scanned, 32u);
  // Join publishes two versions past the pre-join map (JOINING + UP).
  EXPECT_EQ(fx.service.pool_map().version(), v0 + 2);
  EXPECT_EQ(fx.service.pool_map().state_of(id), TargetState::kUp);
  // Minimal movement: a 9th server enters the top-2 HRW ranking of
  // roughly 2/9 of 32 two-copy objects; a full reshuffle would move
  // nearly all of them.
  EXPECT_GT(stats.objects_moved, 0u);
  EXPECT_LT(stats.objects_moved, 16u);
  EXPECT_GT(stats.bytes_moved, 0u);
  expect_conformant(fx.service);
}

TEST(Manager, DrainEmptiesTargetAndRetiresIt) {
  ManagerFixture fx;
  SimTime t = fx.put_all(8, 32);
  const ServerId victim = 3;
  ASSERT_TRUE(fx.manager.begin_drain(victim, t).ok());
  EXPECT_EQ(fx.service.pool_map().state_of(victim), TargetState::kDrain);
  fx.manager.run_to_completion(t);
  EXPECT_EQ(fx.service.pool_map().state_of(victim), TargetState::kDown);
  // Nothing may remain on the drained server, and every object must be
  // placed per the post-drain map.
  EXPECT_EQ(fx.service.server(victim).store.count(), 0u);
  expect_conformant(fx.service);

  // A second drain of the same target is rejected (not UP).
  EXPECT_FALSE(fx.manager.begin_drain(victim, t).ok());
}

TEST(Manager, EvictRebuildsFromSurvivors) {
  ManagerFixture fx;
  SimTime t = fx.put_all(9, 32);
  const ServerId victim = 2;
  ASSERT_TRUE(fx.manager.begin_evict(victim, t).ok());
  EXPECT_FALSE(fx.service.alive(victim));
  EXPECT_EQ(fx.service.pool_map().state_of(victim), TargetState::kDown);
  fx.manager.run_to_completion(t);
  const auto& stats = fx.manager.history().back();
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.objects_skipped, 0u) << "copy lost without rebuild";
  expect_conformant(fx.service);
  // Restored redundancy: no record names the evicted server anymore.
  fx.service.directory().for_each(
      [&](const staging::ObjectDescriptor& desc,
          const staging::ObjectLocation& loc) {
        if (desc.shard != staging::kWholeObject) return;
        EXPECT_NE(loc.primary, victim) << desc.to_string();
        for (ServerId r : loc.replicas) EXPECT_NE(r, victim);
      });
}

TEST(Manager, RebuildKillAbortsAndRebalanceResumes) {
  ManagerFixture fx;
  SimTime t = fx.put_all(10, 32);
  ServerId id = kInvalidServer;
  {
    failpoint::ScopedFailpoint kill(
        "member.rebuild.kill",
        {.action = failpoint::Action::kError, .max_hits = 1, .skip = 4});
    id = fx.manager.begin_join(t);
    fx.manager.run_to_completion(t);
    ASSERT_FALSE(fx.manager.history().empty());
    EXPECT_TRUE(fx.manager.history().back().aborted);
    EXPECT_FALSE(fx.manager.history().back().complete);
    // Aborted mid-sweep: the new target stays JOINING (still placement-
    // eligible), the directory stays authoritative, and a conform-only
    // rebalance finishes the job.
    EXPECT_EQ(fx.service.pool_map().state_of(id), TargetState::kJoining);
  }
  ASSERT_TRUE(fx.manager.begin_rebalance(t).ok());
  fx.manager.run_to_completion(t);
  EXPECT_TRUE(fx.manager.history().back().complete);
  expect_conformant(fx.service);
}

TEST(Manager, JoinStallFailpointDelaysSweep) {
  ManagerFixture fx;
  SimTime t = fx.put_all(11, 8);
  failpoint::ScopedFailpoint stall(
      "member.join.stall",
      {.action = failpoint::Action::kDelay, .arg = 5'000'000});
  fx.manager.begin_join(t);
  SimTime done = fx.manager.run_to_completion(t);
  EXPECT_GE(done, t + 5'000'000) << "stall failpoint had no effect";
}

TEST(Manager, DrainGuards) {
  ManagerFixture fx;
  // Unknown target.
  EXPECT_FALSE(fx.manager.begin_drain(99, 0).ok());
  // Draining down to one eligible target is allowed; draining the last
  // one is not.
  const ServerId last =
      static_cast<ServerId>(fx.service.num_servers() - 1);
  for (ServerId s = 0; s < last; ++s) {
    ASSERT_TRUE(fx.manager.begin_drain(s, 0).ok()) << "server " << s;
    fx.manager.run_to_completion(0);
  }
  EXPECT_EQ(fx.service.pool_map().placement_count(), 1u);
  EXPECT_FALSE(fx.manager.begin_drain(last, 0).ok());
}

TEST(Manager, MapReplicatesThroughMetaPlane) {
  // Transitions publish the map through the metadata plane so followers
  // and redirected clients converge on the newest version.
  ManagerFixture fx;
  EXPECT_EQ(fx.service.directory().map_version(), 0u);
  SimTime t = fx.put_all(12, 8);
  fx.manager.begin_join(t);
  fx.manager.run_to_completion(t);
  EXPECT_EQ(fx.service.directory().map_version(),
            fx.service.pool_map().version());
}

}  // namespace
}  // namespace corec::membership
