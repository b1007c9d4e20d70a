// Chaos / property tests: randomized failure-replacement storms over
// seeded runs. Invariants checked for every seed and mechanism:
//   * no read ever returns corrupted bytes (the mirror check);
//   * with failures spaced beyond the recovery deadline, no data loss;
//   * the directory never references bytes that are not where it says
//     they are (post-run consistency audit);
//   * storage accounting matches the sum of representation sizes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "core/corec_scheme.hpp"
#include "membership/manager.hpp"
#include "meta/meta_client.hpp"
#include "meta/meta_service.hpp"
#include "net/failure.hpp"
#include "resilience/scrubber.hpp"
#include "staging/hyperslab.hpp"
#include "workloads/driver.hpp"
#include "workloads/mechanisms.hpp"
#include "workloads/synthetic.hpp"

namespace corec::workloads {
namespace {

staging::ServiceOptions chaos_service_options() {
  auto opts = table1_service_options();
  opts.domain = geom::BoundingBox::cube(0, 0, 0, 31, 31, 31);
  opts.fit.target_bytes = 4096;
  // COREC_CHAOS_MEMBERSHIP=1 re-runs every storm under pool-map (HRW)
  // placement instead of the static SFC ring, so the CI membership leg
  // exercises recovery and metadata failover with elastic routing.
  if (const char* env = std::getenv("COREC_CHAOS_MEMBERSHIP");
      env != nullptr && *env != '\0' && *env != '0') {
    opts.placement = staging::PlacementMode::kPoolMap;
  }
  return opts;
}

SyntheticOptions chaos_workload() {
  SyntheticOptions o;
  o.domain_extent = 32;
  o.writer_grid = 2;
  o.readers = 4;
  o.time_steps = 12;
  return o;
}

/// Seeds for the parameterized storms. COREC_CHAOS_SEED (a single seed
/// or a comma-separated list) overrides the default sweep so a failing
/// seed printed by a test can be replayed in isolation.
std::vector<std::uint64_t> chaos_seeds() {
  if (const char* env = std::getenv("COREC_CHAOS_SEED");
      env != nullptr && *env != '\0') {
    std::vector<std::uint64_t> seeds;
    std::stringstream ss(env);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) seeds.push_back(std::stoull(tok));
    }
    if (!seeds.empty()) return seeds;
  }
  return {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};
}

/// For every encoded entity carrying real payloads, decode the stripe
/// from its surviving shards and compare the reconstructed bytes
/// against the driver's per-variable mirror. The shard-*size* audit
/// below cannot see stale or mis-encoded contents; this can.
void audit_encoded_mirror(staging::StagingService& service,
                          const WorkloadDriver& driver,
                          const WorkloadPlan& plan, std::uint64_t seed) {
  const std::size_t elem = plan.element_size;
  service.directory().for_each([&](const staging::ObjectDescriptor& desc,
                                   const staging::ObjectLocation& loc) {
    if (loc.protection != staging::Protection::kEncoded) return;
    const Bytes* mirror = driver.mirror(desc.var);
    if (mirror == nullptr) return;
    const std::uint32_t k = loc.k;
    const std::uint32_t n = loc.k + loc.m;
    std::vector<Bytes> blocks(n, Bytes(loc.chunk_size, 0));
    std::vector<std::size_t> erased;
    bool phantom = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      ServerId s = loc.stripe_servers[i];
      const staging::StoredObject* stored =
          service.alive(s)
              ? service.server(s).store.find(desc.shard_of(
                    static_cast<staging::ShardIndex>(1 + i)))
              : nullptr;
      if (stored == nullptr) {
        erased.push_back(i);
        continue;
      }
      if (stored->object.phantom) {
        phantom = true;
        break;
      }
      blocks[i] = stored->object.data.to_bytes();
      blocks[i].resize(loc.chunk_size, 0);
    }
    if (phantom) return;
    // Beyond-tolerance failures are loss, not corruption: skip.
    if (n - erased.size() < k) return;
    if (!erased.empty()) {
      std::vector<MutableByteSpan> spans;
      spans.reserve(n);
      for (auto& b : blocks) spans.emplace_back(b);
      ASSERT_TRUE(service.codec(loc.k, loc.m).decode(spans, erased).ok())
          << "seed " << seed << " entity " << desc.to_string();
    }
    Bytes payload;
    payload.reserve(static_cast<std::size_t>(loc.chunk_size) * k);
    for (std::uint32_t i = 0; i < k; ++i) {
      payload.insert(payload.end(), blocks[i].begin(), blocks[i].end());
    }
    payload.resize(loc.logical_size);
    auto expected =
        staging::extract_region(*mirror, plan.domain, desc.box, elem);
    ASSERT_TRUE(expected.ok()) << "seed " << seed;
    EXPECT_TRUE(payload == expected.value())
        << "decoded bytes diverge from mirror; seed " << seed
        << " entity " << desc.to_string();
  });
}

/// Audits that every directory record is backed by stored bytes on the
/// servers it names (dead servers excused).
void audit_directory(staging::StagingService& service) {
  service.directory().for_each([&](const staging::ObjectDescriptor& desc,
                                   const staging::ObjectLocation& loc) {
    if (loc.protection == staging::Protection::kEncoded) {
      for (std::size_t i = 0; i < loc.stripe_servers.size(); ++i) {
        ServerId s = loc.stripe_servers[i];
        if (!service.alive(s)) continue;
        // A live stripe member either holds its shard or lost it to a
        // failure and awaits repair — it must never hold a *wrong*
        // shard size.
        const auto* stored = service.server(s).store.find(
            desc.shard_of(static_cast<staging::ShardIndex>(1 + i)));
        if (stored != nullptr) {
          EXPECT_EQ(stored->object.logical_size, loc.chunk_size)
              << desc.to_string();
        }
      }
    } else {
      if (service.alive(loc.primary)) {
        const auto* stored = service.server(loc.primary).store.find(desc);
        if (stored != nullptr) {
          EXPECT_EQ(stored->object.logical_size, loc.logical_size);
        }
      }
    }
  });
}

/// Sums the bytes each directory record implies and compares with the
/// stores' accounting (tolerating entries currently lost to failures).
void audit_accounting(staging::StagingService& service) {
  std::size_t implied = 0;
  service.directory().for_each([&](const staging::ObjectDescriptor&,
                                   const staging::ObjectLocation& loc) {
    if (loc.protection == staging::Protection::kEncoded) {
      implied += loc.chunk_size * (loc.k + loc.m);
    } else {
      implied += loc.logical_size * (1 + loc.replicas.size());
    }
  });
  // Stores can only hold *less* than implied (failures drop entries),
  // never more (no leaks).
  EXPECT_LE(service.stored_bytes(), implied);
  // Incremental byte accounting agrees with the per-store sums.
  EXPECT_EQ(service.stored_bytes(), service.stored_bytes_recomputed());
}

class ChaosSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSeedTest, CorecSurvivesSpacedFailures) {
  std::uint64_t seed = GetParam();
  MechanismParams params;
  params.recovery.mtbf_seconds = 0.08;  // lazy deadline 20 ms

  sim::Simulation sim;
  staging::StagingService service(chaos_service_options(), &sim,
                                  make_scheme(Mechanism::kCorec, params));
  WorkloadDriver driver(&service, {.verify_reads = true});

  // One random kill+replace cycle every ~3 steps, never overlapping:
  // within the m=1 tolerance, so zero loss is required.
  Rng rng(seed);
  for (Version step = 2; step + 2 < chaos_workload().time_steps;
       step += 3) {
    auto victim = static_cast<ServerId>(
        rng.uniform(static_cast<std::uint32_t>(service.num_servers())));
    driver.add_hook(step, [&service, victim] {
      service.kill_server(victim);
    });
    driver.add_hook(step + 1, [&service, victim] {
      service.replace_server(victim);
    });
  }

  auto plan = make_synthetic_case(3, chaos_workload());
  auto metrics = driver.run(plan);
  EXPECT_EQ(metrics.corrupt_reads(), 0u) << "seed " << seed;
  EXPECT_EQ(metrics.data_loss_reads(), 0u) << "seed " << seed;
  audit_directory(service);
  audit_accounting(service);
  audit_encoded_mirror(service, driver, plan, seed);
}

TEST_P(ChaosSeedTest, ErasureNeverCorruptsEvenWithLoss) {
  // Overlapping double failures CAN exceed m=1 tolerance: loss is then
  // legitimate, but corruption never is.
  std::uint64_t seed = GetParam();
  sim::Simulation sim;
  staging::StagingService service(chaos_service_options(), &sim,
                                  make_scheme(Mechanism::kErasure));
  WorkloadDriver driver(&service, {.verify_reads = true});
  Rng rng(seed * 31 + 7);
  for (Version step = 1; step + 1 < chaos_workload().time_steps;
       step += 2) {
    auto a = static_cast<ServerId>(
        rng.uniform(static_cast<std::uint32_t>(service.num_servers())));
    auto b = static_cast<ServerId>(
        rng.uniform(static_cast<std::uint32_t>(service.num_servers())));
    driver.add_hook(step, [&service, a] { service.kill_server(a); });
    driver.add_hook(step, [&service, b] { service.kill_server(b); });
    driver.add_hook(step + 1, [&service, a] {
      service.replace_server(a);
    });
    driver.add_hook(step + 1, [&service, b] {
      service.replace_server(b);
    });
  }
  auto plan = make_synthetic_case(4, chaos_workload());
  auto metrics = driver.run(plan);
  EXPECT_EQ(metrics.corrupt_reads(), 0u) << "seed " << seed;
  audit_directory(service);
  audit_accounting(service);
  audit_encoded_mirror(service, driver, plan, seed);
}

TEST_P(ChaosSeedTest, ReplicationWithTwoCopiesSurvivesSingles) {
  std::uint64_t seed = GetParam();
  MechanismParams params;
  params.n_level = 2;  // tolerate the occasional overlap
  sim::Simulation sim;
  staging::StagingService service(
      chaos_service_options(), &sim,
      make_scheme(Mechanism::kReplication, params));
  WorkloadDriver driver(&service, {.verify_reads = true});
  Rng rng(seed * 131 + 3);
  for (Version step = 2; step + 1 < chaos_workload().time_steps;
       step += 2) {
    auto victim = static_cast<ServerId>(
        rng.uniform(static_cast<std::uint32_t>(service.num_servers())));
    driver.add_hook(step, [&service, victim] {
      service.kill_server(victim);
    });
    driver.add_hook(step + 1, [&service, victim] {
      service.replace_server(victim);
    });
  }
  auto metrics = driver.run(make_synthetic_case(1, chaos_workload()));
  EXPECT_EQ(metrics.corrupt_reads(), 0u) << "seed " << seed;
  EXPECT_EQ(metrics.data_loss_reads(), 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSeedTest,
                         ::testing::ValuesIn(chaos_seeds()));

TEST_P(ChaosSeedTest, ReplicatedMetadataSurvivesMixedFailures) {
  // CoREC data plane + replicated metadata plane under a rotating storm
  // that alternates whole-node kills (hitting metadata replica hosts on
  // purpose) with pure metadata-process kills of the current primary.
  std::uint64_t seed = GetParam();
  MechanismParams params;
  params.recovery.mtbf_seconds = 0.08;

  sim::Simulation sim;
  staging::StagingService service(chaos_service_options(), &sim,
                                  make_scheme(Mechanism::kCorec, params));
  meta::MetaService meta_service(&service, {});
  meta::MetaClient meta_client(&meta_service);
  service.attach_metadata(&meta_client);
  WorkloadDriver driver(&service, {.verify_reads = true});

  Rng rng(seed * 977 + 11);
  auto meta_hosts = meta_service.replica_hosts();
  for (Version step = 2; step + 2 < chaos_workload().time_steps;
       step += 3) {
    if (rng.uniform(2) == 0) {
      // Whole-node kill of a random server, biased toward the replica
      // group half the time so metadata failover is actually exercised.
      ServerId victim =
          rng.uniform(2) == 0
              ? meta_hosts[rng.uniform(
                    static_cast<std::uint32_t>(meta_hosts.size()))]
              : static_cast<ServerId>(rng.uniform(
                    static_cast<std::uint32_t>(service.num_servers())));
      driver.add_hook(step, [&service, victim] {
        service.kill_server(victim);
      });
      driver.add_hook(step + 1, [&service, victim] {
        service.replace_server(victim);
      });
    } else {
      // Pure metadata-process kill of whoever is primary at that step,
      // with the process restarted (empty, catching up) one step later
      // — otherwise repeated elections drain the replica group.
      auto killed = std::make_shared<ServerId>(kInvalidServer);
      driver.add_hook(step, [&meta_service, killed] {
        *killed = meta_service.primary_host();
        meta_service.fail_replica(*killed);
      });
      driver.add_hook(step + 1, [&meta_service, killed] {
        if (*killed != kInvalidServer) {
          meta_service.restore_replica(*killed);
        }
      });
    }
  }

  auto plan = make_synthetic_case(3, chaos_workload());
  auto metrics = driver.run(plan);
  EXPECT_TRUE(meta_service.available()) << "seed " << seed;
  EXPECT_EQ(metrics.corrupt_reads(), 0u) << "seed " << seed;
  EXPECT_EQ(metrics.data_loss_reads(), 0u) << "seed " << seed;
  EXPECT_EQ(meta_service.stats().ops_lost_unacked, 0u) << "seed " << seed;
  audit_directory(service);
  audit_accounting(service);
  audit_encoded_mirror(service, driver, plan, seed);
}

TEST(Chaos, MtbfDrivenStormNeverCorrupts) {
  // Full random storm through the FailureInjector, phantom payloads
  // for speed plus a real-payload spot check.
  MechanismParams params;
  params.recovery.mtbf_seconds = 0.1;
  sim::Simulation sim;
  staging::StagingService service(chaos_service_options(), &sim,
                                  make_scheme(Mechanism::kCorec, params));
  net::FailureInjector injector(
      &sim, [&service](ServerId s) { service.kill_server(s); },
      [&service](ServerId s) { service.replace_server(s); });
  Rng rng(4242);
  injector.schedule_mtbf(0.05, from_seconds(0.005), from_seconds(0.4),
                         service.num_servers(), from_seconds(0.01),
                         &rng);
  WorkloadDriver driver(&service, {.verify_reads = true});
  auto plan = make_synthetic_case(3, chaos_workload());
  auto metrics = driver.run(plan);
  EXPECT_EQ(metrics.corrupt_reads(), 0u);
  audit_directory(service);
  audit_encoded_mirror(service, driver, plan, /*seed=*/4242);
}

/// End-of-run membership audit: every whole object the directory
/// records must be readable end-to-end (bytes matching the mirror) AND
/// placed exactly where the final pool map says it belongs. Descriptors
/// are collected first — the reads below can trigger repair upserts,
/// which would invalidate a live directory iteration.
void audit_membership_placement(staging::StagingService& service,
                                const WorkloadDriver& driver,
                                const WorkloadPlan& plan,
                                std::uint64_t seed) {
  const std::size_t elem = plan.element_size;
  std::vector<staging::ObjectDescriptor> descs;
  service.directory().for_each([&](const staging::ObjectDescriptor& desc,
                                   const staging::ObjectLocation&) {
    if (desc.shard == staging::kWholeObject) descs.push_back(desc);
  });
  for (const auto& desc : descs) {
    Bytes out;
    auto r = service.get(desc.var, desc.version, desc.box, &out);
    EXPECT_TRUE(r.status.ok())
        << "seed " << seed << " unreadable " << desc.to_string();
    if (const Bytes* mirror = driver.mirror(desc.var);
        mirror != nullptr && r.status.ok()) {
      auto expected =
          staging::extract_region(*mirror, plan.domain, desc.box, elem);
      ASSERT_TRUE(expected.ok()) << "seed " << seed;
      EXPECT_TRUE(out == expected.value())
          << "seed " << seed << " bytes diverge from mirror for "
          << desc.to_string();
    }
    const staging::ObjectLocation* locp = service.directory().find(desc);
    if (locp == nullptr) continue;  // retired by a repair during the audit
    const staging::ObjectLocation& loc = *locp;
    if (loc.protection == staging::Protection::kEncoded) {
      const std::size_t n = loc.k + static_cast<std::size_t>(loc.m);
      auto desired = service.placement_of(desc.box, n);
      if (desired.size() < n) continue;
      EXPECT_EQ(loc.stripe_servers, desired)
          << "seed " << seed << " misplaced stripe " << desc.to_string();
    } else {
      const std::size_t count = 1 + loc.replicas.size();
      auto desired = service.placement_of(desc.box, count);
      if (desired.size() < count) continue;
      std::vector<ServerId> holders;
      holders.push_back(loc.primary);
      holders.insert(holders.end(), loc.replicas.begin(),
                     loc.replicas.end());
      std::sort(holders.begin(), holders.end());
      std::sort(desired.begin(), desired.end());
      EXPECT_EQ(holders, desired)
          << "seed " << seed << " misplaced copies " << desc.to_string();
    }
  }
}

TEST_P(ChaosSeedTest, MembershipTransitionsRaceTheStorm) {
  // Pool-map placement with the full elastic-membership lifecycle
  // racing the workload: a join (step 3), a kill+replace recovery cycle
  // (steps 4/5), a drain (step 6) and a back-to-back drain+join
  // (step 9), all while a continuous scrubber sweeps the directory.
  // After the run a conform-only rebalance sweeps up any straggler
  // placed during a kill window, then the audit asserts every object is
  // readable and placed per the final map version.
  std::uint64_t seed = GetParam();
  MechanismParams params;
  params.recovery.mtbf_seconds = 0.08;

  auto opts = chaos_service_options();
  opts.placement = staging::PlacementMode::kPoolMap;  // always, here
  sim::Simulation sim;
  staging::StagingService service(opts, &sim,
                                  make_scheme(Mechanism::kCorec, params));
  WorkloadDriver driver(&service, {.verify_reads = true});

  membership::ManagerOptions mm;
  mm.replication_group = params.n_level + 1;
  membership::Manager manager(&service, mm);

  resilience::ScrubOptions scrub;
  scrub.mtbf_seconds = 0.08;
  resilience::Scrubber scrubber(&service, scrub);
  scrubber.start();

  Rng rng(seed * 769 + 5);
  const std::uint32_t initial =
      static_cast<std::uint32_t>(service.num_servers());
  const auto kill_victim = static_cast<ServerId>(rng.uniform(initial));
  const auto drain_a = static_cast<ServerId>(rng.uniform(initial));
  const auto drain_b = static_cast<ServerId>(
      (drain_a + 1 + rng.uniform(initial - 1)) % initial);

  driver.add_hook(3, [&] {
    manager.begin_join(sim.now());
    manager.run_to_completion(sim.now());
  });
  driver.add_hook(4, [&service, kill_victim] {
    service.kill_server(kill_victim);
  });
  driver.add_hook(5, [&service, kill_victim] {
    service.replace_server(kill_victim);
  });
  driver.add_hook(6, [&, seed] {
    ASSERT_TRUE(manager.begin_drain(drain_a, sim.now()).ok())
        << "seed " << seed;
    manager.run_to_completion(sim.now());
  });
  driver.add_hook(9, [&, seed] {
    // Back-to-back shrink + grow: the second transition starts under
    // the map version the first one just published.
    ASSERT_TRUE(manager.begin_drain(drain_b, sim.now()).ok())
        << "seed " << seed;
    manager.run_to_completion(sim.now());
    manager.begin_join(sim.now());
    manager.run_to_completion(sim.now());
  });

  auto plan = make_synthetic_case(3, chaos_workload());
  auto metrics = driver.run(plan);
  EXPECT_EQ(metrics.corrupt_reads(), 0u) << "seed " << seed;
  EXPECT_EQ(metrics.data_loss_reads(), 0u) << "seed " << seed;
  ASSERT_EQ(manager.history().size(), 4u) << "seed " << seed;
  for (const auto& t : manager.history()) {
    EXPECT_TRUE(t.complete) << "seed " << seed << " " << to_string(t.kind);
    EXPECT_FALSE(t.aborted) << "seed " << seed;
  }
  EXPECT_EQ(service.pool_map().state_of(drain_a),
            membership::TargetState::kDown);
  EXPECT_EQ(service.pool_map().state_of(drain_b),
            membership::TargetState::kDown);

  // Conform stragglers (objects placed while kill_victim was dead route
  // around it and look misplaced once it is back), then audit under the
  // final map.
  ASSERT_TRUE(manager.begin_rebalance(sim.now()).ok());
  manager.run_to_completion(sim.now());
  audit_directory(service);
  audit_accounting(service);
  audit_encoded_mirror(service, driver, plan, seed);
  audit_membership_placement(service, driver, plan, seed);
}

}  // namespace
}  // namespace corec::workloads
