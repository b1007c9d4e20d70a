// Tests of the replicated metadata service: op-log mechanics, replica
// durability accounting, deterministic failover, and the end-to-end
// guarantee that killing the metadata primary mid-workload loses no
// acknowledged directory state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "meta/meta_client.hpp"
#include "meta/meta_log.hpp"
#include "meta/meta_replica.hpp"
#include "meta/meta_service.hpp"
#include "staging/wire.hpp"
#include "workloads/driver.hpp"
#include "workloads/mechanisms.hpp"
#include "workloads/synthetic.hpp"

namespace corec {
namespace {

using meta::MetaClient;
using meta::MetaLog;
using meta::MetaOptions;
using meta::MetaReplica;
using meta::MetaService;
using staging::Directory;
using staging::MetaOpKind;
using staging::ObjectDescriptor;
using staging::ObjectLocation;
using staging::OpRecord;
using workloads::Mechanism;
using workloads::MechanismParams;
using workloads::SyntheticOptions;
using workloads::WorkloadDriver;

ObjectDescriptor make_desc(std::uint64_t i) {
  ObjectDescriptor desc;
  desc.var = static_cast<VarId>(1 + (i % 5));
  desc.version = static_cast<Version>(i / 5);
  desc.box = geom::BoundingBox::cube(
      static_cast<std::int64_t>((i % 16) * 16), 0, 0,
      static_cast<std::int64_t>((i % 16) * 16 + 15), 15, 15);
  return desc;
}

ObjectLocation make_loc(std::uint64_t i) {
  ObjectLocation loc;
  loc.primary = static_cast<ServerId>(i % 8);
  loc.protection = staging::Protection::kReplicated;
  loc.replicas = {static_cast<ServerId>((i + 1) % 8)};
  loc.logical_size = 4096;
  return loc;
}

// ---- MetaLog -------------------------------------------------------------

TEST(MetaLogTest, AppendAssignsDenseSequences) {
  MetaLog log;
  EXPECT_EQ(log.append(MetaOpKind::kUpsert, make_desc(0), make_loc(0)).seq,
            1u);
  EXPECT_EQ(log.append(MetaOpKind::kRemove, make_desc(1), make_loc(1)).seq,
            2u);
  EXPECT_EQ(log.last_seq(), 2u);
  EXPECT_EQ(log.base_seq(), 0u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_GT(log.encoded_bytes(), 0u);
}

TEST(MetaLogTest, CompactToDropsPrefixAndTracksBase) {
  MetaLog log;
  for (std::uint64_t i = 0; i < 10; ++i) {
    log.append(MetaOpKind::kUpsert, make_desc(i), make_loc(i));
  }
  log.compact_to(6);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.base_seq(), 6u);
  EXPECT_EQ(log.last_seq(), 10u);
  EXPECT_EQ(log.begin()->seq, 7u);
}

TEST(MetaLogTest, ResetContinuesSequenceSpace) {
  MetaLog log;
  for (std::uint64_t i = 0; i < 5; ++i) {
    log.append(MetaOpKind::kUpsert, make_desc(i), make_loc(i));
  }
  log.reset(3);  // new primary's durable frontier was 3
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.encoded_bytes(), 0u);
  EXPECT_EQ(log.append(MetaOpKind::kUpsert, make_desc(9), make_loc(9)).seq,
            4u);
}

TEST(MetaLogTest, TailRoundTrip) {
  MetaLog log;
  Directory expected;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const OpRecord& op =
        log.append(MetaOpKind::kUpsert, make_desc(i), make_loc(i));
    staging::apply_op_record(op, &expected);
  }
  Bytes tail = log.encode_tail(0);
  auto ops_or = MetaLog::decode_tail(tail);
  ASSERT_TRUE(ops_or.ok()) << ops_or.status().to_string();
  Directory replayed;
  for (const OpRecord& op : ops_or.value()) {
    staging::apply_op_record(op, &replayed);
  }
  EXPECT_EQ(staging::snapshot_directory(replayed),
            staging::snapshot_directory(expected));

  // Partial tail starts after the requested sequence.
  auto partial = MetaLog::decode_tail(log.encode_tail(5));
  ASSERT_TRUE(partial.ok());
  ASSERT_EQ(partial.value().size(), 3u);
  EXPECT_EQ(partial.value().front().seq, 6u);
}

TEST(MetaLogTest, TailDecodeSurvivesTruncationAndBitFlips) {
  MetaLog log;
  for (std::uint64_t i = 0; i < 6; ++i) {
    log.append(i % 3 == 2 ? MetaOpKind::kRemove : MetaOpKind::kUpsert,
               make_desc(i), make_loc(i));
  }
  Bytes tail = log.encode_tail(0);

  // Every strict prefix must fail cleanly (no crash, no partial OK).
  for (std::size_t len = 0; len < tail.size(); ++len) {
    Bytes prefix(tail.begin(),
                 tail.begin() + static_cast<std::ptrdiff_t>(len));
    auto ops_or = MetaLog::decode_tail(prefix);
    EXPECT_FALSE(ops_or.ok()) << "prefix length " << len;
  }

  // Single-bit corruption must never crash; it either fails or decodes
  // a value-corrupted but structurally valid tail.
  for (std::size_t byte = 0; byte < tail.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = tail;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      auto ops_or = MetaLog::decode_tail(flipped);
      (void)ops_or;  // reaching here without UB/crash is the assertion
    }
  }
}

// ---- MetaReplica ---------------------------------------------------------

OpRecord make_op(std::uint64_t seq) {
  OpRecord op;
  op.seq = seq;
  op.kind = MetaOpKind::kUpsert;
  op.desc = make_desc(seq);
  op.loc = make_loc(seq);
  return op;
}

TEST(MetaReplicaTest, DurableSeqHonorsReceiveTimesAndGaps) {
  MetaReplica r(3);
  r.accept(make_op(1), 10);
  r.accept(make_op(2), 20);
  r.accept(make_op(4), 30);  // 3 never arrived: gap
  EXPECT_EQ(r.durable_seq(5), 0u);
  EXPECT_EQ(r.durable_seq(15), 1u);
  EXPECT_EQ(r.durable_seq(25), 2u);
  EXPECT_EQ(r.durable_seq(1000), 2u);  // the gap caps durability
}

TEST(MetaReplicaTest, SnapshotExtendsDurability) {
  MetaReplica r(3);
  Directory dir;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    staging::apply_op_record(make_op(i), &dir);
  }
  r.install_snapshot(staging::snapshot_directory(dir), 10, 50,
                     /*truncate_log=*/false);
  r.accept(make_op(11), 60);
  EXPECT_EQ(r.durable_seq(49), 0u);  // snapshot bytes not landed yet
  EXPECT_EQ(r.durable_seq(50), 10u);
  EXPECT_EQ(r.durable_seq(60), 11u);
}

TEST(MetaReplicaTest, MaterializeRestoresSnapshotPlusTail) {
  MetaReplica r(2);
  Directory base;
  Directory expected;  // base, then the log tail
  for (std::uint64_t i = 1; i <= 4; ++i) {
    staging::apply_op_record(make_op(i), &base);
    staging::apply_op_record(make_op(i), &expected);
  }
  r.install_snapshot(staging::snapshot_directory(base), 4, 40,
                     /*truncate_log=*/false);
  for (std::uint64_t i = 5; i <= 7; ++i) {
    OpRecord op = make_op(i);
    r.accept(op, 40 + static_cast<SimTime>(i));
    staging::apply_op_record(op, &expected);
  }

  Directory rebuilt;
  std::size_t restored_bytes = 0;
  std::size_t replayed = 0;
  ASSERT_TRUE(r.materialize(7, &rebuilt, &restored_bytes, &replayed).ok());
  EXPECT_GT(restored_bytes, 0u);
  EXPECT_EQ(replayed, 3u);
  EXPECT_EQ(staging::snapshot_directory(rebuilt),
            staging::snapshot_directory(expected));
}

TEST(MetaReplicaTest, DiscardInFlightDropsUnreceivedState) {
  MetaReplica r(1);
  r.accept(make_op(1), 10);
  r.accept(make_op(2), 200);  // still in flight at T=100
  Directory dir;
  staging::apply_op_record(make_op(1), &dir);
  r.install_snapshot(staging::snapshot_directory(dir), 1, 300,
                     /*truncate_log=*/false);  // also in flight
  r.discard_in_flight(100);
  EXPECT_EQ(r.log_size(), 1u);
  EXPECT_EQ(r.num_snapshots(), 0u);
  EXPECT_EQ(r.durable_seq(100), 1u);
}

TEST(MetaReplicaTest, PruneOnlyUsesLandedSnapshots) {
  MetaReplica r(1);
  for (std::uint64_t i = 1; i <= 8; ++i) {
    r.accept(make_op(i), static_cast<SimTime>(i * 10));
  }
  Directory dir;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    staging::apply_op_record(make_op(i), &dir);
  }
  // Snapshot covering seq 5 arrives at t=1000 (virtual future).
  r.install_snapshot(staging::snapshot_directory(dir), 5, 1000,
                     /*truncate_log=*/false);
  r.prune(100);  // snapshot not landed: nothing safe to drop
  EXPECT_EQ(r.log_size(), 8u);
  r.prune(1000);  // landed now: entries <= 5 are redundant
  EXPECT_EQ(r.log_size(), 3u);
  EXPECT_EQ(r.durable_seq(1000), 8u);
}

// ---- MetaService / MetaClient -------------------------------------------

staging::ServiceOptions meta_service_options() {
  auto opts = workloads::table1_service_options();
  opts.domain = geom::BoundingBox::cube(0, 0, 0, 31, 31, 31);
  opts.fit.target_bytes = 4096;
  return opts;
}

SyntheticOptions meta_workload() {
  SyntheticOptions o;
  o.domain_extent = 32;
  o.writer_grid = 2;
  o.readers = 4;
  o.time_steps = 12;
  return o;
}

/// A staging cluster with the replicated metadata plane attached.
struct MetaCluster {
  explicit MetaCluster(MetaOptions mopts = {},
                       Mechanism mechanism = Mechanism::kReplication,
                       MechanismParams params = two_copy_params())
      : service(meta_service_options(), &sim,
                workloads::make_scheme(mechanism, params)),
        meta(&service, mopts),
        client(&meta) {
    service.attach_metadata(&client);
  }

  static MechanismParams two_copy_params() {
    MechanismParams p;
    p.n_level = 2;
    return p;
  }

  sim::Simulation sim;
  staging::StagingService service;
  MetaService meta;
  MetaClient client;
};

TEST(MetaServiceTest, PlacementSpansDistinctFailureDomains) {
  MetaCluster c;
  auto hosts = c.meta.replica_hosts();
  ASSERT_EQ(hosts.size(), 3u);  // primary + K=2 followers
  const auto& topo = c.service.topology();
  EXPECT_FALSE(topo.same_cabinet(hosts[0], hosts[1]));
  EXPECT_FALSE(topo.same_cabinet(hosts[0], hosts[2]));
}

TEST(MetaServiceTest, UpsertAcksAfterQuorumReplication) {
  MetaCluster c;
  SimTime ack = c.client.upsert(make_desc(1), make_loc(1));
  // Ack needs the primary apply plus one follower receive: strictly
  // after the primary-only cost.
  EXPECT_GT(ack, c.service.cost().metadata_op);
  EXPECT_EQ(c.meta.stats().ops_logged, 1u);
  ASSERT_EQ(c.meta.stats().replication_lag.count(), 1u);
  EXPECT_GT(c.meta.stats().replication_lag.mean(), 0.0);
  EXPECT_EQ(c.client.size(), 1u);
  EXPECT_NE(c.client.find(make_desc(1)), nullptr);
}

TEST(MetaServiceTest, SnapshotCompactionBoundsLog) {
  MetaOptions mopts;
  mopts.snapshot_every = 8;
  MetaCluster c(mopts);
  for (std::uint64_t i = 0; i < 100; ++i) {
    c.client.upsert(make_desc(i), make_loc(i));
  }
  EXPECT_LE(c.meta.log().size(), 8u);
  EXPECT_GE(c.meta.stats().snapshots_taken, 12u);
  EXPECT_GT(c.meta.stats().snapshot_bytes_shipped, 0u);
  EXPECT_GT(c.meta.stats().log_bytes_streamed, 0u);
}

TEST(MetaServiceTest, RemoveReplicatesLikeUpsert) {
  MetaCluster c;
  c.client.upsert(make_desc(1), make_loc(1));
  EXPECT_TRUE(c.client.remove(make_desc(1)));
  EXPECT_FALSE(c.client.remove(make_desc(1)));  // already gone
  EXPECT_EQ(c.client.size(), 0u);
  EXPECT_EQ(c.meta.stats().ops_logged, 2u);  // the no-op isn't logged
}

TEST(MetaServiceTest, PureMetaPrimaryFailureElectsFollower) {
  MetaCluster c;
  for (std::uint64_t i = 0; i < 20; ++i) {
    c.client.upsert(make_desc(i), make_loc(i));
  }
  c.sim.run_until(from_seconds(0.01));  // let replication land
  ServerId old_primary = c.meta.primary_host();
  Bytes before = staging::snapshot_directory(c.meta.primary_directory());

  c.meta.fail_replica(old_primary);

  ASSERT_TRUE(c.meta.available());
  EXPECT_NE(c.meta.primary_host(), old_primary);
  EXPECT_EQ(c.meta.stats().failovers, 1u);
  EXPECT_EQ(c.meta.stats().ops_lost_unacked, 0u);
  ASSERT_EQ(c.meta.stats().failover_time.count(), 1u);
  EXPECT_GT(c.meta.stats().failover_time.mean(), 0.0);
  // The elected primary's directory is byte-identical to the old one.
  EXPECT_EQ(staging::snapshot_directory(c.meta.primary_directory()),
            before);
}

TEST(MetaServiceTest, ElectionPicksMostCaughtUpFollower) {
  MetaCluster c;
  auto hosts = c.meta.replica_hosts();
  ASSERT_EQ(hosts.size(), 3u);
  // Backlog one follower's host so its replication stream is still in
  // flight when the primary dies.
  c.service.serve_at(hosts[2], 0, from_seconds(1.0));
  for (std::uint64_t i = 0; i < 10; ++i) {
    c.client.upsert(make_desc(i), make_loc(i));
  }
  c.sim.run_until(from_micros(500));  // hosts[1] caught up; hosts[2] not
  c.meta.fail_replica(hosts[0]);
  ASSERT_TRUE(c.meta.available());
  EXPECT_EQ(c.meta.primary_host(), hosts[1]);
  EXPECT_EQ(c.meta.stats().ops_lost_unacked, 0u);
  EXPECT_EQ(c.meta.primary_directory().size(), 10u);
}

TEST(MetaServiceTest, UnavailableWhenAllReplicasDead) {
  MetaOptions mopts;
  mopts.followers = 1;
  mopts.ack_followers = 1;
  MetaCluster c(mopts);
  c.client.upsert(make_desc(1), make_loc(1));
  c.sim.run_until(from_seconds(0.01));

  c.meta.fail_replica(c.meta.primary_host());  // follower takes over
  ASSERT_TRUE(c.meta.available());
  c.meta.fail_replica(c.meta.primary_host());  // nobody left
  EXPECT_FALSE(c.meta.available());

  // The staging service surfaces the outage instead of serving stale
  // state.
  EXPECT_EQ(c.client.size(), 0u);
  EXPECT_EQ(c.client.find(make_desc(1)), nullptr);
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  auto put = c.service.put_phantom(1, 1, box);
  EXPECT_EQ(put.status.code(), StatusCode::kUnavailable)
      << put.status.to_string();
  auto get = c.service.get(1, 1, box, nullptr);
  EXPECT_EQ(get.status.code(), StatusCode::kUnavailable)
      << get.status.to_string();
}

TEST(MetaServiceTest, RestoredFollowerCatchesUpViaSnapshot) {
  MetaCluster c;
  auto hosts = c.meta.replica_hosts();
  for (std::uint64_t i = 0; i < 10; ++i) {
    c.client.upsert(make_desc(i), make_loc(i));
  }
  c.sim.run_until(from_seconds(0.01));
  c.meta.fail_replica(hosts[1]);
  for (std::uint64_t i = 10; i < 20; ++i) {
    c.client.upsert(make_desc(i), make_loc(i));
  }
  c.sim.run_until(from_seconds(0.02));
  c.meta.restore_replica(hosts[1]);
  EXPECT_EQ(c.meta.stats().catchups, 1u);
  ASSERT_EQ(c.meta.stats().catchup_time.count(), 1u);
  EXPECT_GT(c.meta.stats().catchup_time.mean(), 0.0);

  // The caught-up follower can win the next election with full state.
  c.sim.run_until(from_seconds(0.04));
  c.meta.fail_replica(c.meta.primary_host());
  ASSERT_TRUE(c.meta.available());
  EXPECT_EQ(c.meta.stats().ops_lost_unacked, 0u);
  EXPECT_EQ(c.meta.primary_directory().size(), 20u);
}

// ---- end-to-end workload guarantees --------------------------------------

struct RunMetricsSnapshot {
  Bytes directory_bytes;
  std::size_t corrupt = 0;
  std::size_t lost = 0;
};

RunMetricsSnapshot run_workload(MetaCluster& c, bool kill_meta_primary) {
  WorkloadDriver driver(&c.service, {.verify_reads = true});
  if (kill_meta_primary) {
    driver.add_hook(6, [&c] {
      c.meta.fail_replica(c.meta.primary_host());
    });
  }
  auto metrics = driver.run(
      workloads::make_synthetic_case(3, meta_workload()));
  return RunMetricsSnapshot{
      staging::snapshot_directory(c.service.directory().state()),
      metrics.corrupt_reads(), metrics.data_loss_reads()};
}

TEST(MetaWorkloadTest, ReplicatedRunMatchesLocalRun) {
  // Same workload, once on the plain local directory and once through
  // the replicated metadata plane: the final metadata must be
  // byte-identical (replication must not change what is stored where).
  sim::Simulation sim_local;
  staging::StagingService local(
      meta_service_options(), &sim_local,
      workloads::make_scheme(Mechanism::kReplication,
                             MetaCluster::two_copy_params()));
  WorkloadDriver local_driver(&local, {.verify_reads = true});
  auto local_metrics =
      local_driver.run(workloads::make_synthetic_case(3, meta_workload()));
  EXPECT_EQ(local_metrics.corrupt_reads(), 0u);

  MetaCluster c;
  WorkloadDriver meta_driver(&c.service, {.verify_reads = true});
  auto meta_metrics =
      meta_driver.run(workloads::make_synthetic_case(3, meta_workload()));
  EXPECT_EQ(meta_metrics.corrupt_reads(), 0u);
  EXPECT_GT(c.meta.stats().ops_logged, 0u);

  EXPECT_EQ(staging::snapshot_directory(local.directory().state()),
            staging::snapshot_directory(c.service.directory().state()));
}

TEST(MetaWorkloadTest, PrimaryFailoverPreservesAckedState) {
  // Acceptance test: with K=2 followers, killing the metadata primary
  // in the middle of an active workload loses zero acknowledged
  // directory entries — the post-failover directory is byte-identical
  // to the failure-free run's.
  MetaCluster healthy;
  auto baseline = run_workload(healthy, /*kill_meta_primary=*/false);
  EXPECT_EQ(baseline.corrupt, 0u);
  EXPECT_EQ(baseline.lost, 0u);
  EXPECT_EQ(healthy.meta.stats().failovers, 0u);

  MetaCluster wounded;
  auto survived = run_workload(wounded, /*kill_meta_primary=*/true);
  EXPECT_EQ(survived.corrupt, 0u);
  EXPECT_EQ(survived.lost, 0u);
  EXPECT_EQ(wounded.meta.stats().failovers, 1u);
  EXPECT_EQ(wounded.meta.stats().ops_lost_unacked, 0u);
  ASSERT_EQ(wounded.meta.stats().failover_time.count(), 1u);
  EXPECT_GT(wounded.meta.stats().failover_time.mean(), 0.0);

  EXPECT_EQ(survived.directory_bytes, baseline.directory_bytes)
      << "failover changed the directory contents";
}

TEST(MetaWorkloadTest, WholeNodeKillFailsOverAndCatchesUpOnReplace) {
  // Killing the staging node hosting the metadata primary takes data
  // and metadata down together; the workload must survive both (data
  // via 2-copy replication, metadata via failover), and the replaced
  // node must rejoin the metadata group via snapshot catch-up.
  MetaCluster c;
  ServerId primary = c.meta.primary_host();
  WorkloadDriver driver(&c.service, {.verify_reads = true});
  driver.add_hook(5, [&c, primary] { c.service.kill_server(primary); });
  driver.add_hook(7, [&c, primary] { c.service.replace_server(primary); });
  auto metrics =
      driver.run(workloads::make_synthetic_case(3, meta_workload()));

  EXPECT_EQ(metrics.corrupt_reads(), 0u);
  EXPECT_EQ(metrics.data_loss_reads(), 0u);
  EXPECT_EQ(c.meta.stats().failovers, 1u);
  EXPECT_EQ(c.meta.stats().ops_lost_unacked, 0u);
  EXPECT_GE(c.meta.stats().catchups, 1u);
  ASSERT_TRUE(c.meta.available());
  // The replaced node is back in the replica group as a follower.
  auto hosts = c.meta.replica_hosts();
  EXPECT_NE(std::find(hosts.begin(), hosts.end(), primary), hosts.end());
}

}  // namespace
}  // namespace corec
