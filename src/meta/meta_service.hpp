// Replicated metadata service: a primary plus K followers, placed in
// distinct failure domains via the topology-aware ring, keeping the
// staging Directory alive across metadata-server failures.
//
// Protocol (all in virtual time, costed through the hosting cluster's
// service queues and interconnect model):
//   * The primary applies every mutation locally, appends it to the
//     op-log with a dense sequence number, and streams the encoded
//     record to each live follower. A record lost on the wire is
//     retransmitted (bounded attempts per append); a follower the
//     primary could not bring current is gap-repaired from the
//     retained log on the next append, or reseeded with a snapshot
//     when compaction has passed its gap. Followers therefore only
//     ever lag — they never hold a directory that silently diverges
//     from the acknowledged prefix.
//   * A mutation is acknowledged once the primary and `ack_followers`
//     followers have it (a majority with the default K=2, F=1).
//   * Every `snapshot_every` operations the primary snapshots the
//     directory (canonical bytes), ships it to the followers and
//     compacts the log.
//   * When the primary dies, the most-caught-up live follower at the
//     failure instant wins a deterministic election (ties break to the
//     lowest ring position), rebuilds the directory from its newest
//     snapshot plus log tail, reseeds the survivors with a fresh
//     snapshot and continues the sequence space from the durable
//     frontier. Acknowledged mutations are never lost while at least
//     one acknowledging follower survives.
//   * Failed followers that come back (or replacement hosts) catch up
//     with a snapshot transfer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "meta/meta_log.hpp"
#include "meta/meta_replica.hpp"
#include "staging/service.hpp"

namespace corec::meta {

/// Tuning knobs of the replicated metadata plane.
struct MetaOptions {
  /// Follower count K (replication degree is K+1).
  std::size_t followers = 2;
  /// Followers that must hold a mutation before it is acknowledged
  /// (in addition to the primary). 1 with K=2 gives a 2-of-3 majority.
  std::size_t ack_followers = 1;
  /// Log length that triggers a compacting snapshot.
  std::uint64_t snapshot_every = 128;
};

/// Counters and latency accumulators exposed through common/stats.
struct MetaStats {
  RunningStat replication_lag;  // ns: follower-quorum ack minus primary apply
  RunningStat failover_time;    // ns: primary death to new primary ready
  RunningStat catchup_time;     // ns: catch-up start to replica reseeded
  std::uint64_t ops_logged = 0;
  std::uint64_t log_bytes_streamed = 0;
  std::uint64_t snapshots_taken = 0;
  std::uint64_t snapshot_bytes_shipped = 0;
  std::uint64_t failovers = 0;
  std::uint64_t catchups = 0;
  /// Log records re-sent after a wire drop (retransmission model).
  std::uint64_t records_retransmitted = 0;
  /// Unacknowledged tail operations discarded by elections. Acked ones
  /// never count here while a quorum member survives.
  std::uint64_t ops_lost_unacked = 0;
};

/// The replicated metadata service. Owns the authoritative directory
/// (on the current primary) and the follower replication state; the
/// staging service talks to it through meta::MetaClient.
class MetaService {
 public:
  MetaService(staging::StagingService* service, MetaOptions options);

  // ---- mutation path ------------------------------------------------------

  /// Applies one mutation through the primary and replicates it.
  /// Returns the virtual time the mutation is acknowledged durable.
  SimTime apply(MetaOpKind kind, const ObjectDescriptor& desc,
                const ObjectLocation& loc);

  /// Replicates a membership pool map (serialized membership::PoolMap
  /// at `version`) through the op-log, same ack rule as apply().
  SimTime apply_map(const Bytes& blob, std::uint64_t version);

  /// Forces a compacting snapshot now (normally triggered by
  /// snapshot_every).
  void take_snapshot();

  // ---- failure control ----------------------------------------------------

  /// Pure metadata-process failure on host `s` (the staging store on
  /// that host is unaffected). Kills the primary -> failover; kills a
  /// follower -> its state is lost until restore_replica.
  void fail_replica(ServerId s);

  /// The metadata process on `s` comes back empty and catches up.
  void restore_replica(ServerId s);

  /// Whole-node notifications, forwarded by the staging service.
  void on_server_failed(ServerId s, SimTime now);
  void on_server_replaced(ServerId s, SimTime now);

  // ---- introspection ------------------------------------------------------

  bool available() const { return primary_ != kInvalidServer; }
  ServerId primary_host() const { return primary_; }
  /// All hosts of the replica group, primary first (dead ones included).
  std::vector<ServerId> replica_hosts() const;
  const Directory& primary_directory() const { return primary_dir_; }
  Directory& primary_directory() { return primary_dir_; }
  const MetaLog& log() const { return log_; }
  const MetaStats& stats() const { return stats_; }
  /// Newest pool map the current primary serves (version 0 = none).
  const Bytes& map_blob() const { return map_blob_; }
  std::uint64_t map_version() const { return map_version_; }

 private:
  MetaReplica* find_follower(ServerId s);
  /// Elects and installs a new primary after the old one died at `t`.
  void failover(SimTime t);
  /// Reseeds `replica` (empty or stale) from the primary's state.
  /// Returns the virtual time the snapshot landed on the replica.
  SimTime catch_up(MetaReplica& replica, SimTime now);
  /// Brings `replica` up through log().last_seq(): repairs any gap
  /// left by earlier wire drops (log-tail retransmission; snapshot
  /// reseed when the gap predates the retained log), then streams the
  /// newest record. Returns true when the replica holds the full
  /// prefix, with the receive time of the final bytes in *recv_out.
  bool stream_to(MetaReplica& replica, SimTime from, SimTime now,
                 SimTime* recv_out);
  /// Common replication tail of apply()/apply_map(): streams the log to
  /// every live follower, computes the quorum ack for the record at
  /// `seq` applied on the primary at `t_p`, and triggers snapshot
  /// compaction. Returns the acknowledgement time.
  SimTime replicate_record(std::uint64_t seq, SimTime t_p, SimTime now);

  staging::StagingService* service_;
  MetaOptions options_;
  std::vector<ServerId> group_;  // original placement, primary first
  ServerId primary_;
  Directory primary_dir_;
  MetaLog log_;
  std::vector<MetaReplica> followers_;
  std::uint64_t last_snapshot_seq_ = 0;
  MetaStats stats_;
  Bytes map_blob_;  // newest pool map on the current primary
  std::uint64_t map_version_ = 0;
};

}  // namespace corec::meta
