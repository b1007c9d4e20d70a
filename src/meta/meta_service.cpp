#include "meta/meta_service.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/failpoint.hpp"
#include "resilience/groups.hpp"

namespace corec::meta {

namespace {

/// Detection + election delay charged before a new primary serves.
constexpr SimTime kElectionTimeout = from_micros(250.0);
/// A log record lost on the wire is re-sent after this timeout.
constexpr SimTime kRetransmitTimeout = from_micros(200.0);
/// Retransmission attempts per record per append before the primary
/// gives up for now (the gap is repaired on the next append or
/// snapshot, so a follower only stays behind, never diverges).
constexpr std::size_t kStreamRetries = 8;

}  // namespace

MetaService::MetaService(staging::StagingService* service,
                         MetaOptions options)
    : service_(service), options_(std::move(options)) {
  // Replica placement: a ring window anchored at the ring head. The
  // topology-aware ring alternates failure domains, so the K+1 members
  // land in distinct cabinets (same rule data replication groups use).
  std::size_t group_size =
      std::min(options_.followers + 1, service_->num_servers());
  group_ = resilience::ring_group_from(*service_, service_->ring()[0],
                                       group_size);
  assert(!group_.empty());
  primary_ = group_[0];
  followers_.reserve(group_.size() - 1);
  for (std::size_t i = 1; i < group_.size(); ++i) {
    followers_.emplace_back(group_[i]);
  }
}

MetaReplica* MetaService::find_follower(ServerId s) {
  for (MetaReplica& r : followers_) {
    if (r.host() == s) return &r;
  }
  return nullptr;
}

SimTime MetaService::apply(MetaOpKind kind, const ObjectDescriptor& desc,
                           const ObjectLocation& loc) {
  const SimTime now = service_->sim().now();
  if (!available()) return now;
  const auto& cost = service_->cost();

  const OpRecord& op = log_.append(kind, desc, loc);
  staging::apply_op_record(op, &primary_dir_);
  ++stats_.ops_logged;

  // Primary applies the op on its own service queue.
  SimTime t_p = service_->serve_at(primary_, now, cost.metadata_op);
  if (auto fp = COREC_FAILPOINT("meta.append.delay")) {
    // Stalled primary (GC pause, overloaded NIC): every follower sees
    // the record late, stretching the quorum ack.
    t_p += static_cast<SimTime>(fp.arg != 0 ? fp.arg : 100'000);
  }

  return replicate_record(op.seq, t_p, now);
}

SimTime MetaService::apply_map(const Bytes& blob, std::uint64_t version) {
  const SimTime now = service_->sim().now();
  if (!available()) return now;
  const auto& cost = service_->cost();

  // The primary retains the newest map it has seen; followers retain
  // theirs when the streamed record lands (MetaReplica::accept).
  if (version > map_version_) {
    map_blob_ = blob;
    map_version_ = version;
  }
  const OpRecord& op = log_.append_map(blob, version);
  ++stats_.ops_logged;

  SimTime t_p = service_->serve_at(primary_, now, cost.metadata_op);
  if (auto fp = COREC_FAILPOINT("meta.append.delay")) {
    t_p += static_cast<SimTime>(fp.arg != 0 ? fp.arg : 100'000);
  }
  return replicate_record(op.seq, t_p, now);
}

SimTime MetaService::replicate_record(std::uint64_t seq, SimTime t_p,
                                      SimTime now) {
  // Stream the record to every live follower; collect receive times.
  // Each follower is first gap-repaired (records an earlier wire drop
  // left missing), so acknowledged mutations are durable on a quorum
  // in fact, not just by assumption.
  std::vector<SimTime> recvs;
  recvs.reserve(followers_.size());
  for (MetaReplica& r : followers_) {
    if (!r.alive()) continue;
    SimTime recv = 0;
    if (stream_to(r, t_p, now, &recv)) recvs.push_back(recv);
  }

  // Acked once the primary and `ack_followers` followers hold the op.
  SimTime ack = t_p;
  std::size_t quorum = std::min(options_.ack_followers, recvs.size());
  if (quorum > 0) {
    std::nth_element(recvs.begin(),
                     recvs.begin() + static_cast<std::ptrdiff_t>(quorum - 1),
                     recvs.end());
    ack = std::max(ack, recvs[quorum - 1]);
  }
  stats_.replication_lag.add(static_cast<double>(ack - t_p));

  if (seq - last_snapshot_seq_ >= options_.snapshot_every) {
    take_snapshot();
  }
  return ack;
}

void MetaService::take_snapshot() {
  if (!available()) return;
  const SimTime now = service_->sim().now();
  const auto& cost = service_->cost();
  const std::uint64_t seq = log_.last_seq();

  Bytes bytes = staging::snapshot_directory(primary_dir_);
  ++stats_.snapshots_taken;

  // Primary serializes the snapshot, then ships it to each follower.
  SimTime t_ser =
      service_->serve_at(primary_, now, cost.copy_time(bytes.size()));
  for (MetaReplica& r : followers_) {
    if (!r.alive()) continue;
    SimTime recv = service_->serve_at(
        r.host(), t_ser + cost.transfer_time(bytes.size()),
        cost.copy_time(bytes.size()));
    r.install_snapshot(bytes, seq, recv, /*truncate_log=*/false);
    if (r.streamed_seq() < seq) r.set_streamed_seq(seq);
    r.prune(now);
    stats_.snapshot_bytes_shipped += bytes.size();
  }

  log_.compact_to(seq);
  last_snapshot_seq_ = seq;
}

void MetaService::fail_replica(ServerId s) {
  if (s == kInvalidServer) return;
  const SimTime now = service_->sim().now();
  if (s == primary_) {
    failover(now);
    return;
  }
  MetaReplica* r = find_follower(s);
  if (r == nullptr || !r->alive()) return;
  r->set_alive(false);
  r->clear();
}

void MetaService::restore_replica(ServerId s) {
  if (s == primary_) return;
  const SimTime now = service_->sim().now();
  MetaReplica* r = find_follower(s);
  if (r != nullptr) {
    if (r->alive()) return;
    r->set_alive(true);
    r->clear();
  } else {
    // A group host whose follower slot vanished (old primary's host, or
    // a follower promoted away and since died) rejoins as a follower.
    if (std::find(group_.begin(), group_.end(), s) == group_.end()) return;
    followers_.emplace_back(s);
    r = &followers_.back();
  }
  if (available()) catch_up(*r, now);
}

void MetaService::on_server_failed(ServerId s, SimTime now) {
  (void)now;
  // Whole-node failure kills the co-located metadata process too.
  if (s == primary_ || find_follower(s) != nullptr) fail_replica(s);
}

void MetaService::on_server_replaced(ServerId s, SimTime now) {
  (void)now;
  restore_replica(s);
}

std::vector<ServerId> MetaService::replica_hosts() const {
  std::vector<ServerId> hosts;
  if (primary_ != kInvalidServer) hosts.push_back(primary_);
  for (const MetaReplica& r : followers_) hosts.push_back(r.host());
  return hosts;
}

void MetaService::failover(SimTime t) {
  const auto& cost = service_->cost();
  const std::uint64_t old_last = log_.last_seq();
  ServerId dead = primary_;
  primary_ = kInvalidServer;
  ++stats_.failovers;

  // Messages still in flight from the dead primary never arrive.
  for (MetaReplica& r : followers_) {
    if (r.alive()) r.discard_in_flight(t);
  }

  // Deterministic election: the most-caught-up live follower wins;
  // ties break to the lowest ring position (every survivor computes
  // the same winner without communicating).
  MetaReplica* winner = nullptr;
  std::uint64_t winner_durable = 0;
  for (MetaReplica& r : followers_) {
    if (!r.alive()) continue;
    std::uint64_t d = r.durable_seq(t);
    if (winner == nullptr || d > winner_durable ||
        (d == winner_durable &&
         service_->ring_position(r.host()) <
             service_->ring_position(winner->host()))) {
      winner = &r;
      winner_durable = d;
    }
  }
  if (winner == nullptr) {
    // No live follower: the metadata plane is down until an operator
    // restores a replica. (With K=0 this is the expected outcome.)
    log_.reset(old_last);
    return;
  }

  stats_.ops_lost_unacked += old_last - winner_durable;

  // The winner rebuilds the directory from its newest usable snapshot
  // plus the contiguous log tail, charged on its own service queue.
  Directory fresh;
  std::size_t restored_bytes = 0;
  std::size_t replayed_ops = 0;
  Status st = winner->materialize(winner_durable, &fresh, &restored_bytes,
                                  &replayed_ops);
  assert(st.ok() && "durable_seq promised a materializable prefix");
  if (!st.ok()) {
    log_.reset(old_last);
    return;
  }
  ServerId new_primary = winner->host();
  SimTime rebuild =
      cost.copy_time(restored_bytes) +
      static_cast<SimTime>(replayed_ops) * cost.metadata_op;
  SimTime t_ready = service_->serve_at(
      new_primary, t + kElectionTimeout, rebuild);

  primary_ = new_primary;
  primary_dir_ = std::move(fresh);
  // The new primary serves the membership view it had durably
  // retained. A map record still in flight at the failure instant is
  // dropped here — the map owner re-replicates after every transition
  // and adoption is monotonic, so the view only ever lags, never forks.
  map_blob_ = winner->map_blob();
  map_version_ = winner->map_version();
  log_.reset(winner_durable);
  last_snapshot_seq_ = winner_durable;
  stats_.failover_time.add(static_cast<double>(t_ready - t));

  // The promoted follower's replication state is now the primary state.
  followers_.erase(
      followers_.begin() + (winner - followers_.data()));
  (void)dead;

  // Reseed the survivors: a fresh snapshot replaces whatever they hold
  // (their logs may contain unacknowledged entries from the dead
  // primary above the durable frontier — those must not survive into
  // the reused sequence space).
  Bytes bytes = staging::snapshot_directory(primary_dir_);
  ++stats_.snapshots_taken;
  SimTime t_ser = service_->serve_at(primary_, t_ready,
                                     cost.copy_time(bytes.size()));
  for (MetaReplica& r : followers_) {
    if (!r.alive()) continue;
    SimTime recv = service_->serve_at(
        r.host(), t_ser + cost.transfer_time(bytes.size()),
        cost.copy_time(bytes.size()));
    r.install_snapshot(bytes, winner_durable, recv, /*truncate_log=*/true);
    r.set_streamed_seq(winner_durable);
    r.retain_map(map_blob_, map_version_, recv);
    stats_.snapshot_bytes_shipped += bytes.size();
  }
}

SimTime MetaService::catch_up(MetaReplica& replica, SimTime now) {
  const auto& cost = service_->cost();
  const std::uint64_t seq = log_.last_seq();

  // Full-state transfer: snapshot of the primary's current directory.
  // (A lagging-but-nonempty replica could take just a log tail; the
  // snapshot is always correct and its cost is what we want to model.)
  Bytes bytes = staging::snapshot_directory(primary_dir_);
  const std::size_t snap_size = bytes.size();
  ++stats_.snapshots_taken;
  SimTime t_ser = service_->serve_at(primary_, now, cost.copy_time(snap_size));
  SimTime recv = service_->serve_at(
      replica.host(), t_ser + cost.transfer_time(snap_size),
      cost.copy_time(snap_size));
  replica.install_snapshot(std::move(bytes), seq, recv,
                           /*truncate_log=*/true);
  replica.set_streamed_seq(seq);
  replica.retain_map(map_blob_, map_version_, recv);
  stats_.snapshot_bytes_shipped += snap_size;
  ++stats_.catchups;
  stats_.catchup_time.add(static_cast<double>(recv - now));
  return recv;
}

bool MetaService::stream_to(MetaReplica& r, SimTime from, SimTime now,
                            SimTime* recv_out) {
  const auto& cost = service_->cost();
  if (r.streamed_seq() < log_.base_seq()) {
    // Compaction has passed this follower's gap: the missing records
    // no longer exist, only a snapshot can repair it.
    *recv_out = catch_up(r, now);
    return true;
  }

  // Stream every retained record the follower is missing, oldest
  // first. Each send is one wire message: a drop (failpoint) costs a
  // retransmission timeout and a retry; a record that exhausts its
  // retries leaves the follower lagging at that gap — repaired on the
  // next append or the next snapshot, so it never silently diverges.
  SimTime send = from;
  for (const OpRecord& rec : log_) {
    if (rec.seq <= r.streamed_seq()) continue;
    const std::size_t rec_bytes = MetaLog::record_bytes(rec);
    bool delivered = false;
    for (std::size_t attempt = 0; attempt <= kStreamRetries;
         ++attempt) {
      if (attempt > 0) ++stats_.records_retransmitted;
      stats_.log_bytes_streamed += rec_bytes;
      if (auto fp = COREC_FAILPOINT("meta.append.drop_ack")) {
        // The record (and its ack) is lost on the wire; the primary
        // notices the missing ack after a timeout and re-sends.
        send += kRetransmitTimeout;
        continue;
      }
      SimTime recv = service_->serve_at(
          r.host(), send + cost.transfer_time(rec_bytes),
          cost.metadata_op);
      r.accept(rec, recv);
      r.set_streamed_seq(rec.seq);
      *recv_out = recv;
      delivered = true;
      break;
    }
    if (!delivered) return false;
  }
  r.prune(now);
  return r.streamed_seq() == log_.last_seq();
}

}  // namespace corec::meta
