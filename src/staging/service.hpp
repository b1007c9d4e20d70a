// StagingService — the in-memory staging cluster (DataSpaces substitute).
// Hosts N staging servers with per-server object stores and service
// queues on a simulated interconnect, routes n-D object pieces to
// servers along a space-filling curve, executes put/get in virtual time,
// and delegates durability policy to a pluggable ResilienceScheme.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "erasure/codec.hpp"
#include "geom/partition.hpp"
#include "membership/pool_map.hpp"
#include "net/cost_model.hpp"
#include "net/queueing.hpp"
#include "net/topology.hpp"
#include "sfc/sfc.hpp"
#include "sim/simulation.hpp"
#include "staging/directory.hpp"
#include "staging/metadata.hpp"
#include "staging/object_store.hpp"
#include "staging/request.hpp"
#include "staging/scheme.hpp"

namespace corec::staging {

/// How objects are assigned to staging servers.
enum class PlacementMode : std::uint8_t {
  /// Static SFC key-range routing over the topology ring (the seed
  /// behaviour): deterministic for a fixed server count, but a resize
  /// reshuffles nearly every key range.
  kSfcRing = 0,
  /// Algorithmic placement over the versioned pool map (HRW hashing of
  /// the object's SFC key): elastic — joins and drains move only the
  /// minimal set of objects, and any holder of the map can compute the
  /// layout without a directory round-trip.
  kPoolMap = 1,
};

/// Construction-time configuration of a staging cluster.
struct ServiceOptions {
  /// Physical organization of the staging servers.
  net::Topology topology = net::Topology::flat(8, 4);
  /// Interconnect / CPU / PFS cost model.
  net::CostModel cost;
  /// Global n-D domain staged variables live in (required).
  geom::BoundingBox domain = geom::BoundingBox::cube(0, 0, 0, 255, 255, 255);
  /// Algorithm 1 fitting knobs (element size, target object size).
  geom::FitOptions fit;
  /// Per-server memory capacity in bytes (0 = unlimited).
  std::size_t server_capacity = 0;
  /// Seed for all stochastic choices inside the service.
  std::uint64_t seed = 42;
  /// Object -> server assignment strategy (see PlacementMode).
  PlacementMode placement = PlacementMode::kSfcRing;
};

/// Counters for the end-to-end integrity machinery: every read, decode
/// input and recovery copy is checksum-verified; corrupt entries are
/// quarantined (dropped from their store) so the erasure/replica repair
/// paths treat them exactly like lost shards.
struct IntegrityStats {
  std::uint64_t checks = 0;       // payload verifications performed
  std::uint64_t mismatches = 0;   // verifications that failed
  std::uint64_t quarantined = 0;  // corrupt entries dropped pending repair
};

/// Result of probing one stored representation against its recorded
/// checksum.
enum class ShardHealth : std::uint8_t { kMissing, kOk, kCorrupt };

/// One staging server: its store, its service queue and liveness.
struct ServerState {
  explicit ServerState(std::size_t capacity) : store(capacity) {}
  ObjectStore store;
  net::ServiceQueue queue;
  bool alive = true;
  std::uint32_t failures = 0;  // times this identity has failed
};

/// The staging cluster. All operations advance virtual time through the
/// bound Simulation; none of them block real threads.
class StagingService {
 public:
  StagingService(ServiceOptions options, sim::Simulation* sim,
                 std::unique_ptr<ResilienceScheme> scheme);

  // ---- client API -------------------------------------------------------

  /// Writes `data` (row-major over `box`, fit.element_size bytes per
  /// point). The object is partitioned per Algorithm 1; each piece is
  /// routed to its primary server and protected by the scheme. Returns
  /// when all pieces are durable.
  OpResult put(VarId var, Version version, const geom::BoundingBox& box,
               ByteSpan data);

  /// Same write path with a phantom payload of box.volume()*element
  /// bytes — used by paper-scale benches.
  OpResult put_phantom(VarId var, Version version,
                       const geom::BoundingBox& box);

  /// Reads the region `box` of `var` at the newest version <= `version`
  /// into `out` (may be nullptr for phantom workloads; resized to the
  /// region size otherwise).
  OpResult get(VarId var, Version version, const geom::BoundingBox& box,
               Bytes* out);

  /// Signals the end of a time step (classification sweeps etc.).
  void end_time_step(Version step);

  // ---- failure control ----------------------------------------------------

  /// Kills a server: store dropped, queue reset, reads fail over.
  void kill_server(ServerId s);

  /// Brings an empty replacement online under the same identity.
  void replace_server(ServerId s);

  bool alive(ServerId s) const { return servers_[s].alive; }
  std::size_t num_alive() const;

  // ---- elastic membership -------------------------------------------------

  /// The versioned pool map describing the current server set. Under
  /// PlacementMode::kPoolMap it is the routing authority; under
  /// kSfcRing it still tracks membership for observability.
  const membership::PoolMap& pool_map() const { return pool_map_; }

  /// Adds a brand-new empty server (grows the cluster by one), marks it
  /// JOINING in a new map version and replicates the map. Returns the
  /// new server's id. The caller (membership::Manager) is responsible
  /// for rebalancing data onto it and flipping it UP.
  ServerId join_server();

  /// Transitions one pool target's lifecycle state in a new map version
  /// and replicates the map. FAILED_PRECONDITION on unknown targets or
  /// no-op transitions.
  Status set_target_state(ServerId s, membership::TargetState state);

  /// Pushes the current map through the metadata plane's op-log so the
  /// metadata followers converge on it.
  /// Returns the replication completion time.
  SimTime replicate_map(SimTime now);

  /// HRW placement key of an object region (SFC key diffused through
  /// mix64 so nearby regions don't correlate in placement space).
  std::uint64_t placement_key(const geom::BoundingBox& box) const;

  /// First `count` alive targets of the HRW ranking for `box` under the
  /// current map (primary first). May return fewer than `count` when
  /// the map is small or degraded.
  std::vector<ServerId> placement_of(const geom::BoundingBox& box,
                                     std::size_t count) const;

  /// Placement group of size `n` for a stripe/replica set anchored at
  /// `primary`: slot 0 is forced to `primary`, the rest follow the HRW
  /// ranking (skipping the primary and dead servers), extended with any
  /// remaining alive servers as a last resort.
  std::vector<ServerId> placement_group(const geom::BoundingBox& box,
                                        ServerId primary,
                                        std::size_t n) const;

  // ---- scheme-facing primitives ------------------------------------------

  sim::Simulation& sim() { return *sim_; }
  const net::CostModel& cost() const { return options_.cost; }
  const net::Topology& topology() const { return options_.topology; }
  const ServiceOptions& options() const { return options_; }

  /// The metadata plane every directory read/write is routed through.
  /// Defaults to an in-process single-copy Directory; attach_metadata
  /// swaps in the replicated metadata service (src/meta/).
  MetadataPlane& directory() { return *meta_; }
  const MetadataPlane& directory() const { return *meta_; }

  /// Replaces the metadata plane (non-owning). Must be called before
  /// any traffic: entries already in the local plane are not migrated.
  void attach_metadata(MetadataPlane* meta);
  Rng& rng() { return rng_; }
  ResilienceScheme& scheme() { return *scheme_; }

  std::size_t num_servers() const { return servers_.size(); }
  ServerState& server(ServerId s) { return servers_[s]; }
  const ServerState& server(ServerId s) const { return servers_[s]; }

  /// Logical ring (position -> physical id) and its inverse.
  const std::vector<ServerId>& ring() const { return ring_; }
  std::size_t ring_position(ServerId s) const { return ring_pos_[s]; }

  /// The ring successor `steps` ahead of `s`.
  ServerId ring_next(ServerId s, std::size_t steps = 1) const;

  /// Primary server for an object region (SFC routing; skips dead
  /// servers by walking the ring).
  ServerId route(const geom::BoundingBox& box) const;

  /// Charges `service_time` of work on server `s` starting no earlier
  /// than `arrival`; returns completion time.
  SimTime serve_at(ServerId s, SimTime arrival, SimTime service) {
    return servers_[s].queue.serve(arrival, service);
  }

  /// Stores an object representation on a server (scheme primitive).
  Status store_at(ServerId s, DataObject obj, StoredKind kind) {
    std::size_t before = servers_[s].store.total_bytes();
    Status st = servers_[s].store.put(std::move(obj), kind);
    stored_total_ += servers_[s].store.total_bytes() - before;
    return st;
  }

  /// Removes an entry from a server store.
  void remove_at(ServerId s, const ObjectDescriptor& desc) {
    std::size_t before = servers_[s].store.total_bytes();
    servers_[s].store.erase(desc);
    stored_total_ -= before - servers_[s].store.total_bytes();
  }

  /// Verifies the entry `desc` on server `s` against `expected` (its
  /// CRC32C recorded in the directory; 0 = nothing recorded, accept).
  /// A mismatching entry is quarantined — erased from the store so
  /// every downstream path sees it as one more erasure to repair
  /// around. Phantom entries always verify clean. A caller that already
  /// looked the entry up on `s` passes it as `stored` to skip the find.
  ShardHealth probe_stored(ServerId s, const ObjectDescriptor& desc,
                           std::uint32_t expected,
                           const StoredObject* stored = nullptr);

  /// Fault injection: flips one bit of the stored bytes of `desc` on
  /// `s` (see ObjectStore::flip_byte). Returns false if there is no
  /// real payload there to corrupt.
  bool corrupt_at(ServerId s, const ObjectDescriptor& desc,
                  std::size_t offset);

  const IntegrityStats& integrity() const { return integrity_; }

  /// Cached Reed-Solomon codec for stripe geometry (k, m).
  const erasure::Codec& codec(std::uint32_t k, std::uint32_t m);

  // ---- storage accounting --------------------------------------------------

  /// Sum of true payload bytes of all registered whole objects.
  std::size_t logical_bytes() const;
  /// Sum of bytes resident in all server stores (O(1), incremental).
  std::size_t stored_bytes() const;
  /// Same sum recomputed from the stores (O(servers); invariant check).
  std::size_t stored_bytes_recomputed() const;
  /// logical / stored (1.0 = no overhead; paper's storage efficiency).
  double storage_efficiency() const;

 private:
  // One fitted piece read, `loc` as query_latest_located found it
  // after `removals` directory removals. Only the part of the piece
  // inside `requested` is shipped (and, in degraded mode,
  // reconstructed); `fraction` of the piece's bytes is charged. Returns
  // completion time; hands the piece's real bytes out through `piece_out` when
  // non-null — a replicated read is a refcount bump on the holder's
  // buffer, an encoded read gathers the chunk views into one exact
  // allocation.
  StatusOr<SimTime> read_piece(const ObjectDescriptor& desc,
                               const ObjectLocation* loc,
                               std::uint64_t removals,
                               const geom::BoundingBox& requested,
                               SimTime start, PayloadBuffer* piece_out,
                               Breakdown* bd);

  // Degraded read of an encoded object with missing chunks.
  StatusOr<SimTime> read_degraded(const ObjectDescriptor& desc,
                                  const ObjectLocation& loc,
                                  double fraction, SimTime start,
                                  PayloadBuffer* piece_out, Breakdown* bd);

  // Common body of put / put_phantom.
  OpResult put_impl(VarId var, Version version,
                    const geom::BoundingBox& box, ByteSpan data,
                    bool phantom);

  ServiceOptions options_;
  sim::Simulation* sim_;
  std::unique_ptr<ResilienceScheme> scheme_;
  sfc::SfcMapper mapper_;
  LocalMetadata local_meta_;
  MetadataPlane* meta_;  // points at local_meta_ unless attached
  std::vector<ServerState> servers_;
  std::vector<ServerId> ring_;
  std::vector<std::size_t> ring_pos_;
  membership::PoolMap pool_map_;
  Rng rng_;
  IntegrityStats integrity_;
  std::size_t stored_total_ = 0;  // incremental sum of store bytes
  std::uint64_t sfc_key_span_;    // max SFC key + 1, for range routing
  std::unordered_map<std::uint64_t, std::unique_ptr<erasure::Codec>>
      codecs_;
};

}  // namespace corec::staging
