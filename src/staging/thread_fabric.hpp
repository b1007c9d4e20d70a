// ThreadFabric — the real-thread dispatcher for a staging deployment
// (as opposed to the virtual-time StagingService, which is
// single-threaded by construction). It hosts one ShardedObjectStore
// per staging server plus one entity-sharded metadata directory.
// Clients call put/get/erase from their own threads; lock striping
// keeps unrelated keys contention-free and reads hand back refcounted
// payload views (zero-copy). Routed ops place each object by rank-0
// HRW over the fabric's versioned pool map, so join_server() and
// drain_server() move only the entries whose home changed.
//
// Contention health is observable: shard_metrics() aggregates lock
// acquisitions, contended acquisitions and max shard occupancy across
// every store and the directory, the real-thread companion to
// payload_metrics().
#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "common/buffer.hpp"
#include "membership/pool_map.hpp"
#include "staging/sharded_store.hpp"

namespace corec::staging {

/// Construction-time configuration of a ThreadFabric.
struct FabricOptions {
  std::size_t store_shards = 0;      // per-server shards (0 = auto)
  std::size_t directory_shards = 0;  // metadata shards (0 = auto)
  std::size_t server_capacity = 0;   // bytes per server (0 = unlimited)
};

/// Operation counters (relaxed; exact at quiesce).
struct FabricStatsSnapshot {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t erases = 0;
  std::uint64_t put_failures = 0;  // capacity rejections etc.
  std::uint64_t get_misses = 0;    // NotFound reads
};

class ThreadFabric {
 public:
  explicit ThreadFabric(std::size_t num_servers,
                        FabricOptions options = {});

  ThreadFabric(const ThreadFabric&) = delete;
  ThreadFabric& operator=(const ThreadFabric&) = delete;

  // ---- ops (any client thread) ------------------------------------------

  Status put(ServerId server, DataObject object, StoredKind kind);

  /// Zero-copy read: the payload inside the returned entry is a
  /// refcounted view of the stored buffer.
  StatusOr<StoredObject> get(ServerId server,
                             const ObjectDescriptor& desc) const;

  bool erase(ServerId server, const ObjectDescriptor& desc);

  // ---- routed conveniences ----------------------------------------------

  /// Home of `desc`'s base entity: rank-0 HRW over the published pool
  /// map (the fabric has no SFC; simulation-faithful routing stays with
  /// StagingService).
  ServerId route(const ObjectDescriptor& desc) const;

  /// Routed put; `*home` (when non-null) receives the server it went to.
  Status put(DataObject object, StoredKind kind, ServerId* home = nullptr);
  StatusOr<StoredObject> get(const ObjectDescriptor& desc) const;
  bool erase(const ObjectDescriptor& desc);

  // ---- elastic membership ------------------------------------------------
  //
  // A transition holds the membership lock exclusively while it moves
  // every entry whose home changed and publishes the new map. Routed
  // ops wait for it, so each one sees either the old placement with
  // every entry at its old home or the new placement with every entry
  // moved: a routed get never misses and no write lands on a retired
  // home.

  /// Newest published map version (lock-free; the RPC server's
  /// staleness fast path).
  std::uint64_t map_version() const {
    return map_version_.load(std::memory_order_acquire);
  }

  /// Snapshot of the published map.
  membership::PoolMap pool_map_copy() const;

  /// Serialized form of the published map (for NOT_MY_SHARD redirect
  /// bodies and MAP_GET responses).
  Bytes map_blob() const;

  /// Grows the fabric by one server and rebalances the minimal set of
  /// entries onto it (JOINING -> migrate -> UP, two map versions).
  /// Returns the new server id.
  ServerId join_server();

  /// Migrates every entry off `target` and retires it (DRAIN ->
  /// migrate -> DOWN, two map versions). The store object stays in
  /// place (ids are dense and stable) but ends empty and unroutable.
  Status drain_server(ServerId target);

  // ---- structure access ----------------------------------------------------

  std::size_t num_servers() const {
    std::shared_lock<std::shared_mutex> lk(membership_mu_);
    return stores_.size();
  }
  ShardedObjectStore& store(ServerId server) { return *store_ptr(server); }
  const ShardedObjectStore& store(ServerId server) const {
    return *store_ptr(server);
  }
  ShardedDirectory& directory() { return directory_; }
  const ShardedDirectory& directory() const { return directory_; }

  // ---- rollups (never take a lock) ---------------------------------------

  std::size_t total_objects() const;
  std::size_t total_bytes() const;
  FabricStatsSnapshot stats() const;

  /// Aggregated over every server store and the directory.
  ShardMetricsSnapshot shard_metrics() const;

 private:
  /// Store pointer lookup under the membership lock. The pointee is
  /// stable across stores_ growth (unique_ptr targets don't move), so
  /// callers may keep using the raw pointer after the lock drops.
  ShardedObjectStore* store_ptr(ServerId server) const {
    std::shared_lock<std::shared_mutex> lk(membership_mu_);
    return stores_[server].get();
  }
  /// Routed home of `desc`'s base entity under `map`.
  ServerId home_under(const membership::PoolMap& map,
                      const ObjectDescriptor& desc) const;
  /// Moves every entry whose home under `map` differs from where it
  /// sits to that home. Caller holds membership_mu_ exclusively.
  void rehome(const membership::PoolMap& map);
  /// The counted store ops behind both the addressed and routed forms.
  Status put_to(ShardedObjectStore& store, DataObject object,
                StoredKind kind);
  StatusOr<StoredObject> get_from(const ShardedObjectStore& store,
                                  const ObjectDescriptor& desc) const;
  bool erase_from(ShardedObjectStore& store, const ObjectDescriptor& desc);

  std::vector<std::unique_ptr<ShardedObjectStore>> stores_;
  ShardedDirectory directory_;
  FabricOptions options_;
  /// Guards stores_ growth and map_ publication; routed ops hold it
  /// shared across the ranking lookup and the store op.
  mutable std::shared_mutex membership_mu_;
  membership::PoolMap map_;
  std::atomic<std::uint64_t> map_version_{0};
  mutable std::atomic<std::uint64_t> puts_{0};
  mutable std::atomic<std::uint64_t> gets_{0};
  mutable std::atomic<std::uint64_t> erases_{0};
  mutable std::atomic<std::uint64_t> put_failures_{0};
  mutable std::atomic<std::uint64_t> get_misses_{0};
};

}  // namespace corec::staging
