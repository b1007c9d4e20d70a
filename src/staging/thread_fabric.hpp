// ThreadFabric — the real-thread dispatcher for a staging deployment
// (as opposed to the virtual-time StagingService, which is
// single-threaded by construction). It hosts one ShardedObjectStore
// per staging server plus one entity-sharded metadata directory.
// Clients call put/get/erase from their own threads; lock striping
// keeps unrelated keys contention-free and reads hand back refcounted
// payload views (zero-copy). The server set is fixed at construction;
// routed ops place each object by rank-0 HRW over it. Served membership
// changes belong to membership::Manager, not to this fabric.
//
// Contention health is observable: shard_metrics() aggregates lock
// acquisitions, contended acquisitions and max shard occupancy across
// every store and the directory, the real-thread companion to
// payload_metrics().
#pragma once

#include <atomic>
#include <memory>
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

  /// Home of `desc`'s base entity: rank-0 HRW over the fixed pool map
  /// (the fabric has no SFC; simulation-faithful routing stays with
  /// StagingService).
  ServerId route(const ObjectDescriptor& desc) const;

  /// Routed put; `*home` (when non-null) receives the server it went to.
  Status put(DataObject object, StoredKind kind, ServerId* home = nullptr);
  StatusOr<StoredObject> get(const ObjectDescriptor& desc) const;
  bool erase(const ObjectDescriptor& desc);

  // ---- structure access ----------------------------------------------------

  std::size_t num_servers() const { return stores_.size(); }
  ShardedObjectStore& store(ServerId server) { return *stores_[server]; }
  const ShardedObjectStore& store(ServerId server) const {
    return *stores_[server];
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
  /// The counted store ops behind both the addressed and routed forms.
  Status put_to(ShardedObjectStore& store, DataObject object,
                StoredKind kind);
  StatusOr<StoredObject> get_from(const ShardedObjectStore& store,
                                  const ObjectDescriptor& desc) const;
  bool erase_from(ShardedObjectStore& store, const ObjectDescriptor& desc);

  std::vector<std::unique_ptr<ShardedObjectStore>> stores_;
  ShardedDirectory directory_;
  /// Flat layout (every target on its own node of cabinet 0), all UP;
  /// never changes after construction.
  const membership::PoolMap map_;
  mutable std::atomic<std::uint64_t> puts_{0};
  mutable std::atomic<std::uint64_t> gets_{0};
  mutable std::atomic<std::uint64_t> erases_{0};
  mutable std::atomic<std::uint64_t> put_failures_{0};
  mutable std::atomic<std::uint64_t> get_misses_{0};
};

}  // namespace corec::staging
