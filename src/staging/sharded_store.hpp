// Sharded, lock-striped concurrent staging data plane for real-thread
// deployments (one stripe is the single-lock configuration):
//
//   * ShardedObjectStore — N-way hash-sharded ObjectStores, one
//     instrumented shared_mutex per shard. Operations on different
//     shards never contend; count()/total_bytes() read striped relaxed
//     atomics and never take a lock.
//   * ShardedDirectory — the metadata directory sharded by *entity*
//     (var, box), so every version of one region entity colocates and
//     per-shard latest-version semantics stay exact.
//
// Reads are zero-copy: get() returns the stored entry whose payload is
// a refcounted PayloadBuffer view. Escaped views are safe because every
// mutation path (flip_byte fault injection, overwriting puts) goes
// through PayloadBuffer's copy-on-write detach — a reader that left the
// lock with a view can never observe a later mutation.
#pragma once

#include <memory>
#include <vector>

#include "common/sharding.hpp"
#include "common/status.hpp"
#include "staging/directory.hpp"
#include "staging/object_store.hpp"

namespace corec::staging {

/// N-way sharded object store. Thread-safe; per-shard shared_mutex.
class ShardedObjectStore {
 public:
  /// `capacity_bytes` of 0 means unlimited (enforced across all shards
  /// together). `shards` of 0 picks default_shard_count().
  explicit ShardedObjectStore(std::size_t capacity_bytes = 0,
                              std::size_t shards = 0);

  /// Inserts or overwrites. Capacity is checked against the striped
  /// byte rollup: exact per shard, conservative across racing inserts
  /// to distinct shards (a concurrent admit may transiently overshoot
  /// by the in-flight object before the loser is rejected).
  Status put(DataObject object, StoredKind kind);

  /// Zero-copy read: the returned entry's payload is a refcounted view
  /// of the stored buffer (no byte copy). COW makes the escaped view
  /// immune to later flip_byte/overwrite of the stored entry.
  StatusOr<StoredObject> get(const ObjectDescriptor& desc) const;

  bool erase(const ObjectDescriptor& desc);
  bool contains(const ObjectDescriptor& desc) const;

  /// Fault injection passthrough (see ObjectStore::flip_byte).
  bool flip_byte(const ObjectDescriptor& desc, std::size_t offset);

  /// Drops everything on every shard.
  void clear();

  // ---- lock-free rollups --------------------------------------------------
  // Striped relaxed counters maintained under the shard locks; reading
  // them never acquires a lock and is exact at quiesce.
  std::size_t count() const;
  std::size_t total_bytes() const;
  std::size_t bytes_of(StoredKind kind) const;

  std::size_t capacity() const { return capacity_; }
  std::size_t shard_count() const { return num_shards_; }

  /// Iterates all entries shard by shard (shared lock per shard; order
  /// unspecified). Entries inserted/erased concurrently on other
  /// shards may or may not be visited.
  void for_each(
      const std::function<void(const StoredObject&)>& fn) const;

  /// Contention + occupancy snapshot for this store.
  ShardMetricsSnapshot shard_metrics() const;

 private:
  struct alignas(64) Shard {
    mutable InstrumentedSharedMutex mutex;
    ObjectStore store{0};  // per-shard capacity unlimited; global check
  };

  std::size_t shard_index(const ObjectDescriptor& desc) const {
    return DescriptorHash{}(desc) & mask_;
  }

  std::size_t capacity_;
  std::size_t mask_;
  std::unique_ptr<Shard[]> shards_;
  std::size_t num_shards_;
  StripedCounter count_;
  StripedCounter bytes_;
  StripedCounter kind_bytes_[4];
  // High-water mark of entries in any one shard (relaxed CAS max).
  mutable std::atomic<std::uint64_t> max_occupancy_{0};
  // Declared last: unregisters before the shards above are destroyed.
  ScopedShardMetricsRegistration metrics_registration_;
};

/// Entity-sharded metadata directory. Thread-safe; per-shard
/// shared_mutex. All versions of one (var, box) entity hash to the same
/// shard, so find/find_entity/remove are single-shard and per-shard
/// query_latest shadow tests see every version of the entities they
/// own.
class ShardedDirectory {
 public:
  explicit ShardedDirectory(std::size_t shards = 0);

  void upsert(const ObjectDescriptor& desc, ObjectLocation location);
  bool remove(const ObjectDescriptor& desc);

  /// Copy-out lookup (locations are small metadata records; payload
  /// zero-copy lives in the object store, not here).
  StatusOr<ObjectLocation> find(const ObjectDescriptor& desc) const;

  std::vector<ObjectDescriptor> query(
      VarId var, Version version, const geom::BoundingBox& region) const;

  /// Latest-version query. Each shard runs the exact shadow test over
  /// the entities it owns; the survivors are merged newest-first with
  /// one more global shadow pass. For disjoint entity boxes (the fitted
  /// partition invariant) this matches the monolithic Directory
  /// byte-for-byte; overlapping boxes may retain extra older
  /// descriptors, which callers already tolerate by assembling
  /// oldest-first.
  std::vector<ObjectDescriptor> query_latest(
      VarId var, Version version, const geom::BoundingBox& region) const;

  /// Live descriptor of entity (var, box), if any (single shard).
  StatusOr<ObjectDescriptor> find_entity(
      VarId var, const geom::BoundingBox& box) const;

  /// Lock-free striped rollup of registered objects.
  std::size_t size() const;

  /// Iterates every (descriptor, location) shard by shard.
  void for_each(
      const std::function<void(const ObjectDescriptor&,
                               const ObjectLocation&)>& fn) const;

  std::size_t shard_count() const { return num_shards_; }

  ShardMetricsSnapshot shard_metrics() const;

 private:
  struct alignas(64) Shard {
    mutable InstrumentedSharedMutex mutex;
    Directory dir;
  };

  std::size_t shard_index(VarId var, const geom::BoundingBox& box) const;

  std::size_t mask_;
  std::unique_ptr<Shard[]> shards_;
  std::size_t num_shards_;
  StripedCounter size_;
  mutable std::atomic<std::uint64_t> max_occupancy_{0};
  ScopedShardMetricsRegistration metrics_registration_;
};

}  // namespace corec::staging
