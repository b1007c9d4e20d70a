// Per-server in-memory object store: primary copies, replicas, and
// erasure chunk shards, with byte accounting per role so the cluster can
// report storage efficiency and enforce memory budgets.
#pragma once

#include <cstddef>
#include <functional>

#include "common/status.hpp"
#include "staging/descriptor_table.hpp"
#include "staging/object.hpp"

namespace corec::staging {

/// Role of a stored entry in the resilience scheme.
enum class StoredKind : std::uint8_t {
  kPrimary,   // the authoritative copy of a whole object
  kReplica,   // an additional copy placed for fault tolerance
  kDataChunk, // erasure-coded data shard
  kParity,    // erasure-coded parity shard
};

inline const char* to_string(StoredKind k) {
  switch (k) {
    case StoredKind::kPrimary: return "primary";
    case StoredKind::kReplica: return "replica";
    case StoredKind::kDataChunk: return "data-chunk";
    case StoredKind::kParity: return "parity";
  }
  return "?";
}

/// One stored entry.
struct StoredObject {
  DataObject object;
  StoredKind kind = StoredKind::kPrimary;
};

/// Hash-keyed local store with per-kind byte accounting. Not
/// thread-safe on its own: the virtual-time simulator drives it from a
/// single thread, and real-thread deployments compose per-shard
/// instances behind the lock stripes of ShardedObjectStore, which the
/// ThreadFabric dispatcher drives from many client threads.
class ObjectStore {
 public:
  /// `capacity_bytes` of 0 means unlimited.
  explicit ObjectStore(std::size_t capacity_bytes = 0)
      : capacity_(capacity_bytes) {}

  /// Inserts or overwrites. Fails with ResourceExhausted if the new
  /// total would exceed capacity.
  Status put(DataObject object, StoredKind kind);

  /// Looks up the entry with exactly this descriptor. The pointer stays
  /// valid, and shows any overwrite, until that entry is erased or the
  /// store is cleared.
  const StoredObject* find(const ObjectDescriptor& desc) const;

  /// Removes an entry; returns true if it was present.
  bool erase(const ObjectDescriptor& desc);

  /// Fault injection: XORs one bit into the stored bytes of `desc` at
  /// `offset % size`, simulating silent in-memory corruption. Byte
  /// accounting is untouched. Copy-on-write: if the payload shares its
  /// backing store with sibling replicas, this entry detaches to a
  /// private copy first, so corruption never aliases across holders.
  /// Returns false for absent/phantom/empty entries (nothing to
  /// corrupt) — deterministically a no-op, never a crash.
  bool flip_byte(const ObjectDescriptor& desc, std::size_t offset);

  /// Drops everything (server failure). Byte accounting resets.
  void clear();

  bool contains(const ObjectDescriptor& desc) const {
    return find(desc) != nullptr;
  }

  std::size_t count() const { return entries_.size(); }
  std::size_t total_bytes() const { return total_bytes_; }
  std::size_t bytes_of(StoredKind kind) const {
    return kind_bytes_[static_cast<std::size_t>(kind)];
  }
  std::size_t capacity() const { return capacity_; }

  /// Iterates all entries (order unspecified).
  void for_each(
      const std::function<void(const StoredObject&)>& fn) const;

 private:
  std::size_t capacity_;
  std::size_t total_bytes_ = 0;
  std::size_t kind_bytes_[4] = {0, 0, 0, 0};
  DescriptorTable<StoredObject> entries_;
};

}  // namespace corec::staging
