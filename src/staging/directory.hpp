// Distributed metadata directory (the DataSpaces DHT substitute). Keeps
// the authoritative mapping from object descriptors to their placement
// and protection state, and answers geometric queries (which objects of
// variable v, version t intersect region R). The *cost* of directory
// operations is charged through the cluster's cost model; this class is
// the state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "staging/descriptor_table.hpp"
#include "staging/object.hpp"

namespace corec::staging {

/// How an object is currently protected.
enum class Protection : std::uint8_t {
  kNone,        // single copy on the primary
  kReplicated,  // primary + replicas
  kEncoded,     // striped into k data + m parity chunks
};

inline const char* to_string(Protection p) {
  switch (p) {
    case Protection::kNone: return "none";
    case Protection::kReplicated: return "replicated";
    case Protection::kEncoded: return "encoded";
  }
  return "?";
}

/// Placement record for one whole object.
struct ObjectLocation {
  ServerId primary = kInvalidServer;
  Protection protection = Protection::kNone;
  std::vector<ServerId> replicas;        // kReplicated
  std::vector<ServerId> stripe_servers;  // kEncoded: n = k + m entries
  std::uint32_t k = 0;                   // kEncoded stripe geometry
  std::uint32_t m = 0;
  std::size_t chunk_size = 0;            // bytes per chunk (padded)
  std::size_t logical_size = 0;          // true payload bytes
  // End-to-end integrity tags, stamped at placement time. 0 means "no
  // checksum recorded" (phantom payloads): verification is skipped.
  std::uint32_t object_checksum = 0;     // CRC32C of the whole payload
  std::vector<std::uint32_t> shard_checksums;  // kEncoded: n per-shard CRCs

  /// True when this placement puts a copy or a shard on server `s`.
  bool places_on(ServerId s) const {
    return primary == s ||
           std::find(replicas.begin(), replicas.end(), s) !=
               replicas.end() ||
           std::find(stripe_servers.begin(), stripe_servers.end(), s) !=
               stripe_servers.end();
  }
};

/// Recorded checksum of stripe shard `i` (0-based over the n = k + m
/// shards); 0 ("none recorded") when out of range.
inline std::uint32_t shard_checksum(const ObjectLocation& loc,
                                    std::size_t i) {
  return i < loc.shard_checksums.size() ? loc.shard_checksums[i] : 0;
}

/// A query_latest hit together with its placement record.
struct LocatedDescriptor {
  ObjectDescriptor desc;
  const ObjectLocation* loc = nullptr;
};

/// Metadata directory: descriptor -> location plus a per-(var, version)
/// geometric index for intersection queries.
class Directory {
 public:
  Directory() = default;
  // Slots point at locations_' nodes, which moving keeps and a copy
  // would not.
  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;
  Directory(Directory&&) = default;
  Directory& operator=(Directory&&) = default;

  /// Registers or updates the location of `desc` (whole objects only).
  void upsert(const ObjectDescriptor& desc, ObjectLocation location);

  /// Removes `desc` (object deleted).
  bool remove(const ObjectDescriptor& desc);

  /// Looks up the location of exactly `desc`.
  const ObjectLocation* find(const ObjectDescriptor& desc) const;

  /// All descriptors of (var, version) whose boxes intersect `region`.
  std::vector<ObjectDescriptor> query(VarId var, Version version,
                                      const geom::BoundingBox& region)
      const;

  /// All descriptors of `var` at the latest version <= `version` that
  /// intersect `region` — DataSpaces "latest version" read semantics.
  /// An object written at version w is visible to reads at any v >= w
  /// until overwritten; this returns, per region piece, the newest
  /// matching descriptor.
  std::vector<ObjectDescriptor> query_latest(VarId var, Version version,
                                             const geom::BoundingBox& region)
      const;

  /// query_latest with each descriptor's location. A location pointer
  /// stays valid until the next remove() (see removals()) or until the
  /// directory is assigned to; upserts, including in-place location
  /// updates, keep it valid.
  std::vector<LocatedDescriptor> query_latest_located(
      VarId var, Version version, const geom::BoundingBox& region) const;

  /// Number of successful remove() calls so far. A caller holding
  /// location pointers re-finds them once this moves.
  std::uint64_t removals() const { return removals_; }

  /// Finds the live descriptor of the region entity (var, box): the
  /// currently registered object with exactly this variable and box,
  /// whatever its version. Simulation writes update the same region
  /// every time step; this lookup turns such writes into updates of one
  /// entity instead of an unbounded version history.
  const ObjectDescriptor* find_entity(VarId var,
                                      const geom::BoundingBox& box) const;

  /// Total number of registered objects.
  std::size_t size() const { return locations_.size(); }

  /// Iterate every (descriptor, location).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [desc, entry] : locations_) fn(desc, entry.loc);
  }

 private:
  static ObjectDescriptor entity_key(VarId var,
                                     const geom::BoundingBox& box) {
    return ObjectDescriptor{var, 0, box, kWholeObject};
  }

  struct Entry {
    ObjectLocation loc;
    std::size_t slot = 0;  // index of the descriptor in its bucket
  };
  struct Slot {
    ObjectDescriptor desc;
    Entry* entry = nullptr;  // map nodes survive rehash; dangles once dead
    bool live = true;
  };
  // One (var, version) bucket: descriptors in insertion order, removed
  // ones tombstoned in place. Queries visit pieces in this order and the
  // simulated outcome depends on it, so compaction must be stable.
  // `bounds` mirrors the slots' boxes flat (lo then hi, 2 * dims coords
  // per slot, dead ones included until compaction) so a query tests
  // them without touching the slots. A bucket whose boxes differ in
  // dims is `mixed` and keeps no bounds.
  struct Bucket {
    std::vector<Slot> slots;
    std::vector<geom::Coord> bounds;
    std::size_t dims = 0;
    bool mixed = false;
    std::size_t dead = 0;
  };
  void compact(Bucket& bucket);
  // Calls emit(slot) for each query_latest hit, in result order.
  template <typename Emit>
  void scan_latest(VarId var, Version version,
                   const geom::BoundingBox& region, Emit&& emit) const;

  // Stays a std::unordered_map, whose iteration order follows its
  // insert/erase history: for_each walks it, and that order reaches
  // decisions through CorecScheme::end_of_step's pool snapshot (sorted
  // by an unstable std::sort) and RecoveryManager::on_server_replaced.
  std::unordered_map<ObjectDescriptor, Entry, DescriptorHash> locations_;
  // (var, version) -> bucket, for geometric queries.
  std::map<std::pair<VarId, Version>, Bucket> by_version_;
  // Normalized (var, box) -> live descriptor.
  DescriptorTable<ObjectDescriptor> entities_;
  std::uint64_t removals_ = 0;
};

}  // namespace corec::staging
