// Versioned pool map: the authoritative description of the staging
// server set, DAOS-style. The map is a flattened domain tree (cabinet
// -> node -> target) with a per-target lifecycle state, stamped with a
// monotonically increasing version. Every membership transition (join,
// drain, eviction, completion of a rebalance) produces a NEW version;
// clients and meta followers converge on the newest version they have
// seen and never move backwards. Placement (placement.hpp) is a pure
// function of (object key, shard index, the map at a version), so any
// holder of the map can locate data without a directory round-trip.
//
// The map is deliberately tiny (a few dozen bytes per target) and is
// replicated whole: a transition record carries the full serialized
// map, which makes replication idempotent and order-tolerant — adopt()
// keeps whichever copy carries the higher version.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace corec::membership {

/// Lifecycle of a pool target (one staging server).
enum class TargetState : std::uint8_t {
  kUp = 0,       // serving, placement-eligible
  kJoining = 1,  // serving + placement-eligible, rebalance inbound
  kDrain = 2,    // readable but placement-ineligible, rebalance outbound
  kDown = 3,     // gone: neither readable nor placement-eligible
};

/// Human-readable name of a TargetState.
const char* to_string(TargetState s);

/// One leaf of the domain tree: a target plus its position (cabinet,
/// node) and the map version at which its state last changed.
struct PoolTarget {
  ServerId id = kInvalidServer;
  std::uint16_t cabinet = 0;
  std::uint16_t node = 0;
  TargetState state = TargetState::kUp;
  std::uint64_t state_version = 0;
};

/// The versioned pool map. Mutations bump the version; reads are cheap.
/// Not internally synchronized — an owner that mutates a map shared
/// across threads wraps it in its own lock. staging::ThreadFabric never
/// mutates its map after construction, so it reads it lock-free.
class PoolMap {
 public:
  PoolMap() = default;

  /// Builds the initial map (version 1) with `count` UP targets laid
  /// out over the given domain shape, matching net::Topology's
  /// row-major cabinet/node assignment: server s lives on node
  /// (s / servers_per_node) % nodes_per_cabinet of cabinet
  /// s / (servers_per_node * nodes_per_cabinet).
  static PoolMap initial(std::size_t count, std::size_t nodes_per_cabinet = 4,
                         std::size_t servers_per_node = 1);

  /// Current map version. 0 means "empty / never initialized"; every
  /// real map starts at 1.
  std::uint64_t version() const { return version_; }

  /// All targets, dense by id (id == index).
  const std::vector<PoolTarget>& targets() const { return targets_; }
  std::size_t size() const { return targets_.size(); }

  /// Number of targets eligible to hold new placements (UP or
  /// JOINING).
  std::size_t placement_count() const;

  /// State of one target; kDown for out-of-range ids.
  TargetState state_of(ServerId id) const;
  /// True when the target may serve reads (UP, JOINING or DRAIN).
  bool readable(ServerId id) const;

  /// Appends a new target in JOINING state at the given domain position
  /// and bumps the version. Returns the new target's id.
  ServerId add_target(std::uint16_t cabinet, std::uint16_t node);

  /// Transitions one target's state and bumps the version. Returns
  /// FAILED_PRECONDITION for unknown ids or no-op transitions.
  Status set_state(ServerId id, TargetState state);

  /// Serializes the whole map (format byte + version + targets).
  void encode(std::vector<std::uint8_t>* out) const;
  /// Decodes a map previously produced by encode(). Hardened: rejects
  /// truncated input, bad format bytes and non-dense target ids.
  static StatusOr<PoolMap> decode(
      const std::uint8_t* data, std::size_t size);

  /// Adopts `other` if it carries a strictly newer version. Returns
  /// true when the map changed. This is the convergence rule for meta
  /// followers and stale clients.
  bool adopt(const PoolMap& other);

  /// FNV-1a digest of the serialized map; cheap equality check across
  /// processes in tests and logs.
  std::uint64_t digest() const;

  /// One-line "v<version>: U up / J joining / D drain / X down" summary.
  std::string summary() const;

 private:
  std::uint64_t version_ = 0;
  std::vector<PoolTarget> targets_;
};

}  // namespace corec::membership
