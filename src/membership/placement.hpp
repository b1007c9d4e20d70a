// Algorithmic placement over the versioned pool map: a deterministic
// pseudo-random function from (object key, shard/replica index, map
// version) to a staging target, with no directory round-trip. The
// scheme is highest-random-weight (rendezvous) hashing: every
// placement-eligible target is scored with a 64-bit mix of (object
// key, target id) and the object's shard i lives on the target with
// the (i+1)-th highest score. HRW gives the three properties the
// property suite asserts:
//
//   deterministic  — scores depend only on the key and target id, so
//                    any process holding the same map computes the same
//                    layout;
//   balanced       — the mix is uniform, so per-target shard counts at
//                    N objects concentrate around N*shards/targets
//                    (chi-square bounded in tests);
//   minimal motion — adding or removing a target only moves the shards
//                    whose top-scoring target changed: an expected
//                    shards/targets fraction on join and only the dead
//                    target's shards on drain, vs. ~(targets-1)/targets
//                    for a naive mod-rehash.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "membership/pool_map.hpp"

namespace corec::membership {

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer. Public so
/// callers can derive object keys from ids/hashes with the same
/// diffusion quality.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// HRW score of `target` for `object_key`.
constexpr std::uint64_t placement_score(std::uint64_t object_key,
                                        ServerId target) {
  return mix64(object_key ^ mix64(0x636f726563ULL + target));
}

/// The first `count` targets of the HRW ranking of the map's
/// placement-eligible targets for `object_key`, highest score first.
/// Index 0 is the primary, 1..n-1 the replicas (or EC shards 0..n-1).
/// `count` is clamped to the number of eligible targets; an empty map
/// yields an empty vector.
std::vector<ServerId> place(const PoolMap& map, std::uint64_t object_key,
                            std::size_t count);

/// The primary alone: `place(map, object_key, 1)[0]` as one argmax
/// scan with no allocation (kInvalidServer when no target is eligible).
ServerId place_one(const PoolMap& map, std::uint64_t object_key);

}  // namespace corec::membership
