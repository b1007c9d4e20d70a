// Placement primitives shared by every resilience scheme: making an
// object durable through replication or through per-object striping
// (k data + m parity chunks across a coding group), retiring previous
// representations, and rebuilding lost pieces during recovery.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "erasure/codec.hpp"
#include "staging/object.hpp"
#include "staging/request.hpp"
#include "staging/service.hpp"

namespace corec::resilience {

/// Materialized shard payloads for one stripe: k data shards followed
/// by m parity shards. Data shards are zero-copy views into the source
/// object's buffer (only a padded trailing chunk gets its own
/// allocation); parity shards are views into one shared allocation the
/// fused encode_view kernels wrote into. Empty for phantom objects.
struct StripePayload {
  std::vector<staging::DataObject> shards;  // complete shard objects, CRC-stamped
  std::size_t chunk_size = 0;
};

/// Builds the stripe for a real `obj`: slices k chunk views from
/// obj.data with zero concatenation, encodes m parity chunks through
/// `codec.encode_view`, and stamps every shard's CRC32C (cached in its
/// buffer view, so downstream placement never recomputes).
StripePayload make_stripe_payload(const erasure::Codec& codec,
                                  const staging::DataObject& obj,
                                  std::size_t k, std::size_t m);

/// Stores the primary copy of `obj` on `primary` and `n_replicas`
/// copies on the other members of its replication group (window size
/// n_replicas+1; extended along the ring if members are dead). Updates
/// the directory. Returns the durable time; transfer/copy costs are
/// pipelined per the paper's C_r = l*N + c.
SimTime place_replicated(staging::StagingService& service,
                         const staging::DataObject& obj, ServerId primary,
                         std::size_t n_replicas, SimTime arrived,
                         staging::Breakdown* bd);

/// Splits `obj` into k chunks, computes m parity chunks, and stores the
/// n = k+m shards across `primary`'s coding group (primary in slot 0,
/// parity in the trailing slots). `encoder` is the server charged with
/// the encode CPU time (the conflict-avoiding workflow may pick a
/// helper); it must already hold the payload. Updates the directory.
SimTime place_encoded(staging::StagingService& service,
                      const staging::DataObject& obj, ServerId primary,
                      std::size_t k, std::size_t m, ServerId encoder,
                      SimTime start, staging::Breakdown* bd,
                      SimTime* encode_done = nullptr);

/// Removes every stored representation of `desc` (primary, replicas or
/// chunks, per its directory record) and unregisters it.
void retire_object(staging::StagingService& service,
                   const staging::ObjectDescriptor& desc);

/// retire_object for a caller that already found `desc`'s directory
/// record `loc`; `loc` dangles once this returns.
void retire_object(staging::StagingService& service,
                   const staging::ObjectDescriptor& desc,
                   const staging::ObjectLocation& loc);

/// The erasure update penalty of Section II-A: before re-encoding an
/// already-encoded object, the updating server must read the stripe's
/// peer chunks from the other group members ("updating one data object
/// requires [k-1] data object reads"). Charges those reads starting at
/// `start` and returns the time all peers have arrived at `reader`.
/// No-op (returns `start`) when `desc` is not currently encoded.
SimTime charge_stripe_peer_reads(staging::StagingService& service,
                                 const staging::ObjectDescriptor& desc,
                                 ServerId reader, SimTime start,
                                 staging::Breakdown* bd);

/// Rebuilds the shards/copies of `desc` that should live on `target`
/// (a replacement server) from surviving sources: a copy for
/// replicated objects, a decode for encoded objects. Charges all
/// involved queues starting at `start`; returns the completion time.
/// No-ops (returning `start`) when the target holds everything already.
SimTime rebuild_on(staging::StagingService& service,
                   const staging::ObjectDescriptor& desc, ServerId target,
                   SimTime start, staging::Breakdown* bd);

/// Replication probability P_r that makes a random replication/erasure
/// mix meet storage-efficiency constraint `S` exactly (Section II-D):
/// P_r = E_r (S - E_e) / (S (E_r - E_e)), clamped to [0, 1].
double replication_probability_for_constraint(double S,
                                              std::size_t n_level,
                                              std::size_t k,
                                              std::size_t m);

}  // namespace corec::resilience
