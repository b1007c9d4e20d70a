#include "resilience/primitives.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "common/failpoint.hpp"
#include "resilience/groups.hpp"

namespace corec::resilience {

using staging::Breakdown;
using staging::DataObject;
using staging::ObjectDescriptor;
using staging::ObjectLocation;
using staging::Protection;
using staging::ShardHealth;
using staging::ShardIndex;
using staging::StagingService;
using staging::StoredKind;

SimTime place_replicated(StagingService& service, const DataObject& obj,
                         ServerId primary, std::size_t n_replicas,
                         SimTime arrived, Breakdown* bd) {
  const auto& cost = service.cost();

  // Primary copy.
  Status st = service.store_at(primary, obj, StoredKind::kPrimary);
  assert(st.ok());
  (void)st;

  // Replica targets. Pool-map placement takes the next alive targets of
  // the object's HRW ranking (so any map holder can recompute the
  // replica set); ring placement takes the other members of the
  // replication group, walking the ring past dead members.
  std::vector<ServerId> replicas;
  if (service.options().placement == staging::PlacementMode::kPoolMap) {
    auto group = service.placement_group(obj.desc.box, primary,
                                         n_replicas + 1);
    replicas.assign(group.begin() + 1, group.end());
  } else {
    auto group = ring_group_from(service, primary,
                                 n_replicas + 1);
    for (std::size_t i = 1;
         i < group.size() && replicas.size() < n_replicas; ++i) {
      if (service.alive(group[i])) replicas.push_back(group[i]);
    }
    for (std::size_t step = 1;
         replicas.size() < n_replicas && step < service.num_servers();
         ++step) {
      ServerId cand = service.ring_next(primary, n_replicas + step);
      if (cand != primary && service.alive(cand) &&
          std::find(replicas.begin(), replicas.end(), cand) ==
              replicas.end()) {
        replicas.push_back(cand);
      }
    }
  }

  // Pipelined replica chain: durable after N link hops plus one
  // serialization of the payload (C_r = l * N + c).
  SimTime durable = arrived;
  SimTime serialization =
      cost.transfer_time(obj.logical_size) - cost.link_latency;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    SimTime arrival = arrived +
                      static_cast<SimTime>(i + 1) * cost.link_latency +
                      serialization;
    bd->transport += cost.link_latency;
    SimTime service_time = cost.copy_time(obj.logical_size);
    bd->copy += service_time;
    if (auto fp = COREC_FAILPOINT("staging.replica.drop_write")) {
      // The replica write is acknowledged but silently dropped: time is
      // charged, bytes never land. Reads fail over; the scrubber finds
      // and repairs the hole.
    } else {
      DataObject replica = obj;
      Status rst =
          service.store_at(replicas[i], std::move(replica),
                           StoredKind::kReplica);
      assert(rst.ok());
      (void)rst;
    }
    durable = std::max(durable,
                       service.serve_at(replicas[i], arrival, service_time));
  }
  bd->transport += replicas.empty() ? 0 : serialization;

  ObjectLocation loc;
  loc.primary = primary;
  loc.protection =
      replicas.empty() ? Protection::kNone : Protection::kReplicated;
  loc.replicas = std::move(replicas);
  loc.logical_size = obj.logical_size;
  loc.object_checksum = obj.phantom ? 0 : obj.checksum;
  // The write is durable only once both the data copies and the
  // metadata registration (which itself replicates under src/meta/)
  // have landed.
  SimTime meta_ack = service.directory().upsert(obj.desc, loc);
  bd->metadata += cost.metadata_op;
  return std::max(durable + cost.metadata_op, meta_ack);
}

StripePayload make_stripe_payload(const erasure::Codec& codec,
                                  const DataObject& obj, std::size_t k,
                                  std::size_t m) {
  StripePayload stripe;
  stripe.chunk_size =
      (obj.logical_size + k - 1) / std::max<std::size_t>(k, 1);
  if (obj.phantom) return stripe;
  const std::size_t chunk = stripe.chunk_size;

  stripe.shards.reserve(k + m);
  std::vector<ByteSpan> data_spans(k);
  // Data shards: views into obj.data, zero concatenation. Only a chunk
  // that runs past the payload end (the padded tail) materializes.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t begin = i * chunk;
    const std::size_t have =
        begin < obj.data.size() ? obj.data.size() - begin : 0;
    PayloadBuffer view;
    if (have >= chunk) {
      view = obj.data.slice(begin, chunk);
    } else {
      // Pool-backed scratch: the padded tail recycles through the slab
      // magazines instead of a fresh heap carve per demotion. Only the
      // padding past the payload end is zeroed.
      view = PayloadBuffer::from_pool(chunk);
      MutableByteSpan tail = view.mutable_span();
      if (have > 0) {
        std::memcpy(tail.data(), obj.data.data() + begin, have);
        payload_metrics().bytes_copied.fetch_add(
            have, std::memory_order_relaxed);
      }
      std::memset(tail.data() + have, 0, chunk - have);
    }
    data_spans[i] = view.span();
    stripe.shards.push_back(DataObject::real(
        obj.desc.shard_of(static_cast<ShardIndex>(1 + i)),
        std::move(view)));
  }

  // Parity: one pooled allocation for all m chunks, written in place
  // by the fused view kernels (which overwrite every byte, so no
  // zero-fill), then sliced into per-shard views.
  PayloadBuffer parity = PayloadBuffer::from_pool(chunk * m);
  if (chunk > 0 && m > 0) {
    MutableByteSpan parity_all = parity.mutable_span();
    std::vector<MutableByteSpan> parity_spans(m);
    for (std::size_t j = 0; j < m; ++j) {
      parity_spans[j] = parity_all.subspan(j * chunk, chunk);
    }
    Status est = codec.encode_view(data_spans.data(), k,
                                   parity_spans.data(), m);
    assert(est.ok());
    (void)est;
  }
  for (std::size_t j = 0; j < m; ++j) {
    stripe.shards.push_back(DataObject::real(
        obj.desc.shard_of(static_cast<ShardIndex>(1 + k + j)),
        parity.slice(j * chunk, chunk)));
  }
  return stripe;
}

namespace {

/// Stripe layout for `box`'s coding group: n distinct servers with the
/// primary in slot 0. Under SFC-ring placement the group is the ring
/// window at the primary, extended along the failure-domain ring when
/// the trailing group is undersized; under pool-map placement the
/// remaining slots follow the object's HRW ranking.
std::vector<ServerId> stripe_layout(StagingService& service,
                                    const geom::BoundingBox& box,
                                    ServerId primary, std::size_t n) {
  if (service.options().placement == staging::PlacementMode::kPoolMap) {
    std::vector<ServerId> stripe = service.placement_group(box, primary, n);
    assert(stripe.size() == n && "cluster smaller than stripe width");
    return stripe;
  }
  // Coding-group members with the primary in slot 0.
  std::vector<ServerId> stripe = ring_group_from(service, primary, n);
  // Undersized trailing group: extend along the ring (distinct servers).
  for (std::size_t step = 1;
       stripe.size() < n && step < service.num_servers(); ++step) {
    ServerId cand = service.ring_next(primary, n - 1 + step);
    if (std::find(stripe.begin(), stripe.end(), cand) == stripe.end()) {
      stripe.push_back(cand);
    }
  }
  stripe.resize(std::min(stripe.size(), n));
  assert(stripe.size() == n && "cluster smaller than stripe width");
  return stripe;
}

/// Stores shard `i` of `obj`'s stripe on `target`, applying the
/// staging.shard.{crash_target,torn_write,bitflip} failpoints, and
/// records the CRC of what should have landed in (*crcs)[i]. `sp`
/// carries the prepared stripe (ignored for phantoms).
void store_stripe_shard(StagingService& service, const DataObject& obj,
                        const StripePayload* sp, std::size_t i,
                        std::size_t k, std::size_t chunk_size,
                        ServerId target, std::vector<std::uint32_t>* crcs) {
  auto shard_desc = obj.desc.shard_of(static_cast<ShardIndex>(1 + i));
  DataObject shard;
  if (obj.phantom) {
    shard = DataObject::make_phantom(shard_desc, chunk_size);
  } else {
    // Refcount bump on the stripe's shard view, no byte copy.
    shard = sp->shards[i];
    // Record the CRC of what *should* land; the torn-write and
    // bit-flip failpoints below corrupt the stored copy after this,
    // which is exactly the mismatch read-side verification catches.
    (*crcs)[i] = shard.checksum;
  }
  if (auto fp = COREC_FAILPOINT("staging.shard.crash_target");
      fp && service.num_alive() > 1) {
    service.kill_server(target);
  }
  if (!service.alive(target)) return;
  if (!obj.phantom) {
    if (auto fp = COREC_FAILPOINT("staging.shard.torn_write")) {
      std::size_t keep =
          fp.arg != 0 ? std::min<std::size_t>(fp.arg, shard.data.size())
                      : shard.data.size() / 2;
      // A truncated prefix view: the stored bytes no longer match
      // the recorded CRC. logical_size (and byte accounting) keeps
      // the full chunk, as with an in-place truncation.
      shard.data = shard.data.prefix(keep);
    }
  }
  Status sst = service.store_at(target, std::move(shard),
                                i < k ? StoredKind::kDataChunk
                                      : StoredKind::kParity);
  assert(sst.ok());
  (void)sst;
  if (!obj.phantom) {
    if (auto fp = COREC_FAILPOINT("staging.shard.bitflip")) {
      service.corrupt_at(target, shard_desc,
                         static_cast<std::size_t>(fp.rng));
    }
  }
}

}  // namespace

SimTime place_encoded(StagingService& service, const DataObject& obj,
                      ServerId primary, std::size_t k, std::size_t m,
                      ServerId encoder, SimTime start, Breakdown* bd,
                      SimTime* encode_done) {
  const auto& cost = service.cost();
  const std::size_t n = k + m;
  const std::size_t chunk_size =
      (obj.logical_size + k - 1) / std::max<std::size_t>(k, 1);

  std::vector<ServerId> stripe =
      stripe_layout(service, obj.desc.box, primary, n);

  // Encode on `encoder` (primary, or the helper chosen by the
  // conflict-avoiding workflow).
  SimTime enc = cost.encode_time(k, m, chunk_size);
  bd->encode += enc;
  SimTime t_enc = service.serve_at(encoder, start, enc);
  if (encode_done != nullptr) *encode_done = t_enc;

  // Build the stripe payload (real objects): chunk views over the
  // source buffer plus freshly encoded parity.
  StripePayload sp;
  if (!obj.phantom) {
    sp = make_stripe_payload(
        service.codec(static_cast<std::uint32_t>(k),
                      static_cast<std::uint32_t>(m)),
        obj, k, m);
    assert(sp.chunk_size == chunk_size);
  }

  // Distribute the shards. The encoder keeps its own shard locally;
  // the others are serialized out over its link, pipelined.
  SimTime durable = t_enc;
  std::vector<std::uint32_t> shard_crcs(n, 0);
  std::size_t sent = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ServerId target = stripe[i];
    store_stripe_shard(service, obj, &sp, i, k, chunk_size, target,
                       &shard_crcs);

    SimTime arrival = t_enc;
    if (target != encoder) {
      ++sent;
      SimTime xfer =
          cost.link_latency +
          static_cast<SimTime>(sent) *
              (cost.transfer_time(chunk_size) - cost.link_latency);
      bd->transport += cost.transfer_time(chunk_size);
      arrival = t_enc + xfer;
    }
    SimTime service_time = cost.copy_time(chunk_size);
    bd->copy += service_time;
    durable = std::max(durable,
                       service.serve_at(target, arrival, service_time));
  }

  ObjectLocation loc;
  loc.primary = primary;
  loc.protection = Protection::kEncoded;
  loc.stripe_servers = std::move(stripe);
  loc.k = static_cast<std::uint32_t>(k);
  loc.m = static_cast<std::uint32_t>(m);
  loc.chunk_size = chunk_size;
  loc.logical_size = obj.logical_size;
  loc.object_checksum = obj.phantom ? 0 : obj.checksum;
  loc.shard_checksums = std::move(shard_crcs);
  SimTime meta_ack = service.directory().upsert(obj.desc, loc);
  bd->metadata += cost.metadata_op;
  return std::max(durable + cost.metadata_op, meta_ack);
}

SimTime charge_stripe_peer_reads(StagingService& service,
                                 const ObjectDescriptor& desc,
                                 ServerId reader, SimTime start,
                                 Breakdown* bd) {
  const ObjectLocation* loc = service.directory().find(desc);
  if (loc == nullptr || loc->protection != Protection::kEncoded) {
    return start;
  }
  const auto& cost = service.cost();
  SimTime gathered = start;
  for (std::uint32_t i = 0; i < loc->k; ++i) {
    ServerId s = loc->stripe_servers[i];
    if (s == reader || !service.alive(s)) continue;
    SimTime service_time =
        cost.request_overhead + cost.copy_time(loc->chunk_size);
    bd->copy += service_time;
    SimTime t1 = service.serve_at(s, start + cost.link_latency,
                                  service_time);
    SimTime xfer = cost.transfer_time(loc->chunk_size);
    bd->transport += cost.link_latency + xfer;
    gathered = std::max(gathered, t1 + xfer);
  }
  return gathered;
}

void retire_object(StagingService& service, const ObjectDescriptor& desc) {
  const ObjectLocation* loc = service.directory().find(desc);
  if (loc != nullptr) retire_object(service, desc, *loc);
}

void retire_object(StagingService& service, const ObjectDescriptor& desc,
                   const ObjectLocation& loc) {
  if (loc.protection == Protection::kEncoded) {
    for (std::size_t i = 0; i < loc.stripe_servers.size(); ++i) {
      service.remove_at(loc.stripe_servers[i],
                        desc.shard_of(static_cast<ShardIndex>(1 + i)));
    }
  } else {
    service.remove_at(loc.primary, desc);
    for (ServerId r : loc.replicas) service.remove_at(r, desc);
  }
  service.directory().remove(desc);
}

SimTime rebuild_on(StagingService& service, const ObjectDescriptor& desc,
                   ServerId target, SimTime start, Breakdown* bd) {
  const auto& cost = service.cost();
  const ObjectLocation* loc = service.directory().find(desc);
  if (loc == nullptr || !service.alive(target)) return start;

  if (loc->protection != Protection::kEncoded) {
    // Whole-copy repair: does `target` belong to the holder set and
    // miss its copy?
    bool is_holder =
        loc->primary == target ||
        std::find(loc->replicas.begin(), loc->replicas.end(), target) !=
            loc->replicas.end();
    if (!is_holder || service.server(target).store.contains(desc)) {
      return start;
    }
    // Find a surviving copy whose bytes still verify; a corrupt source
    // is quarantined and the next holder tried (recovery must never
    // propagate bad bytes into a fresh copy).
    std::vector<ServerId> holders = loc->replicas;
    holders.push_back(loc->primary);
    if (auto fp = COREC_FAILPOINT("recovery.source.bitflip")) {
      for (ServerId h : holders) {
        if (h != target && service.alive(h) &&
            service.corrupt_at(h, desc,
                               static_cast<std::size_t>(fp.rng))) {
          break;
        }
      }
    }
    ServerId source = kInvalidServer;
    for (ServerId h : holders) {
      if (h == target || !service.alive(h)) continue;
      if (service.probe_stored(h, desc, loc->object_checksum) ==
          ShardHealth::kOk) {
        source = h;
        break;
      }
    }
    if (source == kInvalidServer) return start;  // permanently lost

    const staging::StoredObject* stored =
        service.server(source).store.find(desc);
    SimTime read_service = cost.request_overhead +
                           cost.copy_time(loc->logical_size);
    bd->copy += read_service;
    SimTime t1 = service.serve_at(source, start + cost.link_latency,
                                  read_service);
    SimTime xfer = cost.transfer_time(loc->logical_size);
    bd->transport += cost.link_latency + xfer;
    SimTime write_service = cost.copy_time(loc->logical_size);
    bd->copy += write_service;
    SimTime t2 = service.serve_at(target, t1 + xfer, write_service);
    DataObject copy = stored->object;
    copy.desc = desc;
    Status st = service.store_at(
        target, std::move(copy),
        loc->primary == target ? StoredKind::kPrimary
                               : StoredKind::kReplica);
    assert(st.ok());
    (void)st;
    return t2;
  }

  // Encoded object: reconstruct the shards that should live on target.
  const std::uint32_t k = loc->k;
  const std::uint32_t n = loc->k + loc->m;
  if (auto fp = COREC_FAILPOINT("recovery.shard.bitflip")) {
    // Model corruption discovered mid-recovery: flip a bit in the first
    // real surviving shard before the source scan verifies it.
    for (std::uint32_t i = 0; i < n; ++i) {
      ServerId s = loc->stripe_servers[i];
      if (s == target || !service.alive(s)) continue;
      if (service.corrupt_at(s,
                             desc.shard_of(static_cast<ShardIndex>(1 + i)),
                             static_cast<std::size_t>(fp.rng))) {
        break;
      }
    }
  }
  std::vector<std::uint32_t> missing_here;
  std::vector<std::size_t> erased;
  std::vector<std::uint32_t> survivors;
  for (std::uint32_t i = 0; i < n; ++i) {
    ServerId s = loc->stripe_servers[i];
    auto shard_desc = desc.shard_of(static_cast<ShardIndex>(1 + i));
    // Verified survivors only: a shard failing its checksum becomes one
    // more erasure for the decode below to reconstruct around.
    if (service.probe_stored(s, shard_desc,
                             staging::shard_checksum(*loc, i)) ==
        ShardHealth::kOk) {
      survivors.push_back(i);
    } else {
      erased.push_back(i);
      if (s == target) missing_here.push_back(i);
    }
  }
  if (missing_here.empty()) return start;
  if (survivors.size() < k) return start;  // unrecoverable for now

  // Gather k surviving shards at the target and decode there.
  SimTime gathered = start;
  std::size_t used = 0;
  for (std::uint32_t i : survivors) {
    if (used == k) break;
    ++used;
    ServerId s = loc->stripe_servers[i];
    SimTime read_service =
        cost.request_overhead + cost.copy_time(loc->chunk_size);
    bd->copy += read_service;
    SimTime t1 = service.serve_at(s, start + cost.link_latency,
                                  read_service);
    SimTime xfer = cost.transfer_time(loc->chunk_size);
    bd->transport += cost.link_latency + xfer;
    gathered = std::max(gathered, t1 + xfer);
  }
  SimTime decode_service =
      cost.decode_time(k, erased.size(), loc->chunk_size);
  bd->decode += decode_service;
  SimTime t_dec = service.serve_at(target, gathered, decode_service);

  // Real reconstruction when the shards carry real bytes.
  bool phantom = false;
  std::vector<Bytes> blocks(n, Bytes(loc->chunk_size, 0));
  for (std::uint32_t i : survivors) {
    const staging::StoredObject* stored =
        service.server(loc->stripe_servers[i])
            .store.find(desc.shard_of(static_cast<ShardIndex>(1 + i)));
    if (stored->object.phantom) {
      phantom = true;
      break;
    }
    const PayloadBuffer& src = stored->object.data;
    std::memcpy(blocks[i].data(), src.data(),
                std::min<std::size_t>(src.size(), loc->chunk_size));
  }
  if (!phantom) {
    const auto& rs = service.codec(loc->k, loc->m);
    std::vector<MutableByteSpan> spans;
    for (auto& b : blocks) spans.emplace_back(b);
    Status st = rs.decode(spans, erased);
    assert(st.ok());
    (void)st;
  }
  for (std::uint32_t i : missing_here) {
    auto shard_desc = desc.shard_of(static_cast<ShardIndex>(1 + i));
    DataObject shard =
        phantom ? DataObject::make_phantom(shard_desc, loc->chunk_size)
                : DataObject::real(shard_desc, std::move(blocks[i]));
    Status st = service.store_at(target, std::move(shard),
                                 i < k ? StoredKind::kDataChunk
                                       : StoredKind::kParity);
    assert(st.ok());
    (void)st;
  }
  return t_dec;
}

double replication_probability_for_constraint(double S,
                                              std::size_t n_level,
                                              std::size_t k,
                                              std::size_t m) {
  double er = 1.0 / (static_cast<double>(n_level) + 1.0);
  double ee = static_cast<double>(k) / static_cast<double>(k + m);
  if (S <= 0.0 || er >= ee) return 0.0;
  double pr = er * (S - ee) / (S * (er - ee));
  return std::clamp(pr, 0.0, 1.0);
}

}  // namespace corec::resilience
