#include "staging/service.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/checksum.hpp"
#include "common/failpoint.hpp"
#include "membership/placement.hpp"
#include "staging/hyperslab.hpp"

namespace corec::staging {
namespace {

/// Builds the inverse permutation of a ring ordering.
std::vector<std::size_t> invert_ring(const std::vector<ServerId>& ring) {
  std::vector<std::size_t> pos(ring.size(), 0);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    pos[ring[i]] = i;
  }
  return pos;
}

/// True when the source regions (each inside `box`) are pairwise
/// disjoint and add up to its volume, i.e. they tile it and each byte is
/// written once. The O(n^2) pair test runs only after the volumes match.
bool tiles(const std::vector<TileSource>& parts,
           const geom::BoundingBox& box) {
  std::uint64_t covered = 0;
  for (const auto& part : parts) covered += part.region.volume();
  if (covered != box.volume()) return false;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (std::size_t j = i + 1; j < parts.size(); ++j) {
      if (parts[i].region.intersects(parts[j].region)) return false;
    }
  }
  return true;
}

}  // namespace

StagingService::StagingService(ServiceOptions options, sim::Simulation* sim,
                               std::unique_ptr<ResilienceScheme> scheme)
    : options_(std::move(options)),
      sim_(sim),
      scheme_(std::move(scheme)),
      mapper_(options_.domain),
      meta_(&local_meta_),
      ring_(options_.topology.make_ring()),
      ring_pos_(invert_ring(ring_)),
      pool_map_(membership::PoolMap::initial(
          options_.topology.num_servers(),
          options_.topology.nodes_per_cabinet(),
          options_.topology.servers_per_node())),
      rng_(options_.seed, 0x9e3779b97f4a7c15ULL) {
  servers_.reserve(options_.topology.num_servers());
  for (std::size_t i = 0; i < options_.topology.num_servers(); ++i) {
    servers_.emplace_back(options_.server_capacity);
  }
  sfc_key_span_ = std::uint64_t{1} << mapper_.key_bits();
  scheme_->bind(this);
}

void StagingService::attach_metadata(MetadataPlane* meta) {
  assert(local_meta_.size() == 0 &&
         "attach_metadata must run before any traffic");
  meta_ = meta != nullptr ? meta : &local_meta_;
}

ServerId StagingService::ring_next(ServerId s, std::size_t steps) const {
  std::size_t pos = (ring_pos_[s] + steps) % ring_.size();
  return ring_[pos];
}

ServerId StagingService::route(const geom::BoundingBox& box) const {
  if (options_.placement == PlacementMode::kPoolMap &&
      pool_map_.placement_count() > 0) {
    // HRW ranking over the pool map: the highest-scoring alive eligible
    // target is the primary. Falls through to the SFC ring only when
    // every eligible target is dead.
    auto ranked = membership::place(pool_map_, placement_key(box),
                                    pool_map_.placement_count());
    for (ServerId s : ranked) {
      if (servers_[s].alive) return s;
    }
  }
  sfc::SfcKey key = mapper_.key_of(box);
  auto pos = static_cast<std::size_t>(
      (static_cast<unsigned __int128>(key) * ring_.size()) >>
      mapper_.key_bits());
  pos = std::min(pos, ring_.size() - 1);
  // Walk the ring past dead servers so writes stay routable during
  // failures (DataSpaces reassigns the key range to a neighbour).
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    ServerId s = ring_[(pos + i) % ring_.size()];
    if (servers_[s].alive) return s;
  }
  return ring_[pos];  // nobody alive; caller will fail the op
}

std::uint64_t StagingService::placement_key(
    const geom::BoundingBox& box) const {
  return membership::mix64(mapper_.key_of(box));
}

std::vector<ServerId> StagingService::placement_of(
    const geom::BoundingBox& box, std::size_t count) const {
  auto ranked = membership::place(pool_map_, placement_key(box),
                                  pool_map_.placement_count());
  std::vector<ServerId> out;
  out.reserve(count);
  for (ServerId s : ranked) {
    if (out.size() == count) break;
    if (s < servers_.size() && servers_[s].alive) out.push_back(s);
  }
  return out;
}

std::vector<ServerId> StagingService::placement_group(
    const geom::BoundingBox& box, ServerId primary, std::size_t n) const {
  std::vector<ServerId> group;
  group.reserve(n);
  group.push_back(primary);
  auto ranked = membership::place(pool_map_, placement_key(box),
                                  pool_map_.placement_count());
  for (ServerId s : ranked) {
    if (group.size() == n) break;
    if (s == primary || s >= servers_.size() || !servers_[s].alive) {
      continue;
    }
    group.push_back(s);
  }
  // Last resort during heavy degradation: pad with any alive server so
  // the stripe width invariant holds (a duplicate-free group of n needs
  // n distinct alive servers; fewer and the caller's assert fires, as
  // before).
  for (ServerId s = 0; group.size() < n && s < servers_.size(); ++s) {
    if (!servers_[s].alive ||
        std::find(group.begin(), group.end(), s) != group.end()) {
      continue;
    }
    group.push_back(s);
  }
  return group;
}

ServerId StagingService::join_server() {
  const auto id = static_cast<ServerId>(servers_.size());
  servers_.emplace_back(options_.server_capacity);
  ring_.push_back(id);
  ring_pos_.push_back(ring_.size() - 1);
  const std::size_t spn = std::max<std::size_t>(
      options_.topology.servers_per_node(), 1);
  const std::size_t npc = std::max<std::size_t>(
      options_.topology.nodes_per_cabinet(), 1);
  pool_map_.add_target(static_cast<std::uint16_t>(id / (spn * npc)),
                       static_cast<std::uint16_t>((id / spn) % npc));
  replicate_map(sim_->now());
  return id;
}

Status StagingService::set_target_state(ServerId s,
                                        membership::TargetState state) {
  COREC_RETURN_IF_ERROR(pool_map_.set_state(s, state));
  replicate_map(sim_->now());
  return Status::Ok();
}

SimTime StagingService::replicate_map(SimTime now) {
  Bytes blob;
  pool_map_.encode(&blob);
  return meta_->replicate_map(blob, pool_map_.version(), now);
}

std::size_t StagingService::num_alive() const {
  std::size_t n = 0;
  for (const auto& s : servers_) {
    if (s.alive) ++n;
  }
  return n;
}

ShardHealth StagingService::probe_stored(ServerId s,
                                         const ObjectDescriptor& desc,
                                         std::uint32_t expected,
                                         const StoredObject* stored) {
  if (s == kInvalidServer || s >= servers_.size() || !servers_[s].alive) {
    return ShardHealth::kMissing;
  }
  if (stored == nullptr) stored = servers_[s].store.find(desc);
  if (stored == nullptr) return ShardHealth::kMissing;
  if (stored->object.phantom) return ShardHealth::kOk;
  if (expected == 0) return ShardHealth::kOk;  // no checksum recorded
  ++integrity_.checks;
  // The buffer's generation-checked cache makes repeat probes of an
  // unmutated payload free; any mutation (fault injection, torn write)
  // bumps the generation and forces a genuine recompute, so corruption
  // is still caught.
  if (stored->object.data.crc32c() == expected) {
    return ShardHealth::kOk;
  }
  ++integrity_.mismatches;
  ++integrity_.quarantined;
  remove_at(s, desc);
  return ShardHealth::kCorrupt;
}

bool StagingService::corrupt_at(ServerId s, const ObjectDescriptor& desc,
                                std::size_t offset) {
  if (s >= servers_.size() || !servers_[s].alive) return false;
  return servers_[s].store.flip_byte(desc, offset);
}

const erasure::Codec& StagingService::codec(std::uint32_t k,
                                            std::uint32_t m) {
  std::uint64_t key = (static_cast<std::uint64_t>(k) << 32) | m;
  auto it = codecs_.find(key);
  if (it == codecs_.end()) {
    auto codec_or = erasure::make_reed_solomon(k, m);
    assert(codec_or.ok() && "invalid stripe geometry");
    it = codecs_.emplace(key, std::move(codec_or).value()).first;
  }
  return *it->second;
}

OpResult StagingService::put(VarId var, Version version,
                             const geom::BoundingBox& box, ByteSpan data) {
  return put_impl(var, version, box, data, /*phantom=*/false);
}

OpResult StagingService::put_phantom(VarId var, Version version,
                                     const geom::BoundingBox& box) {
  return put_impl(var, version, box, {}, /*phantom=*/true);
}

OpResult StagingService::put_impl(VarId var, Version version,
                                  const geom::BoundingBox& box,
                                  ByteSpan data, bool phantom) {
  OpResult result;
  result.issued = sim_->now();
  const SimTime t0 = result.issued;
  const std::size_t elem = options_.fit.element_size;

  if (!phantom && data.size() != box.volume() * elem) {
    result.status = Status::InvalidArgument("payload/box size mismatch");
    result.completed = t0;
    return result;
  }
  if (auto fp = COREC_FAILPOINT("staging.put.error")) {
    result.status = Status::Unavailable("failpoint: staging.put.error");
    result.completed = t0;
    return result;
  }
  if (num_alive() == 0) {
    result.status = Status::Unavailable("no staging servers alive");
    result.completed = t0;
    return result;
  }
  if (!meta_->available()) {
    result.status = Status::Unavailable("metadata plane unavailable");
    result.completed = t0;
    return result;
  }

  // Algorithm 1: fit the object into target-size pieces.
  auto pieces = geom::partition_and_fit(box, options_.fit);

  SimTime completion = t0;
  for (const auto& piece : pieces) {
    ObjectDescriptor desc{var, version, piece.box, kWholeObject};
    DataObject obj;
    if (phantom) {
      obj = DataObject::make_phantom(desc, piece.bytes);
    } else if (piece.box == box) {
      // The piece is the whole put: one contiguous run, copied and
      // checksummed in one pass.
      obj = DataObject::real(desc, PayloadBuffer::copy_with_crc(data));
    } else {
      // copy_region writes every byte of the piece, so the pooled
      // buffer needs no zero-fill first.
      PayloadBuffer payload = PayloadBuffer::from_pool(piece.bytes);
      Status st = copy_region(data, box, payload.mutable_span(), piece.box,
                              piece.box, elem);
      if (!st.ok()) {
        result.status = st;
        result.completed = completion;
        return result;
      }
      obj = DataObject::real(desc, std::move(payload));
    }

    // Region-entity update semantics: a put over the same (var, box)
    // replaces the previous version.
    const ObjectDescriptor* prev_ptr = meta_->find_entity(var, piece.box);
    ObjectDescriptor prev;
    if (prev_ptr != nullptr) prev = *prev_ptr;

    ServerId primary = route(piece.box);
    if (options_.server_capacity != 0) {
      const auto& store = servers_[primary].store;
      if (store.total_bytes() + obj.logical_size > store.capacity()) {
        result.status = Status::ResourceExhausted(
            "staging server " + std::to_string(primary) +
            " memory budget exceeded");
        result.completed = completion;
        return result;
      }
    }
    result.breakdown.metadata += options_.cost.metadata_op;

    SimTime xfer = options_.cost.transfer_time(obj.logical_size);
    result.breakdown.transport += xfer;
    SimTime arrival = t0 + options_.cost.metadata_op + xfer;

    SimTime service_time = options_.cost.request_overhead +
                           options_.cost.copy_time(obj.logical_size);
    result.breakdown.copy += service_time;
    SimTime arrived = serve_at(primary, arrival, service_time);

    SimTime durable = scheme_->protect(
        obj, primary, prev_ptr != nullptr ? &prev : nullptr, arrived,
        &result.breakdown);
    completion = std::max(completion, durable);
  }

  result.completed = completion;
  result.status = Status::Ok();
  return result;
}

OpResult StagingService::get(VarId var, Version version,
                             const geom::BoundingBox& box, Bytes* out) {
  OpResult result;
  result.issued = sim_->now();
  const SimTime t0 = result.issued;
  const std::size_t elem = options_.fit.element_size;

  if (!meta_->available()) {
    result.status = Status::Unavailable("metadata plane unavailable");
    result.completed = t0;
    return result;
  }
  if (auto fp = COREC_FAILPOINT("staging.get.error")) {
    result.status = Status::Unavailable("failpoint: staging.get.error");
    result.completed = t0;
    return result;
  }
  result.breakdown.metadata += options_.cost.metadata_op;
  const auto located = meta_->query_latest_located(var, version, box);
  if (located.empty()) {
    result.status = Status::NotFound("no staged data intersects region");
    result.completed = t0 + options_.cost.metadata_op;
    return result;
  }
  const std::uint64_t removals = meta_->state().removals();

  SimTime start = t0 + options_.cost.metadata_op;
  SimTime completion = start;
  // Fetch all pieces (virtually in parallel), then assemble them. Pieces
  // are shared buffer views — a replicated read costs a refcount bump,
  // not a payload copy; the only real copy is the hyperslab assembly
  // into the caller's buffer below.
  std::vector<PayloadBuffer> pieces(out != nullptr ? located.size() : 0);
  for (std::size_t i = 0; i < located.size(); ++i) {
    PayloadBuffer* piece_out = out != nullptr ? &pieces[i] : nullptr;
    auto done = read_piece(located[i].desc, located[i].loc, removals, box,
                           start, piece_out, &result.breakdown);
    if (!done.ok()) {
      result.status = done.status();
      result.completed = std::max(completion, start);
      return result;
    }
    completion = std::max(completion, done.value());
  }

  std::size_t assembled_bytes = 0;
  std::vector<TileSource> parts;
  parts.reserve(located.size());
  bool all_real = true;
  for (std::size_t i = 0; i < located.size(); ++i) {
    const geom::BoundingBox& piece_box = located[i].desc.box;
    TileSource part;
    if (!piece_box.intersect(box, &part.region)) continue;
    assembled_bytes += static_cast<std::size_t>(part.region.volume()) * elem;
    if (out == nullptr) continue;
    all_real = all_real && !pieces[i].empty();
    part.data = pieces[i].span();
    part.box = &piece_box;
    parts.push_back(part);
  }
  if (out != nullptr) {
    const std::size_t bytes = static_cast<std::size_t>(box.volume()) * elem;
    Status st;
    if (all_real && tiles(parts, box)) {
      // Real pieces that tile the request overwrite every output byte,
      // so the buffer needs no zero-fill, and each byte has one writer,
      // so they are written in destination order.
      out->resize(bytes);
      st = gather_tiles(parts, MutableByteSpan(*out), box, elem);
    } else {
      // Holes read as zero; where coverage overlaps, the oldest version
      // is copied first so the newest write lands last and wins.
      out->assign(bytes, 0);
      for (std::size_t ri = parts.size(); ri-- > 0 && st.ok();) {
        if (parts[ri].data.empty()) continue;
        st = copy_region(parts[ri].data, *parts[ri].box,
                         MutableByteSpan(*out), box, parts[ri].region, elem);
      }
    }
    if (!st.ok()) {
      result.status = st;
      result.completed = completion;
      return result;
    }
  }

  // Client-side assembly of the pieces into the caller's buffer.
  SimTime assemble = options_.cost.copy_time(assembled_bytes);
  result.breakdown.copy += assemble;
  result.completed = completion + assemble;
  result.status = Status::Ok();
  return result;
}

StatusOr<SimTime> StagingService::read_piece(const ObjectDescriptor& desc,
                                             const ObjectLocation* loc,
                                             std::uint64_t removals,
                                             const geom::BoundingBox& requested,
                                             SimTime start,
                                             PayloadBuffer* piece_out,
                                             Breakdown* bd) {
  scheme_->on_access(desc, start);
  // An in-place update (on_access may repair the piece) shows through
  // `loc`; a removal since the query may have freed its entry.
  if (meta_->state().removals() != removals) loc = meta_->find(desc);
  if (loc == nullptr) {
    return Status::NotFound("object missing from directory: " +
                            desc.to_string());
  }

  // Only the requested part of the piece moves over the wire (the
  // server extracts the hyperslab), so costs scale with the overlap.
  double fraction = 1.0;
  geom::BoundingBox overlap;
  if (desc.box.intersect(requested, &overlap)) {
    fraction = static_cast<double>(overlap.volume()) /
               static_cast<double>(desc.box.volume());
  }
  auto scaled = [fraction](std::size_t bytes) {
    return static_cast<std::size_t>(static_cast<double>(bytes) *
                                    fraction);
  };

  if (loc->protection != Protection::kEncoded) {
    // Whole copies: primary plus replicas; pick the least-loaded live
    // holder (replication's concurrent-read bandwidth advantage), ties
    // to the earlier of primary, replicas; a holder that cannot beat the
    // best so far is not looked up at all. A copy failing its checksum
    // is quarantined and the next holder tried — corruption costs one
    // replica, never corrupt bytes returned to the reader.
    const StoredObject* stored = nullptr;
    ServerId best = kInvalidServer;
    SimTime best_backlog = 0;
    auto consider = [&](ServerId h) {
      if (h == kInvalidServer || !servers_[h].alive) return;
      SimTime backlog = servers_[h].queue.backlog(start);
      if (best != kInvalidServer && backlog >= best_backlog) return;
      const StoredObject* found = servers_[h].store.find(desc);
      if (found == nullptr) return;
      best = h;
      best_backlog = backlog;
      stored = found;
    };
    for (;;) {
      best = kInvalidServer;
      consider(loc->primary);
      for (ServerId h : loc->replicas) consider(h);
      if (best == kInvalidServer) {
        return Status::DataLoss("all copies lost or corrupt: " +
                                desc.to_string());
      }
      if (probe_stored(best, desc, loc->object_checksum, stored) ==
          ShardHealth::kOk) {
        break;
      }
    }
    SimTime service = options_.cost.request_overhead +
                      options_.cost.copy_time(scaled(loc->logical_size));
    bd->copy += service;
    SimTime t1 = serve_at(best, start + options_.cost.link_latency,
                          service);
    SimTime xfer = options_.cost.transfer_time(scaled(loc->logical_size));
    bd->transport += options_.cost.link_latency + xfer;
    if (piece_out != nullptr) {
      if (stored->object.phantom) {
        *piece_out = PayloadBuffer();
      } else {
        // Shared view of the holder's payload — no byte copy.
        *piece_out = stored->object.data;
      }
    }
    return t1 + xfer;
  }

  // Encoded object: fetch the k data chunks in parallel. Each chunk is
  // verified against its recorded checksum; a corrupt chunk is
  // quarantined and the read falls into the degraded path, which
  // decodes around it.
  const std::uint32_t k = loc->k;
  bool all_data_present = true;
  for (std::uint32_t i = 0; i < k; ++i) {
    ServerId s = loc->stripe_servers[i];
    if (probe_stored(s, desc.shard_of(static_cast<ShardIndex>(1 + i)),
                     shard_checksum(*loc, i)) != ShardHealth::kOk) {
      all_data_present = false;
      break;
    }
  }
  if (!all_data_present) {
    return read_degraded(desc, *loc, fraction, start, piece_out, bd);
  }

  // Scatter/gather: one exact logical_size allocation, each chunk view
  // copied straight into its final position (no oversized k*chunk
  // scratch buffer, no trailing resize).
  SimTime done = start;
  Bytes assembled;
  if (piece_out != nullptr) {
    assembled.resize(loc->logical_size);
  }
  bool phantom = false;
  for (std::uint32_t i = 0; i < k; ++i) {
    ServerId s = loc->stripe_servers[i];
    auto shard_desc = desc.shard_of(static_cast<ShardIndex>(1 + i));
    const StoredObject* stored = servers_[s].store.find(shard_desc);
    SimTime service = options_.cost.request_overhead +
                      options_.cost.copy_time(scaled(loc->chunk_size));
    bd->copy += service;
    SimTime t1 = serve_at(s, start + options_.cost.link_latency, service);
    SimTime xfer = options_.cost.transfer_time(scaled(loc->chunk_size));
    bd->transport += options_.cost.link_latency + xfer;
    done = std::max(done, t1 + xfer);
    if (piece_out != nullptr) {
      if (stored->object.phantom) {
        phantom = true;
      } else {
        const std::size_t begin =
            static_cast<std::size_t>(i) * loc->chunk_size;
        if (begin < assembled.size()) {
          const std::size_t want = std::min<std::size_t>(
              assembled.size() - begin, stored->object.data.size());
          std::memcpy(assembled.data() + begin, stored->object.data.data(),
                      want);
        }
      }
    }
  }
  if (piece_out != nullptr) {
    if (phantom) {
      *piece_out = PayloadBuffer();
    } else {
      payload_metrics().bytes_copied.fetch_add(assembled.size(),
                                               std::memory_order_relaxed);
      *piece_out = PayloadBuffer::wrap(std::move(assembled));
    }
  }
  return done;
}

StatusOr<SimTime> StagingService::read_degraded(
    const ObjectDescriptor& desc, const ObjectLocation& loc,
    double fraction, SimTime start, PayloadBuffer* piece_out,
    Breakdown* bd) {
  const std::uint32_t k = loc.k;
  const std::uint32_t n = loc.k + loc.m;
  auto scaled = [fraction](std::size_t bytes) {
    return static_cast<std::size_t>(static_cast<double>(bytes) *
                                    fraction);
  };

  // Which stripe shards survive? A shard failing its checksum is
  // quarantined and counted as one more erasure to decode around —
  // corruption and loss are the same event from here on.
  std::vector<std::uint32_t> survivors;
  std::vector<std::size_t> erased;  // codec block indices
  for (std::uint32_t i = 0; i < n; ++i) {
    ServerId s = loc.stripe_servers[i];
    auto shard_desc = desc.shard_of(static_cast<ShardIndex>(1 + i));
    if (probe_stored(s, shard_desc, shard_checksum(loc, i)) ==
        ShardHealth::kOk) {
      survivors.push_back(i);
    } else {
      erased.push_back(i);
    }
  }
  if (survivors.size() < k) {
    return Status::DataLoss("stripe unrecoverable: " + desc.to_string());
  }

  // Prefer data shards among the k sources (cheaper decode), then
  // parity shards as needed.
  std::vector<std::uint32_t> sources;
  for (std::uint32_t i : survivors) {
    if (sources.size() < k) sources.push_back(i);
  }

  // Coordinator: the least-loaded source server reconstructs the
  // missing data chunks (degraded-mode read, Section III-D).
  ServerId coord = loc.stripe_servers[sources[0]];
  for (std::uint32_t i : sources) {
    ServerId s = loc.stripe_servers[i];
    if (servers_[s].queue.backlog(start) <
        servers_[coord].queue.backlog(start)) {
      coord = s;
    }
  }

  // Gather the k source chunks at the coordinator.
  SimTime gathered = start;
  for (std::uint32_t i : sources) {
    ServerId s = loc.stripe_servers[i];
    SimTime service = options_.cost.request_overhead +
                      options_.cost.copy_time(loc.chunk_size);
    bd->copy += service;
    SimTime t1 = serve_at(s, start + options_.cost.link_latency, service);
    if (s != coord) {
      SimTime xfer = options_.cost.transfer_time(loc.chunk_size);
      bd->transport += options_.cost.link_latency + xfer;
      t1 += xfer;
    }
    gathered = std::max(gathered, t1);
  }

  // Decode only the erased *data* chunks (requested data path).
  std::size_t erased_data = 0;
  for (std::size_t e : erased) {
    if (e < k) ++erased_data;
  }
  // Only the requested rows are reconstructed (degraded mode rebuilds
  // what the client asked for and discards it, Section III-D).
  SimTime decode_service = options_.cost.decode_time(
      k, std::max<std::size_t>(erased_data, 1), scaled(loc.chunk_size));
  bd->decode += decode_service;
  SimTime t_dec = serve_at(coord, gathered, decode_service);

  // Real reconstruction when payloads are real.
  if (piece_out != nullptr) {
    bool phantom = false;
    std::vector<Bytes> blocks(n, Bytes(loc.chunk_size, 0));
    for (std::uint32_t i : survivors) {
      ServerId s = loc.stripe_servers[i];
      const StoredObject* stored = servers_[s].store.find(
          desc.shard_of(static_cast<ShardIndex>(1 + i)));
      if (stored->object.phantom) {
        phantom = true;
        break;
      }
      std::memcpy(blocks[i].data(), stored->object.data.data(),
                  std::min<std::size_t>(stored->object.data.size(),
                                        loc.chunk_size));
    }
    if (phantom) {
      *piece_out = PayloadBuffer();
    } else {
      const auto& rs = codec(loc.k, loc.m);
      std::vector<MutableByteSpan> spans;
      spans.reserve(n);
      for (auto& b : blocks) spans.emplace_back(b);
      COREC_RETURN_IF_ERROR(rs.decode(spans, erased));
      // Gather the k data blocks straight into one exact-size buffer.
      Bytes assembled(loc.logical_size, 0);
      for (std::uint32_t i = 0; i < k; ++i) {
        const std::size_t begin =
            static_cast<std::size_t>(i) * loc.chunk_size;
        if (begin >= assembled.size()) break;
        const std::size_t want = std::min<std::size_t>(
            assembled.size() - begin, blocks[i].size());
        std::memcpy(assembled.data() + begin, blocks[i].data(), want);
      }
      payload_metrics().bytes_copied.fetch_add(assembled.size(),
                                               std::memory_order_relaxed);
      // End-to-end check of the decode output: per-shard checksums
      // guard the inputs, this guards the reconstruction itself (and
      // any metadata/geometry inconsistency between them).
      if (loc.object_checksum != 0) {
        ++integrity_.checks;
        if (crc32c(assembled.data(), assembled.size()) !=
            loc.object_checksum) {
          ++integrity_.mismatches;
          return Status::DataLoss("decoded payload failed checksum: " +
                                  desc.to_string());
        }
      }
      *piece_out = PayloadBuffer::wrap(std::move(assembled));
    }
  }

  // Ship the reconstructed payload to the client and discard it
  // (degraded mode does not re-install the chunks).
  SimTime xfer = options_.cost.transfer_time(scaled(loc.logical_size));
  bd->transport += xfer;
  return t_dec + xfer;
}

void StagingService::end_time_step(Version step) {
  scheme_->end_of_step(step, sim_->now());
}

void StagingService::kill_server(ServerId s) {
  assert(s < servers_.size());
  if (!servers_[s].alive) return;
  servers_[s].alive = false;
  stored_total_ -= servers_[s].store.total_bytes();
  servers_[s].store.clear();
  servers_[s].queue.reset(sim_->now());
  ++servers_[s].failures;
  // Metadata plane reacts first (failover elects a new primary) so the
  // scheme's recovery work sees a live directory.
  meta_->on_server_failed(s, sim_->now());
  scheme_->on_server_failed(s, sim_->now());
}

void StagingService::replace_server(ServerId s) {
  assert(s < servers_.size());
  if (servers_[s].alive) return;
  servers_[s].alive = true;
  servers_[s].queue.reset(sim_->now());
  meta_->on_server_replaced(s, sim_->now());
  scheme_->on_server_replaced(s, sim_->now());
}

std::size_t StagingService::logical_bytes() const {
  std::size_t total = 0;
  meta_->for_each(
      [&total](const ObjectDescriptor&, const ObjectLocation& loc) {
        total += loc.logical_size;
      });
  return total;
}

std::size_t StagingService::stored_bytes() const {
  // Maintained incrementally by store_at/remove_at/kill_server; the
  // invariant against the per-store sums is checked in tests.
  return stored_total_;
}

std::size_t StagingService::stored_bytes_recomputed() const {
  std::size_t total = 0;
  for (const auto& s : servers_) total += s.store.total_bytes();
  return total;
}

double StagingService::storage_efficiency() const {
  std::size_t stored = stored_bytes();
  if (stored == 0) return 1.0;
  return static_cast<double>(logical_bytes()) /
         static_cast<double>(stored);
}

}  // namespace corec::staging
