#include "core/corec_scheme.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "resilience/groups.hpp"
#include "resilience/primitives.hpp"

namespace corec::core {

using resilience::place_encoded;
using resilience::place_replicated;
using resilience::retire_object;
using staging::Breakdown;
using staging::DataObject;
using staging::ObjectDescriptor;
using staging::ObjectLocation;
using staging::Protection;
using staging::ShardIndex;

namespace {

/// Cap on background promotions per end-of-step sweep.
constexpr std::size_t kMaxPromotionsPerStep = 64;

}  // namespace

CorecScheme::CorecScheme(const CorecOptions& options)
    : options_(options), classifier_(options.classifier) {}

void CorecScheme::bind(staging::StagingService* service) {
  ResilienceScheme::bind(service);
  workflow_ = std::make_unique<EncodingWorkflow>(
      service, options_.n_level + 1, options_.workflow);
  recovery_ = std::make_unique<RecoveryManager>(service, options_.recovery);
}

double CorecScheme::efficiency() const {
  std::size_t stored = service_->stored_bytes();
  if (stored == 0) return 1.0;
  return static_cast<double>(logical_total_) /
         static_cast<double>(stored);
}

bool CorecScheme::fits_floor(std::ptrdiff_t extra_stored,
                             std::ptrdiff_t extra_logical) const {
  double logical =
      static_cast<double>(logical_total_) +
      static_cast<double>(extra_logical);
  double stored = static_cast<double>(service_->stored_bytes()) +
                  static_cast<double>(extra_stored);
  if (stored <= 0.0) return true;
  return logical / stored >= options_.efficiency_floor;
}

SimTime CorecScheme::protect(const DataObject& obj, ServerId primary,
                             const ObjectDescriptor* previous,
                             SimTime arrived, Breakdown* bd) {
  const auto& cost = service_->cost();
  const Version step = obj.desc.version;

  // Classification decision on the receiving server (Fig. 6: the data
  // classification component runs in the put path).
  bd->classify += cost.classify_op;
  SimTime t = service_->serve_at(primary, arrived, cost.classify_op);
  const AccessRecord& self_rec =
      classifier_.record_write(obj.desc.var, obj.desc.box, step);

  // Retire the previous version (if any); its logical bytes leave the
  // efficiency accounting.
  std::size_t prev_logical = 0;
  if (previous != nullptr) {
    const ObjectLocation* prev_loc = service_->directory().find(*previous);
    recovery_->forget(*previous);
    if (prev_loc != nullptr) {
      prev_logical = prev_loc->logical_size;
      retire_object(*service_, *previous, *prev_loc);
    }
    pool_.erase(*previous);
  }
  std::ptrdiff_t logical_delta =
      static_cast<std::ptrdiff_t>(obj.logical_size) -
      static_cast<std::ptrdiff_t>(prev_logical);

  // Figure 6 write path: newly written/updated data is hot by
  // definition, so every put is made durable through replication — the
  // client never waits for an encode. Transitions to erasure coding
  // happen *behind* the response, through the token workflow.
  SimTime durable = place_replicated(*service_, obj, primary,
                                     options_.n_level, t, bd);
  pool_.try_emplace(obj.desc, &self_rec);
  logical_total_ = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(logical_total_) + logical_delta);

  // Post-write storage policy: if the floor is now violated, something
  // must move to the erasure pool. Prefer evicting a strictly colder
  // pool member ("the object with the lowest access frequency is
  // selected as a candidate for erasure coding"); if none is colder
  // than this entity, this entity itself transitions.
  if (!fits_floor(0, 0)) {
    const Version next = step + 1;
    Version self_pred = classifier_.predicted_next(self_rec, next);
    double self_freq = self_rec.frequency;

    // Bounded victim sampling: scanning the whole pool on every write
    // is O(entities) and the sweep enforces the floor exactly anyway;
    // examining a fixed-size sample finds a colder member whenever a
    // substantial cold fraction exists.
    constexpr std::size_t kVictimSample = 64;
    std::size_t examined = 0;
    ObjectDescriptor victim;
    bool have_victim = false;
    Version victim_pred = self_pred;
    double victim_freq = self_freq;
    for (const auto& [desc, rec] : pool_) {
      if (examined++ >= kVictimSample) break;
      if (desc == obj.desc) continue;
      Version pred = rec != nullptr
                         ? classifier_.predicted_next(*rec, next)
                         : AccessClassifier::kNeverVersion;
      double freq = rec != nullptr ? rec->frequency : 0.0;
      bool colder = pred > victim_pred ||
                    (pred == victim_pred && freq < victim_freq);
      if (colder) {
        victim = desc;
        victim_pred = pred;
        victim_freq = freq;
        have_victim = true;
      }
    }
    if (have_victim &&
        (victim_pred > self_pred ||
         (victim_pred == self_pred && victim_freq < self_freq))) {
      ++stats_.writes_replicated;
      pending_demotions_.push_back(victim);
    } else {
      ++stats_.writes_encoded;
      pending_demotions_.push_back(obj.desc);
    }
  } else {
    ++stats_.writes_replicated;
  }
  return durable;
}

void CorecScheme::on_access(const ObjectDescriptor& desc, SimTime now) {
  recovery_->on_access(desc, now);
  // Read-aware classification extension (no-op unless enabled). Reads
  // are stamped with the current time step, tracked via end_of_step.
  classifier_.record_read(desc.var, desc.box, current_step_);
}

void CorecScheme::on_server_failed(ServerId s, SimTime now) {
  (void)s;
  (void)now;  // degraded reads are handled by the service read path
}

void CorecScheme::on_server_replaced(ServerId s, SimTime now) {
  recovery_->on_server_replaced(s, now);
}

std::size_t CorecScheme::repair_backlog() const {
  return recovery_->backlog();
}

bool CorecScheme::materialize(const ObjectDescriptor& desc,
                              const ObjectLocation& loc,
                              DataObject* out) const {
  // The entry `piece` on live server `s` when it verifies against
  // `expected`; nullptr when missing, and quarantined when corrupt.
  auto verified = [this](ServerId s, const ObjectDescriptor& piece,
                         std::uint32_t expected)
      -> const staging::StoredObject* {
    if (s >= service_->num_servers() || !service_->alive(s)) return nullptr;
    const staging::StoredObject* stored =
        service_->server(s).store.find(piece);
    if (stored == nullptr ||
        service_->probe_stored(s, piece, expected, stored) !=
            staging::ShardHealth::kOk) {
      return nullptr;
    }
    return stored;
  };
  if (loc.protection != Protection::kEncoded) {
    // Holders in order: the primary, then the replicas.
    for (std::size_t i = 0; i <= loc.replicas.size(); ++i) {
      const ServerId h = i == 0 ? loc.primary : loc.replicas[i - 1];
      // Checksum-verified source: a corrupt copy is quarantined and the
      // next holder tried, so transitions never re-encode bad bytes.
      if (const auto* stored = verified(h, desc, loc.object_checksum)) {
        *out = stored->object;
        out->desc = desc;
        return true;
      }
    }
    return false;
  }
  // Gather the data chunks into one exact logical_size allocation
  // (all present and verified in the promotion path; a degraded
  // promotion is simply skipped). Each verified chunk view is copied
  // straight to its final offset — no concatenate-and-resize.
  bool phantom = false;
  Bytes payload(loc.logical_size, 0);
  for (std::uint32_t i = 0; i < loc.k; ++i) {
    const staging::StoredObject* stored =
        verified(loc.stripe_servers[i],
                 desc.shard_of(static_cast<ShardIndex>(1 + i)),
                 staging::shard_checksum(loc, i));
    if (stored == nullptr) return false;
    if (stored->object.phantom) {
      phantom = true;
    } else {
      const std::size_t begin =
          static_cast<std::size_t>(i) * loc.chunk_size;
      if (begin >= payload.size()) continue;
      const std::size_t want = std::min<std::size_t>(
          payload.size() - begin, stored->object.data.size());
      std::memcpy(payload.data() + begin, stored->object.data.data(),
                  want);
    }
  }
  if (phantom) {
    *out = DataObject::make_phantom(desc, loc.logical_size);
  } else {
    payload_metrics().bytes_copied.fetch_add(payload.size(),
                                             std::memory_order_relaxed);
    // The chunks were verified against their recorded CRCs above, so
    // the whole-object tag from the directory is trusted here and the
    // fresh full-payload CRC pass is skipped.
    *out = DataObject::with_checksum(
        desc, PayloadBuffer::wrap(std::move(payload)),
        loc.object_checksum);
  }
  return true;
}

void CorecScheme::demote(const ObjectDescriptor& desc, SimTime now) {
  const ObjectLocation* loc = service_->directory().find(desc);
  if (loc == nullptr || loc->protection != Protection::kReplicated) {
    pool_.erase(desc);  // stale pool entry
    return;
  }

  DataObject obj;
  if (!materialize(desc, *loc, &obj)) return;
  ServerId primary = loc->primary;

  // Every live copy holder is an encoder candidate — the token workflow
  // picks the least-loaded one (it already has the data locally).
  std::vector<ServerId> holders;
  if (service_->alive(loc->primary)) holders.push_back(loc->primary);
  for (ServerId r : loc->replicas) {
    if (service_->alive(r)) holders.push_back(r);
  }
  if (holders.empty()) return;

  retire_object(*service_, desc, *loc);
  pool_.erase(desc);
  ServerId encoder = workflow_->pick_encoder(holders, now);
  SimTime start = workflow_->acquire(encoder, now);
  SimTime encode_done = start;
  place_encoded(*service_, obj, primary, options_.k, options_.m, encoder,
                start, &stats_.background, &encode_done);
  workflow_->release(encoder, encode_done);
  ++stats_.demotions;
}

void CorecScheme::promote(const ObjectDescriptor& desc, SimTime now) {
  const ObjectLocation* loc = service_->directory().find(desc);
  if (loc == nullptr || loc->protection != Protection::kEncoded) return;
  const auto& cost = service_->cost();

  DataObject obj;
  if (!materialize(desc, *loc, &obj)) return;
  ServerId primary = loc->primary;
  if (!service_->alive(primary)) return;

  // Gather the chunks at the primary (k-1 transfers; its own chunk is
  // local), then replicate.
  SimTime gathered = now;
  for (std::uint32_t i = 1; i < loc->k; ++i) {
    ServerId s = loc->stripe_servers[i];
    if (!service_->alive(s)) continue;
    SimTime service_time =
        cost.request_overhead + cost.copy_time(loc->chunk_size);
    stats_.background.copy += service_time;
    SimTime t1 =
        service_->serve_at(s, now + cost.link_latency, service_time);
    SimTime xfer = cost.transfer_time(loc->chunk_size);
    stats_.background.transport += cost.link_latency + xfer;
    gathered = std::max(gathered, t1 + xfer);
  }

  retire_object(*service_, desc, *loc);
  place_replicated(*service_, obj, primary, options_.n_level, gathered,
                   &stats_.background);
  pool_.try_emplace(desc, classifier_.find(desc.var, desc.box));
  ++stats_.promotions;
}

void CorecScheme::end_of_step(Version step, SimTime now) {
  const Version next = step + 1;
  current_step_ = next;
  classifier_.end_of_step(step);

  // Execute the transitions decided on the write path. They run here —
  // after the step's client traffic, overlapping the application's
  // compute phase — through the load-balanced, token-serialized
  // encoding workflow. demote() re-validates each entity, so entries
  // that were rewritten or already transitioned are skipped.
  std::vector<ObjectDescriptor> pending;
  pending.swap(pending_demotions_);
  for (const auto& desc : pending) demote(desc, now);

  // Snapshot the pool (replicated entities) and the encoded set.
  struct PoolEntry {
    ObjectDescriptor desc;
    Version predicted;
    double frequency;
  };
  std::vector<PoolEntry> pool;
  std::vector<PoolEntry> encoded;
  service_->directory().for_each([&](const ObjectDescriptor& desc,
                                     const ObjectLocation& loc) {
    const AccessRecord* rec = classifier_.find(desc.var, desc.box);
    PoolEntry e{desc,
                rec != nullptr ? classifier_.predicted_next(*rec, next)
                               : AccessClassifier::kNeverVersion,
                rec != nullptr ? rec->frequency : 0.0};
    if (loc.protection == Protection::kReplicated) {
      pool.push_back(e);
    } else if (loc.protection == Protection::kEncoded) {
      encoded.push_back(e);
    }
  });

  // 1. Demote entities that turned cold (temporal locality expired and
  //    nothing predicts a near write).
  for (const auto& e : pool) {
    if (!classifier_.is_hot(e.desc.var, e.desc.box, next)) {
      demote(e.desc, now);
    }
  }

  // 2. Enforce the storage floor: demote the coldest pool members
  //    (farthest predicted write, lowest frequency) until it holds.
  std::vector<PoolEntry> remaining;
  for (const auto& e : pool) {
    const ObjectLocation* loc = service_->directory().find(e.desc);
    if (loc != nullptr && loc->protection == Protection::kReplicated) {
      remaining.push_back(e);
    }
  }
  auto colder = [](const PoolEntry& a, const PoolEntry& b) {
    if (a.predicted != b.predicted) return a.predicted > b.predicted;
    return a.frequency < b.frequency;
  };
  std::sort(remaining.begin(), remaining.end(), colder);
  std::size_t evict = 0;
  while (evict < remaining.size() && !fits_floor(0, 0)) {
    demote(remaining[evict].desc, now);
    ++evict;
  }

  // 3. Promote hot encoded entities while the floor allows, swapping
  //    out strictly-colder pool members when it does not (the case-2
  //    rotation: the subdomain predicted to be written next displaces
  //    the one just finished).
  auto hotter = [](const PoolEntry& a, const PoolEntry& b) {
    if (a.predicted != b.predicted) return a.predicted < b.predicted;
    return a.frequency > b.frequency;
  };
  std::sort(encoded.begin(), encoded.end(), hotter);
  // Remaining pool, coldest first, for swap eviction.
  std::vector<PoolEntry> victims(remaining.begin() +
                                     static_cast<std::ptrdiff_t>(evict),
                                 remaining.end());
  std::size_t victim_idx = 0;
  std::size_t promoted = 0;
  for (const auto& cand : encoded) {
    if (promoted >= kMaxPromotionsPerStep) break;
    if (!classifier_.is_hot(cand.desc.var, cand.desc.box, next)) break;
    const ObjectLocation* loc = service_->directory().find(cand.desc);
    if (loc == nullptr || loc->protection != Protection::kEncoded) {
      continue;
    }
    std::ptrdiff_t extra_stored = static_cast<std::ptrdiff_t>(
        loc->logical_size * (options_.n_level + 1));
    extra_stored -= static_cast<std::ptrdiff_t>(
        loc->chunk_size * (options_.k + options_.m));
    if (!fits_floor(extra_stored, 0)) {
      // Swap: evict a strictly colder pool member to make room.
      bool swapped = false;
      while (victim_idx < victims.size()) {
        const PoolEntry& victim = victims[victim_idx];
        if (!colder(victim, cand) ||
            victim.predicted == cand.predicted) {
          break;  // no strictly colder victim left
        }
        ++victim_idx;
        const ObjectLocation* vloc = service_->directory().find(victim.desc);
        if (vloc == nullptr ||
            vloc->protection != Protection::kReplicated) {
          continue;
        }
        demote(victim.desc, now);
        swapped = true;
        break;
      }
      if (!swapped || !fits_floor(extra_stored, 0)) continue;
    }
    promote(cand.desc, now);
    ++promoted;
  }
}

std::unique_ptr<CorecScheme> make_corec(const CorecOptions& options) {
  return std::make_unique<CorecScheme>(options);
}

}  // namespace corec::core
