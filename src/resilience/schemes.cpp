#include "resilience/schemes.hpp"

#include <vector>

#include "resilience/primitives.hpp"

namespace corec::resilience {

using staging::Breakdown;
using staging::DataObject;
using staging::ObjectDescriptor;
using staging::ObjectLocation;
using staging::Protection;
using staging::StoredKind;

SimTime NoneScheme::protect(const DataObject& obj, ServerId primary,
                            const ObjectDescriptor* previous,
                            SimTime arrived, Breakdown* bd) {
  if (previous != nullptr) retire_object(*service_, *previous);
  return place_replicated(*service_, obj, primary, /*n_replicas=*/0,
                          arrived, bd);
}

SimTime ReplicationScheme::protect(const DataObject& obj, ServerId primary,
                                   const ObjectDescriptor* previous,
                                   SimTime arrived, Breakdown* bd) {
  if (previous != nullptr) retire_object(*service_, *previous);
  return place_replicated(*service_, obj, primary, n_level_, arrived, bd);
}

void ReplicationScheme::on_server_replaced(ServerId s, SimTime now) {
  // Aggressive re-mirroring: restore every copy that belongs on `s`.
  std::vector<ObjectDescriptor> todo;
  service_->directory().for_each(
      [&](const ObjectDescriptor& desc, const ObjectLocation& loc) {
        if (loc.places_on(s)) todo.push_back(desc);
      });
  Breakdown bd;
  for (const auto& desc : todo) {
    rebuild_on(*service_, desc, s, now, &bd);
  }
}

SimTime ErasureScheme::protect(const DataObject& obj, ServerId primary,
                               const ObjectDescriptor* previous,
                               SimTime arrived, Breakdown* bd) {
  // Updating an encoded object first reads the stripe's peer chunks
  // (the Section II-A erasure update penalty), then re-encodes. The
  // kFreshEncode ablation skips the peer reads.
  SimTime start = arrived;
  if (previous != nullptr) {
    if (update_mode_ == EcUpdateMode::kReconstructWrite) {
      start = charge_stripe_peer_reads(*service_, *previous, primary,
                                       arrived, bd);
    }
    retire_object(*service_, *previous);
  }
  // "encodes all data objects locally": the primary both receives the
  // payload and performs the encode.
  return place_encoded(*service_, obj, primary, k_, m_,
                       /*encoder=*/primary, start, bd);
}

void ErasureScheme::on_server_replaced(ServerId s, SimTime now) {
  // Aggressive recovery: rebuild every shard of `s` immediately. The
  // burst of decode + gather traffic lands on the survivor queues all
  // at once — the interference Figure 10 contrasts with lazy recovery.
  std::vector<ObjectDescriptor> todo;
  service_->directory().for_each(
      [&](const ObjectDescriptor& desc, const ObjectLocation& loc) {
        if (loc.places_on(s)) todo.push_back(desc);
      });
  Breakdown bd;
  for (const auto& desc : todo) {
    rebuild_on(*service_, desc, s, now, &bd);
  }
}

SimTime RandomHybridScheme::protect(const DataObject& obj, ServerId primary,
                                    const ObjectDescriptor* previous,
                                    SimTime arrived, Breakdown* bd) {
  // No classification: flip the storage-constrained coin on every
  // write, independent of access history. Re-encoding an object that
  // is currently encoded pays the stripe peer-read penalty first.
  bool replicate = service_->rng().bernoulli(p_replicate_);
  SimTime start = arrived;
  if (previous != nullptr) {
    if (!replicate) {
      start = charge_stripe_peer_reads(*service_, *previous, primary,
                                       arrived, bd);
    }
    retire_object(*service_, *previous);
  }
  if (replicate) {
    return place_replicated(*service_, obj, primary, n_level_, start,
                            bd);
  }
  return place_encoded(*service_, obj, primary, k_, m_,
                       /*encoder=*/primary, start, bd);
}

void RandomHybridScheme::on_server_replaced(ServerId s, SimTime now) {
  std::vector<ObjectDescriptor> todo;
  service_->directory().for_each(
      [&](const ObjectDescriptor& desc, const ObjectLocation& loc) {
        if (loc.places_on(s)) todo.push_back(desc);
      });
  Breakdown bd;
  for (const auto& desc : todo) {
    rebuild_on(*service_, desc, s, now, &bd);
  }
}

}  // namespace corec::resilience
