// Metadata-plane facade. The staging service and the resilience schemes
// never touch a Directory directly; every metadata read and mutation is
// routed through this interface, so the rest of the codebase is agnostic
// to where metadata lives. Two implementations exist:
//   * LocalMetadata (here): a plain in-process Directory — the original
//     single-copy behaviour, zero overhead, no failure domain.
//   * meta::MetaClient (src/meta/): a primary + K-follower replicated
//     metadata service with an op-log, compacting snapshots and
//     deterministic failover.
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"
#include "staging/directory.hpp"

namespace corec::staging {

/// Abstract metadata plane. Mirrors the Directory API so existing call
/// sites (`service.directory().upsert(...)` etc.) are routed through the
/// facade without changes.
class MetadataPlane {
 public:
  using VisitFn =
      std::function<void(const ObjectDescriptor&, const ObjectLocation&)>;

  virtual ~MetadataPlane() = default;

  // ---- mutations (primary path) -----------------------------------------
  /// Registers or updates a location. Returns the virtual time at which
  /// the mutation is acknowledged durable by the metadata plane (0 for
  /// the local plane: the update is durable the instant it happens).
  virtual SimTime upsert(const ObjectDescriptor& desc,
                         ObjectLocation location) = 0;
  /// Removes an entry; true if it existed.
  virtual bool remove(const ObjectDescriptor& desc) = 0;

  // ---- reads --------------------------------------------------------------
  virtual const ObjectLocation* find(const ObjectDescriptor& desc) const = 0;
  virtual std::vector<ObjectDescriptor> query(
      VarId var, Version version, const geom::BoundingBox& region) const = 0;
  virtual std::vector<ObjectDescriptor> query_latest(
      VarId var, Version version, const geom::BoundingBox& region) const = 0;
  /// query_latest with each descriptor's location, valid until the next
  /// removal from state() (Directory::removals). The default pairs
  /// query_latest with one find per descriptor.
  virtual std::vector<LocatedDescriptor> query_latest_located(
      VarId var, Version version, const geom::BoundingBox& region) const;
  virtual const ObjectDescriptor* find_entity(
      VarId var, const geom::BoundingBox& box) const = 0;
  virtual std::size_t size() const = 0;
  virtual void for_each(const VisitFn& fn) const = 0;

  /// The authoritative directory state (snapshotting, audits). For the
  /// replicated plane this is the current primary's materialized view.
  virtual const Directory& state() const = 0;

  // ---- liveness -----------------------------------------------------------
  /// Notifications from the hosting cluster: a staging server died /
  /// was replaced. The replicated plane reacts (failover, catch-up).
  virtual void on_server_failed(ServerId s, SimTime now) {
    (void)s;
    (void)now;
  }
  virtual void on_server_replaced(ServerId s, SimTime now) {
    (void)s;
    (void)now;
  }

  /// True while the plane can serve metadata operations (the local plane
  /// always can; the replicated plane can while a primary exists).
  virtual bool available() const { return true; }

  // ---- membership map -----------------------------------------------------
  /// Replicates a serialized pool map (see membership::PoolMap) through
  /// the plane so its followers converge on it. The local plane
  /// just retains the newest blob; the replicated plane appends a
  /// kMapTransition record to the op-log and streams it. Returns the
  /// replication completion time.
  virtual SimTime replicate_map(const Bytes& blob, std::uint64_t version,
                                SimTime now) {
    (void)blob;
    (void)version;
    return now;
  }
  /// Newest pool-map version the plane has replicated (0 = none).
  virtual std::uint64_t map_version() const { return 0; }
};

/// Default single-copy metadata plane: a plain in-process Directory.
class LocalMetadata final : public MetadataPlane {
 public:
  SimTime upsert(const ObjectDescriptor& desc,
                 ObjectLocation location) override;
  bool remove(const ObjectDescriptor& desc) override;
  const ObjectLocation* find(const ObjectDescriptor& desc) const override;
  std::vector<ObjectDescriptor> query(
      VarId var, Version version,
      const geom::BoundingBox& region) const override;
  std::vector<ObjectDescriptor> query_latest(
      VarId var, Version version,
      const geom::BoundingBox& region) const override;
  std::vector<LocatedDescriptor> query_latest_located(
      VarId var, Version version,
      const geom::BoundingBox& region) const override;
  const ObjectDescriptor* find_entity(
      VarId var, const geom::BoundingBox& box) const override;
  std::size_t size() const override;
  void for_each(const VisitFn& fn) const override;
  const Directory& state() const override { return dir_; }
  SimTime replicate_map(const Bytes& blob, std::uint64_t version,
                        SimTime now) override {
    if (version > map_version_) {
      map_blob_ = blob;
      map_version_ = version;
    }
    return now;
  }
  std::uint64_t map_version() const override { return map_version_; }
  const Bytes& map_blob() const { return map_blob_; }

 private:
  Directory dir_;
  Bytes map_blob_;
  std::uint64_t map_version_ = 0;
};

}  // namespace corec::staging
