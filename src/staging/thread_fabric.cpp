#include "staging/thread_fabric.hpp"

#include <mutex>
#include <utility>

#include "membership/placement.hpp"

namespace corec::staging {

ThreadFabric::ThreadFabric(std::size_t num_servers, FabricOptions options)
    : directory_(options.directory_shards), options_(options) {
  if (num_servers == 0) num_servers = 1;
  stores_.reserve(num_servers);
  for (std::size_t s = 0; s < num_servers; ++s) {
    stores_.push_back(std::make_unique<ShardedObjectStore>(
        options.server_capacity, options.store_shards));
  }
  // Flat domain layout: the fabric has no cabinet topology, so every
  // target sits on its own node of cabinet 0.
  map_ = membership::PoolMap::initial(num_servers, num_servers, 1);
  map_version_.store(map_.version(), std::memory_order_release);
}

Status ThreadFabric::put_to(ShardedObjectStore& store, DataObject object,
                           StoredKind kind) {
  puts_.fetch_add(1, std::memory_order_relaxed);
  Status st = store.put(std::move(object), kind);
  if (!st.ok()) put_failures_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

StatusOr<StoredObject> ThreadFabric::get_from(
    const ShardedObjectStore& store, const ObjectDescriptor& desc) const {
  gets_.fetch_add(1, std::memory_order_relaxed);
  auto found = store.get(desc);
  if (!found.ok()) get_misses_.fetch_add(1, std::memory_order_relaxed);
  return found;
}

bool ThreadFabric::erase_from(ShardedObjectStore& store,
                              const ObjectDescriptor& desc) {
  erases_.fetch_add(1, std::memory_order_relaxed);
  return store.erase(desc);
}

Status ThreadFabric::put(ServerId server, DataObject object,
                         StoredKind kind) {
  return put_to(*store_ptr(server), std::move(object), kind);
}

StatusOr<StoredObject> ThreadFabric::get(
    ServerId server, const ObjectDescriptor& desc) const {
  return get_from(*store_ptr(server), desc);
}

bool ThreadFabric::erase(ServerId server, const ObjectDescriptor& desc) {
  return erase_from(*store_ptr(server), desc);
}

ServerId ThreadFabric::home_under(const membership::PoolMap& map,
                                  const ObjectDescriptor& desc) const {
  return membership::place_one(
      map, membership::mix64(DescriptorHash{}(desc.base())));
}

ServerId ThreadFabric::route(const ObjectDescriptor& desc) const {
  std::shared_lock<std::shared_mutex> lk(membership_mu_);
  return home_under(map_, desc);
}

// The routed ops resolve the home and run the store op under one
// shared hold, so a membership transition falls entirely before or
// after each op.

Status ThreadFabric::put(DataObject object, StoredKind kind,
                         ServerId* home) {
  std::shared_lock<std::shared_mutex> lk(membership_mu_);
  const ServerId s = home_under(map_, object.desc);
  if (home != nullptr) *home = s;
  return put_to(*stores_[s], std::move(object), kind);
}

StatusOr<StoredObject> ThreadFabric::get(
    const ObjectDescriptor& desc) const {
  std::shared_lock<std::shared_mutex> lk(membership_mu_);
  return get_from(*stores_[home_under(map_, desc)], desc);
}

bool ThreadFabric::erase(const ObjectDescriptor& desc) {
  std::shared_lock<std::shared_mutex> lk(membership_mu_);
  return erase_from(*stores_[home_under(map_, desc)], desc);
}

std::size_t ThreadFabric::total_objects() const {
  std::shared_lock<std::shared_mutex> lk(membership_mu_);
  std::size_t sum = 0;
  for (const auto& store : stores_) sum += store->count();
  return sum;
}

std::size_t ThreadFabric::total_bytes() const {
  std::shared_lock<std::shared_mutex> lk(membership_mu_);
  std::size_t sum = 0;
  for (const auto& store : stores_) sum += store->total_bytes();
  return sum;
}

FabricStatsSnapshot ThreadFabric::stats() const {
  FabricStatsSnapshot snap;
  snap.puts = puts_.load(std::memory_order_relaxed);
  snap.gets = gets_.load(std::memory_order_relaxed);
  snap.erases = erases_.load(std::memory_order_relaxed);
  snap.put_failures = put_failures_.load(std::memory_order_relaxed);
  snap.get_misses = get_misses_.load(std::memory_order_relaxed);
  return snap;
}

ShardMetricsSnapshot ThreadFabric::shard_metrics() const {
  std::shared_lock<std::shared_mutex> lk(membership_mu_);
  ShardMetricsSnapshot snap;
  for (const auto& store : stores_) snap.merge(store->shard_metrics());
  snap.merge(directory_.shard_metrics());
  return snap;
}

// ---- elastic membership ---------------------------------------------------

membership::PoolMap ThreadFabric::pool_map_copy() const {
  std::shared_lock<std::shared_mutex> lk(membership_mu_);
  return map_;
}

Bytes ThreadFabric::map_blob() const {
  Bytes blob;
  pool_map_copy().encode(&blob);
  return blob;
}

void ThreadFabric::rehome(const membership::PoolMap& map) {
  for (ServerId s = 0; s < stores_.size(); ++s) {
    // Collect first, act after: put/erase on the shard being iterated
    // would self-deadlock on its shared lock.
    std::vector<std::pair<StoredObject, ServerId>> moves;
    stores_[s]->for_each([&](const StoredObject& entry) {
      const ServerId home = home_under(map, entry.object.desc);
      if (home != s) moves.emplace_back(entry, home);
    });
    for (auto& [entry, home] : moves) {
      // A copy the new home refuses (capacity) stays where it was;
      // only then does the store's unspecified walk order matter.
      if (stores_[home]->put(entry.object, entry.kind).ok())
        stores_[s]->erase(entry.object.desc);
    }
  }
}

ServerId ThreadFabric::join_server() {
  std::unique_lock<std::shared_mutex> lk(membership_mu_);
  const auto id = static_cast<ServerId>(stores_.size());
  stores_.push_back(std::make_unique<ShardedObjectStore>(
      options_.server_capacity, options_.store_shards));
  map_.add_target(/*cabinet=*/0, /*node=*/static_cast<std::uint16_t>(id));
  rehome(map_);
  (void)map_.set_state(id, membership::TargetState::kUp);
  map_version_.store(map_.version(), std::memory_order_release);
  return id;
}

Status ThreadFabric::drain_server(ServerId target) {
  std::unique_lock<std::shared_mutex> lk(membership_mu_);
  if (target >= stores_.size())
    return Status::FailedPrecondition("unknown server");
  membership::PoolMap next = map_;
  Status st = next.set_state(target, membership::TargetState::kDrain);
  if (!st.ok()) return st;
  if (next.placement_count() == 0)
    return Status::FailedPrecondition(
        "cannot drain the last placement-eligible target");
  rehome(next);
  map_ = std::move(next);
  (void)map_.set_state(target, membership::TargetState::kDown);
  map_version_.store(map_.version(), std::memory_order_release);
  return Status::Ok();
}

}  // namespace corec::staging
