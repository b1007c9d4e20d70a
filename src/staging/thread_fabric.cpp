#include "staging/thread_fabric.hpp"

#include <algorithm>
#include <utility>

#include "membership/placement.hpp"

namespace corec::staging {

namespace {

// Flat domain layout: the fabric has no cabinet topology, so every
// target sits on its own node of cabinet 0. Zero servers means one.
membership::PoolMap flat_map(std::size_t num_servers) {
  const std::size_t n = std::max<std::size_t>(num_servers, 1);
  return membership::PoolMap::initial(n, n, 1);
}

}  // namespace

ThreadFabric::ThreadFabric(std::size_t num_servers, FabricOptions options)
    : directory_(options.directory_shards),
      map_(flat_map(num_servers)) {
  stores_.reserve(map_.size());
  for (std::size_t s = 0; s < map_.size(); ++s) {
    stores_.push_back(std::make_unique<ShardedObjectStore>(
        options.server_capacity, options.store_shards));
  }
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
  return put_to(*stores_[server], std::move(object), kind);
}

StatusOr<StoredObject> ThreadFabric::get(
    ServerId server, const ObjectDescriptor& desc) const {
  return get_from(*stores_[server], desc);
}

bool ThreadFabric::erase(ServerId server, const ObjectDescriptor& desc) {
  return erase_from(*stores_[server], desc);
}

ServerId ThreadFabric::route(const ObjectDescriptor& desc) const {
  return membership::place_one(
      map_, membership::mix64(DescriptorHash{}(desc.base())));
}

Status ThreadFabric::put(DataObject object, StoredKind kind,
                         ServerId* home) {
  const ServerId s = route(object.desc);
  if (home != nullptr) *home = s;
  return put_to(*stores_[s], std::move(object), kind);
}

StatusOr<StoredObject> ThreadFabric::get(
    const ObjectDescriptor& desc) const {
  return get_from(*stores_[route(desc)], desc);
}

bool ThreadFabric::erase(const ObjectDescriptor& desc) {
  return erase_from(*stores_[route(desc)], desc);
}

std::size_t ThreadFabric::total_objects() const {
  std::size_t sum = 0;
  for (const auto& store : stores_) sum += store->count();
  return sum;
}

std::size_t ThreadFabric::total_bytes() const {
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
  ShardMetricsSnapshot snap;
  for (const auto& store : stores_) snap.merge(store->shard_metrics());
  snap.merge(directory_.shard_metrics());
  return snap;
}

}  // namespace corec::staging
