#include "staging/metadata.hpp"

namespace corec::staging {

std::vector<LocatedDescriptor> MetadataPlane::query_latest_located(
    VarId var, Version version, const geom::BoundingBox& region) const {
  std::vector<ObjectDescriptor> descs = query_latest(var, version, region);
  std::vector<LocatedDescriptor> out;
  out.reserve(descs.size());
  for (auto& desc : descs) {
    const ObjectLocation* loc = find(desc);
    out.push_back({std::move(desc), loc});
  }
  return out;
}

SimTime LocalMetadata::upsert(const ObjectDescriptor& desc,
                              ObjectLocation location) {
  dir_.upsert(desc, std::move(location));
  return 0;
}

bool LocalMetadata::remove(const ObjectDescriptor& desc) {
  return dir_.remove(desc);
}

const ObjectLocation* LocalMetadata::find(
    const ObjectDescriptor& desc) const {
  return dir_.find(desc);
}

std::vector<ObjectDescriptor> LocalMetadata::query(
    VarId var, Version version, const geom::BoundingBox& region) const {
  return dir_.query(var, version, region);
}

std::vector<ObjectDescriptor> LocalMetadata::query_latest(
    VarId var, Version version, const geom::BoundingBox& region) const {
  return dir_.query_latest(var, version, region);
}

std::vector<LocatedDescriptor> LocalMetadata::query_latest_located(
    VarId var, Version version, const geom::BoundingBox& region) const {
  return dir_.query_latest_located(var, version, region);
}

const ObjectDescriptor* LocalMetadata::find_entity(
    VarId var, const geom::BoundingBox& box) const {
  return dir_.find_entity(var, box);
}

std::size_t LocalMetadata::size() const { return dir_.size(); }

void LocalMetadata::for_each(const VisitFn& fn) const {
  dir_.for_each(fn);
}

}  // namespace corec::staging
