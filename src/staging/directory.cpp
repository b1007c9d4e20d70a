#include "staging/directory.hpp"

#include <algorithm>

namespace corec::staging {

void Directory::upsert(const ObjectDescriptor& desc,
                       ObjectLocation location) {
  auto [it, inserted] = locations_.try_emplace(desc);
  it->second.loc = std::move(location);
  if (!inserted) return;
  auto& slots = by_version_[{desc.var, desc.version}].slots;
  it->second.slot = slots.size();
  slots.push_back({desc, true});
  entities_[entity_key(desc.var, desc.box)] = desc;
}

bool Directory::remove(const ObjectDescriptor& desc) {
  auto it = locations_.find(desc);
  if (it == locations_.end()) return false;
  const std::size_t slot = it->second.slot;
  locations_.erase(it);
  auto vit = by_version_.find({desc.var, desc.version});
  Bucket& bucket = vit->second;
  bucket.slots[slot].live = false;
  if (++bucket.dead == bucket.slots.size()) {
    by_version_.erase(vit);
  } else if (bucket.dead * 2 > bucket.slots.size()) {
    compact(bucket);
  }
  auto eit = entities_.find(entity_key(desc.var, desc.box));
  if (eit != entities_.end() && eit->second == desc) {
    entities_.erase(eit);
  }
  return true;
}

void Directory::compact(Bucket& bucket) {
  auto& slots = bucket.slots;
  slots.erase(std::remove_if(slots.begin(), slots.end(),
                             [](const Slot& s) { return !s.live; }),
              slots.end());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    locations_.find(slots[i].desc)->second.slot = i;
  }
  bucket.dead = 0;
}

const ObjectDescriptor* Directory::find_entity(
    VarId var, const geom::BoundingBox& box) const {
  auto it = entities_.find(entity_key(var, box));
  return it == entities_.end() ? nullptr : &it->second;
}

const ObjectLocation* Directory::find(const ObjectDescriptor& desc) const {
  auto it = locations_.find(desc);
  return it == locations_.end() ? nullptr : &it->second.loc;
}

ObjectLocation* Directory::find_mutable(const ObjectDescriptor& desc) {
  auto it = locations_.find(desc);
  return it == locations_.end() ? nullptr : &it->second.loc;
}

std::vector<ObjectDescriptor> Directory::query(
    VarId var, Version version, const geom::BoundingBox& region) const {
  std::vector<ObjectDescriptor> out;
  auto it = by_version_.find({var, version});
  if (it == by_version_.end()) return out;
  for (const auto& [desc, live] : it->second.slots) {
    if (live && desc.box.intersects(region)) out.push_back(desc);
  }
  return out;
}

std::vector<ObjectDescriptor> Directory::query_latest(
    VarId var, Version version, const geom::BoundingBox& region) const {
  // Scan versions from newest (<= version) to oldest; keep descriptors
  // whose box intersects the still-uncovered part of the region. The
  // shadow test subtracts each accepted box from the uncovered set;
  // when fragmentation exceeds a cap (pathological overlap patterns)
  // we fall back to including every intersecting descriptor — callers
  // assemble oldest-first, so duplicated coverage is still correct.
  constexpr std::size_t kFragmentCap = 64;
  std::vector<ObjectDescriptor> out;
  std::vector<geom::BoundingBox> uncovered{region};
  bool exact = true;
  auto lo = by_version_.lower_bound({var, 0});
  auto hi = by_version_.upper_bound({var, version});
  std::vector<const Bucket*> buckets;
  for (auto it = lo; it != hi; ++it) buckets.push_back(&it->second);
  for (auto bit = buckets.rbegin(); bit != buckets.rend(); ++bit) {
    if (exact && uncovered.empty()) break;
    for (const auto& [desc, live] : (*bit)->slots) {
      if (!live) continue;
      if (!exact) {
        if (desc.box.intersects(region)) out.push_back(desc);
        continue;
      }
      bool hit = false;
      for (const auto& piece : uncovered) {
        if (desc.box.intersects(piece)) {
          hit = true;
          break;
        }
      }
      if (!hit) continue;
      out.push_back(desc);
      std::vector<geom::BoundingBox> next;
      for (const auto& piece : uncovered) {
        piece.subtract(desc.box, &next);
      }
      uncovered = std::move(next);
      if (uncovered.empty()) break;
      if (uncovered.size() > kFragmentCap) {
        exact = false;  // degrade to include-all for the rest
      }
    }
  }
  return out;
}

}  // namespace corec::staging
