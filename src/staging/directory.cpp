#include "staging/directory.hpp"

#include <algorithm>

namespace corec::staging {
namespace {

void append_bounds(const geom::BoundingBox& box,
                   std::vector<geom::Coord>* bounds) {
  for (std::size_t k = 0; k < box.dims(); ++k) bounds->push_back(box.lo()[k]);
  for (std::size_t k = 0; k < box.dims(); ++k) bounds->push_back(box.hi()[k]);
}

/// True when flat box `b` shares a point with flat box `q` (both lo then
/// hi over `dims` dimensions).
bool overlaps(const geom::Coord* b, const geom::Coord* q, std::size_t dims) {
  for (std::size_t k = 0; k < dims; ++k) {
    if (b[dims + k] < q[k] || b[k] > q[dims + k]) return false;
  }
  return true;
}

}  // namespace

void Directory::upsert(const ObjectDescriptor& desc,
                       ObjectLocation location) {
  auto [it, inserted] = locations_.try_emplace(desc);
  it->second.loc = std::move(location);
  if (!inserted) return;
  Bucket& bucket = by_version_[{desc.var, desc.version}];
  if (bucket.slots.empty()) bucket.dims = desc.box.dims();
  if (desc.box.dims() != bucket.dims) {
    bucket.mixed = true;
    bucket.bounds.clear();
  }
  if (!bucket.mixed) append_bounds(desc.box, &bucket.bounds);
  it->second.slot = bucket.slots.size();
  bucket.slots.push_back({desc, &it->second, true});
  *entities_.try_emplace(entity_key(desc.var, desc.box)).first = desc;
}

bool Directory::remove(const ObjectDescriptor& desc) {
  auto it = locations_.find(desc);
  if (it == locations_.end()) return false;
  ++removals_;
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
  const ObjectDescriptor key = entity_key(desc.var, desc.box);
  const ObjectDescriptor* live = entities_.find(key);
  if (live != nullptr && *live == desc) entities_.erase(key);
  return true;
}

void Directory::compact(Bucket& bucket) {
  auto& slots = bucket.slots;
  slots.erase(std::remove_if(slots.begin(), slots.end(),
                             [](const Slot& s) { return !s.live; }),
              slots.end());
  bucket.dims = slots.front().desc.box.dims();
  bucket.mixed = false;
  bucket.bounds.clear();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].entry->slot = i;
    if (slots[i].desc.box.dims() != bucket.dims) bucket.mixed = true;
    if (!bucket.mixed) append_bounds(slots[i].desc.box, &bucket.bounds);
  }
  if (bucket.mixed) bucket.bounds.clear();
  bucket.dead = 0;
}

const ObjectDescriptor* Directory::find_entity(
    VarId var, const geom::BoundingBox& box) const {
  return entities_.find(entity_key(var, box));
}

const ObjectLocation* Directory::find(const ObjectDescriptor& desc) const {
  auto it = locations_.find(desc);
  return it == locations_.end() ? nullptr : &it->second.loc;
}

std::vector<ObjectDescriptor> Directory::query(
    VarId var, Version version, const geom::BoundingBox& region) const {
  std::vector<ObjectDescriptor> out;
  auto it = by_version_.find({var, version});
  if (it == by_version_.end()) return out;
  for (const Slot& slot : it->second.slots) {
    if (slot.live && slot.desc.box.intersects(region)) {
      out.push_back(slot.desc);
    }
  }
  return out;
}

template <typename Emit>
void Directory::scan_latest(VarId var, Version version,
                            const geom::BoundingBox& region,
                            Emit&& emit) const {
  // Scan versions from newest (<= version) to oldest; keep descriptors
  // whose box intersects the still-uncovered part of the region. The
  // shadow test subtracts each accepted box from the uncovered set;
  // when fragmentation exceeds a cap (pathological overlap patterns)
  // we fall back to including every intersecting descriptor — callers
  // assemble oldest-first, so duplicated coverage is still correct.
  constexpr std::size_t kFragmentCap = 64;
  const std::size_t dims = region.dims();
  std::vector<geom::BoundingBox> uncovered{region};
  bool exact = true;
  // A slot is read only if its bounds overlap the region's.
  std::vector<geom::Coord> flat_region;
  append_bounds(region, &flat_region);

  // One live slot; false once the region is covered.
  auto visit = [&](const Slot& slot) {
    const geom::BoundingBox& box = slot.desc.box;
    if (!exact) {
      if (box.intersects(region)) emit(slot);
      return true;
    }
    bool hit = false;
    for (const auto& piece : uncovered) {
      if (box.intersects(piece)) {
        hit = true;
        break;
      }
    }
    if (!hit) return true;
    emit(slot);
    std::vector<geom::BoundingBox> next;
    for (const auto& piece : uncovered) piece.subtract(box, &next);
    uncovered = std::move(next);
    if (uncovered.empty()) return false;
    if (uncovered.size() > kFragmentCap) {
      exact = false;  // degrade to include-all for the rest
    }
    return true;
  };

  auto lo = by_version_.lower_bound({var, 0});
  for (auto it = by_version_.upper_bound({var, version}); it != lo;) {
    if (exact && uncovered.empty()) break;
    const Bucket& bucket = (--it)->second;
    if (bucket.mixed) {
      for (const Slot& slot : bucket.slots) {
        if (slot.live && !visit(slot)) break;
      }
      continue;
    }
    // No box of other dims intersects the region.
    if (bucket.dims != dims || dims == 0) continue;
    const geom::Coord* b = bucket.bounds.data();
    for (std::size_t i = 0; i < bucket.slots.size(); ++i, b += 2 * dims) {
      if (!overlaps(b, flat_region.data(), dims)) continue;
      const Slot& slot = bucket.slots[i];
      if (slot.live && !visit(slot)) break;
    }
  }
}

std::vector<ObjectDescriptor> Directory::query_latest(
    VarId var, Version version, const geom::BoundingBox& region) const {
  std::vector<ObjectDescriptor> out;
  scan_latest(var, version, region,
              [&out](const Slot& slot) { out.push_back(slot.desc); });
  return out;
}

std::vector<LocatedDescriptor> Directory::query_latest_located(
    VarId var, Version version, const geom::BoundingBox& region) const {
  std::vector<LocatedDescriptor> out;
  scan_latest(var, version, region, [&out](const Slot& slot) {
    out.push_back({slot.desc, &slot.entry->loc});
  });
  return out;
}

}  // namespace corec::staging
