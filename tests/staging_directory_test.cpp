// Metadata directory: upsert/remove, geometric queries, latest-version
// resolution, entity tracking, and a differential check of the indexed
// directory (and its sharded form) against a plain vector-scan
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "staging/directory.hpp"
#include "staging/sharded_store.hpp"

namespace corec::staging {
namespace {

ObjectDescriptor mk(VarId var, Version v, geom::Coord x0, geom::Coord y0,
                    geom::Coord x1, geom::Coord y1) {
  return {var, v, geom::BoundingBox::rect(x0, y0, x1, y1), kWholeObject};
}

ObjectLocation loc(ServerId primary, std::size_t bytes = 10) {
  ObjectLocation l;
  l.primary = primary;
  l.logical_size = bytes;
  return l;
}

TEST(Directory, UpsertFindRemove) {
  Directory dir;
  auto d = mk(1, 0, 0, 0, 3, 3);
  dir.upsert(d, loc(2, 99));
  ASSERT_NE(dir.find(d), nullptr);
  EXPECT_EQ(dir.find(d)->primary, 2u);
  EXPECT_EQ(dir.find(d)->logical_size, 99u);
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_TRUE(dir.remove(d));
  EXPECT_EQ(dir.find(d), nullptr);
  EXPECT_FALSE(dir.remove(d));
}

TEST(Directory, UpsertOverwritesLocation) {
  Directory dir;
  auto d = mk(1, 0, 0, 0, 3, 3);
  dir.upsert(d, loc(2));
  dir.upsert(d, loc(5));
  EXPECT_EQ(dir.find(d)->primary, 5u);
  EXPECT_EQ(dir.size(), 1u);
}

TEST(Directory, QueryIntersecting) {
  Directory dir;
  dir.upsert(mk(1, 3, 0, 0, 3, 3), loc(0));
  dir.upsert(mk(1, 3, 4, 0, 7, 3), loc(1));
  dir.upsert(mk(1, 3, 0, 4, 3, 7), loc(2));
  dir.upsert(mk(2, 3, 0, 0, 7, 7), loc(3));  // other variable
  dir.upsert(mk(1, 4, 0, 0, 3, 3), loc(4));  // other version

  auto hits = dir.query(1, 3, geom::BoundingBox::rect(2, 2, 5, 5));
  EXPECT_EQ(hits.size(), 3u);
  hits = dir.query(1, 3, geom::BoundingBox::rect(6, 6, 7, 7));
  EXPECT_EQ(hits.size(), 0u);
  hits = dir.query(2, 3, geom::BoundingBox::rect(0, 0, 1, 1));
  EXPECT_EQ(hits.size(), 1u);
}

TEST(Directory, QueryLatestPicksNewestCover) {
  Directory dir;
  // Whole domain written at version 0; left half updated at version 2.
  dir.upsert(mk(1, 0, 0, 0, 7, 7), loc(0));
  dir.upsert(mk(1, 2, 0, 0, 3, 7), loc(1));

  auto hits = dir.query_latest(1, 5, geom::BoundingBox::rect(0, 0, 7, 7));
  ASSERT_EQ(hits.size(), 2u);
  // The newer (version 2) piece must be first so it shadows.
  EXPECT_EQ(hits[0].version, 2u);
  EXPECT_EQ(hits[1].version, 0u);

  // A read as of version 1 must not see the version-2 write.
  hits = dir.query_latest(1, 1, geom::BoundingBox::rect(0, 0, 7, 7));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].version, 0u);
}

TEST(Directory, QueryLatestSkipsFullyShadowed) {
  Directory dir;
  dir.upsert(mk(1, 0, 0, 0, 3, 3), loc(0));
  dir.upsert(mk(1, 5, 0, 0, 3, 3), loc(1));  // same box, newer
  auto hits = dir.query_latest(1, 9, geom::BoundingBox::rect(0, 0, 3, 3));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].version, 5u);
}

TEST(Directory, QueryLatestRegionScoped) {
  Directory dir;
  dir.upsert(mk(1, 1, 0, 0, 3, 3), loc(0));
  dir.upsert(mk(1, 1, 4, 0, 7, 3), loc(1));
  auto hits = dir.query_latest(1, 1, geom::BoundingBox::rect(5, 1, 6, 2));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].box, geom::BoundingBox::rect(4, 0, 7, 3));
}

TEST(Directory, EntityTracksLiveVersion) {
  Directory dir;
  auto box = geom::BoundingBox::rect(0, 0, 3, 3);
  EXPECT_EQ(dir.find_entity(1, box), nullptr);
  dir.upsert(mk(1, 0, 0, 0, 3, 3), loc(0));
  ASSERT_NE(dir.find_entity(1, box), nullptr);
  EXPECT_EQ(dir.find_entity(1, box)->version, 0u);

  // Entity update: remove old version, insert new one.
  dir.remove(mk(1, 0, 0, 0, 3, 3));
  dir.upsert(mk(1, 7, 0, 0, 3, 3), loc(0));
  ASSERT_NE(dir.find_entity(1, box), nullptr);
  EXPECT_EQ(dir.find_entity(1, box)->version, 7u);

  dir.remove(mk(1, 7, 0, 0, 3, 3));
  EXPECT_EQ(dir.find_entity(1, box), nullptr);
}

TEST(Directory, EntityDistinguishesVariables) {
  Directory dir;
  auto box = geom::BoundingBox::rect(0, 0, 3, 3);
  dir.upsert(mk(1, 2, 0, 0, 3, 3), loc(0));
  dir.upsert(mk(2, 5, 0, 0, 3, 3), loc(1));
  ASSERT_NE(dir.find_entity(1, box), nullptr);
  ASSERT_NE(dir.find_entity(2, box), nullptr);
  EXPECT_EQ(dir.find_entity(1, box)->version, 2u);
  EXPECT_EQ(dir.find_entity(2, box)->version, 5u);
}

TEST(Directory, ForEachVisitsAll) {
  Directory dir;
  dir.upsert(mk(1, 0, 0, 0, 1, 1), loc(0, 5));
  dir.upsert(mk(1, 0, 2, 2, 3, 3), loc(1, 7));
  std::size_t total = 0;
  dir.for_each([&](const ObjectDescriptor&, const ObjectLocation& l) {
    total += l.logical_size;
  });
  EXPECT_EQ(total, 12u);
}


// The directory as it was before its buckets became tombstoned: every
// remove erases the descriptor from its (var, version) vector by a full
// scan. Kept as the ordering reference for the indexed Directory.
class ReferenceDirectory {
 public:
  void upsert(const ObjectDescriptor& desc, ObjectLocation location) {
    auto [it, inserted] = locations_.insert_or_assign(desc, location);
    (void)it;
    if (inserted) {
      by_version_[{desc.var, desc.version}].push_back(desc);
      entities_[entity_key(desc.var, desc.box)] = desc;
    }
  }

  bool remove(const ObjectDescriptor& desc) {
    auto it = locations_.find(desc);
    if (it == locations_.end()) return false;
    locations_.erase(it);
    auto vit = by_version_.find({desc.var, desc.version});
    if (vit != by_version_.end()) {
      auto& vec = vit->second;
      vec.erase(std::remove(vec.begin(), vec.end(), desc), vec.end());
      if (vec.empty()) by_version_.erase(vit);
    }
    auto eit = entities_.find(entity_key(desc.var, desc.box));
    if (eit != entities_.end() && eit->second == desc) entities_.erase(eit);
    return true;
  }

  const ObjectLocation* find(const ObjectDescriptor& desc) const {
    auto it = locations_.find(desc);
    return it == locations_.end() ? nullptr : &it->second;
  }

  const ObjectDescriptor* find_entity(VarId var,
                                      const geom::BoundingBox& box) const {
    auto it = entities_.find(entity_key(var, box));
    return it == entities_.end() ? nullptr : &it->second;
  }

  std::vector<ObjectDescriptor> query(VarId var, Version version,
                                      const geom::BoundingBox& region) const {
    std::vector<ObjectDescriptor> out;
    auto it = by_version_.find({var, version});
    if (it == by_version_.end()) return out;
    for (const auto& desc : it->second) {
      if (desc.box.intersects(region)) out.push_back(desc);
    }
    return out;
  }

  std::vector<ObjectDescriptor> query_latest(
      VarId var, Version version, const geom::BoundingBox& region) const {
    constexpr std::size_t kFragmentCap = 64;
    std::vector<ObjectDescriptor> out;
    std::vector<geom::BoundingBox> uncovered{region};
    bool exact = true;
    auto lo = by_version_.lower_bound({var, 0});
    auto hi = by_version_.upper_bound({var, version});
    std::vector<const std::vector<ObjectDescriptor>*> buckets;
    for (auto it = lo; it != hi; ++it) buckets.push_back(&it->second);
    for (auto bit = buckets.rbegin(); bit != buckets.rend(); ++bit) {
      if (exact && uncovered.empty()) break;
      for (const auto& desc : **bit) {
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
        for (const auto& piece : uncovered) piece.subtract(desc.box, &next);
        uncovered = std::move(next);
        if (uncovered.empty()) break;
        if (uncovered.size() > kFragmentCap) exact = false;
      }
    }
    return out;
  }

  std::size_t size() const { return locations_.size(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [desc, loc] : locations_) fn(desc, loc);
  }

 private:
  static ObjectDescriptor entity_key(VarId var,
                                     const geom::BoundingBox& box) {
    return ObjectDescriptor{var, 0, box, kWholeObject};
  }

  std::unordered_map<ObjectDescriptor, ObjectLocation, DescriptorHash>
      locations_;
  std::map<std::pair<VarId, Version>, std::vector<ObjectDescriptor>>
      by_version_;
  std::unordered_map<ObjectDescriptor, ObjectDescriptor, DescriptorHash>
      entities_;
};

using Record = std::tuple<VarId, Version, geom::Coord, geom::Coord,
                          ServerId, std::size_t>;

template <typename Dir>
std::vector<Record> records_of(const Dir& dir) {
  std::vector<Record> out;
  dir.for_each([&](const ObjectDescriptor& d, const ObjectLocation& l) {
    out.emplace_back(d.var, d.version, d.box.lo()[0], d.box.lo()[1],
                     l.primary, l.logical_size);
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ObjectDescriptor> sorted(std::vector<ObjectDescriptor> v) {
  std::sort(v.begin(), v.end(),
            [](const ObjectDescriptor& a, const ObjectDescriptor& b) {
              return std::make_tuple(a.var, a.version, a.box.lo()[0],
                                     a.box.lo()[1]) <
                     std::make_tuple(b.var, b.version, b.box.lo()[0],
                                     b.box.lo()[1]);
            });
  return v;
}

// Seeded churn against the reference: new and in-place upserts,
// removes, remove-then-re-upsert and whole-version removal, with one
// (var, version) bucket holding over 4,096 descriptors so it is
// tombstoned and compacted many times. The indexed directory must give
// order-identical query answers; the sharded directory must agree as
// sets (its documented contract for disjoint entity boxes).
TEST(Directory, MatchesReferenceUnderChurn) {
  constexpr geom::Coord kGrid = 72;  // 5,184 disjoint 2x2 cells
  constexpr VarId kVars = 2;
  constexpr Version kVersions = 4;
  const geom::BoundingBox whole = geom::BoundingBox::rect(
      0, 0, 2 * kGrid - 1, 2 * kGrid - 1);
  auto cell_desc = [](VarId var, Version v, geom::Coord cell) {
    const geom::Coord x = (cell % kGrid) * 2, y = (cell / kGrid) * 2;
    return mk(var, v, x, y, x + 1, y + 1);
  };

  Directory dir;
  ReferenceDirectory ref;
  ShardedDirectory sharded(8);
  std::size_t stamp = 0;
  auto upsert = [&](const ObjectDescriptor& d) {
    ++stamp;
    const ObjectLocation l = loc(static_cast<ServerId>(stamp % 7), stamp);
    dir.upsert(d, l);
    ref.upsert(d, l);
    sharded.upsert(d, l);
  };
  auto remove = [&](const ObjectDescriptor& d) {
    const bool removed = ref.remove(d);
    EXPECT_EQ(dir.remove(d), removed);
    EXPECT_EQ(sharded.remove(d), removed);
  };

  for (geom::Coord c = 0; c < kGrid * kGrid; ++c) upsert(cell_desc(1, 0, c));

  std::mt19937_64 rng(20180521);
  auto pick = [&](std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
  };
  // Most traffic targets the big (1, 0) bucket.
  auto random_desc = [&] {
    const bool big = pick(10) < 9;
    const VarId var = big ? 1 : static_cast<VarId>(1 + pick(kVars));
    const Version v = big ? 0 : static_cast<Version>(pick(kVersions));
    return cell_desc(var, v, static_cast<geom::Coord>(pick(kGrid * kGrid)));
  };

  for (int batch = 0; batch < 40; ++batch) {
    for (int op = 0; op < 1000; ++op) {
      const ObjectDescriptor d = random_desc();
      const std::uint64_t kind = pick(100);
      if (kind < 35) {
        upsert(d);  // new, or in place when d is live
      } else if (kind < 75) {
        remove(d);
      } else {
        remove(d);
        upsert(d);  // re-registered: goes to the back of its bucket
      }
    }
    if (batch % 8 == 7) {
      // Remove one whole version; the last time, the big bucket.
      const bool big = batch == 39;
      const VarId var = big ? 1 : static_cast<VarId>(1 + pick(kVars));
      const Version v = big ? 0 : static_cast<Version>(pick(kVersions));
      for (const auto& d : ref.query(var, v, whole)) remove(d);
      EXPECT_TRUE(dir.query(var, v, whole).empty());
    }

    ASSERT_EQ(dir.size(), ref.size()) << "batch " << batch;
    ASSERT_EQ(sharded.size(), ref.size());
    const auto want_records = records_of(ref);
    EXPECT_EQ(records_of(dir), want_records);
    EXPECT_EQ(records_of(sharded), want_records);

    // A cell-aligned tile of at most 8x8 cells: its uncovered set never
    // exceeds the 64-piece fragmentation cap, so the sharded shadow test
    // stays exact there. The whole domain does exceed it and exercises
    // the include-all fallback, where only the monolithic order is
    // defined.
    const geom::Coord cx = static_cast<geom::Coord>(pick(kGrid));
    const geom::Coord cy = static_cast<geom::Coord>(pick(kGrid));
    const geom::BoundingBox tile = geom::BoundingBox::rect(
        2 * cx, 2 * cy, 2 * (cx + static_cast<geom::Coord>(pick(8))) + 1,
        2 * (cy + static_cast<geom::Coord>(pick(8))) + 1);
    for (VarId var = 1; var <= kVars; ++var) {
      for (Version v = 0; v <= kVersions; ++v) {
        for (const auto& region : {whole, tile}) {
          const auto want = ref.query(var, v, region);
          ASSERT_EQ(dir.query(var, v, region), want)
              << "batch " << batch << " var " << var << " v " << v;
          EXPECT_EQ(sorted(sharded.query(var, v, region)), sorted(want));
          ASSERT_EQ(dir.query_latest(var, v, region),
                    ref.query_latest(var, v, region))
              << "batch " << batch << " var " << var << " v " << v;
        }
        EXPECT_EQ(sorted(sharded.query_latest(var, v, tile)),
                  sorted(ref.query_latest(var, v, tile)));
      }
    }

    for (int probe = 0; probe < 500; ++probe) {
      const ObjectDescriptor d = random_desc();
      const ObjectLocation* want = ref.find(d);
      const ObjectLocation* got = dir.find(d);
      ASSERT_EQ(got != nullptr, want != nullptr);
      if (want != nullptr) {
        EXPECT_EQ(got->logical_size, want->logical_size);
        EXPECT_EQ(got->primary, want->primary);
      }
      const auto shard_loc = sharded.find(d);
      ASSERT_EQ(shard_loc.ok(), want != nullptr);
      if (want != nullptr) {
        EXPECT_EQ(shard_loc.value().logical_size, want->logical_size);
      }
      const ObjectDescriptor* want_entity = ref.find_entity(d.var, d.box);
      const ObjectDescriptor* got_entity = dir.find_entity(d.var, d.box);
      const auto shard_entity = sharded.find_entity(d.var, d.box);
      ASSERT_EQ(got_entity != nullptr, want_entity != nullptr);
      ASSERT_EQ(shard_entity.ok(), want_entity != nullptr);
      if (want_entity != nullptr) {
        EXPECT_EQ(*got_entity, *want_entity);
        EXPECT_EQ(shard_entity.value(), *want_entity);
      }
    }
  }
}

// Checks query_latest and query_latest_located against the reference
// scan: the same descriptors in the same order, each located with
// find()'s pointer.
void expect_latest_matches(const Directory& dir, const ReferenceDirectory& ref,
                           VarId var, Version v,
                           const geom::BoundingBox& region) {
  SCOPED_TRACE("var " + std::to_string(var) + " v " + std::to_string(v) +
               " region " + region.to_string());
  const auto want = ref.query_latest(var, v, region);
  ASSERT_EQ(dir.query_latest(var, v, region), want);
  const auto located = dir.query_latest_located(var, v, region);
  ASSERT_EQ(located.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(located[i].desc, want[i]);
    EXPECT_EQ(located[i].loc, dir.find(want[i]));
  }
}

// Random overlapping boxes over several versions of one variable, with
// removals that tombstone and then compact buckets. Version 5 also
// holds 3-D boxes (a mixed-dims bucket) until removals may compact them
// away, and some queries are 3-D. Large regions over many small boxes
// pass the fragment cap.
TEST(Directory, QueryLatestMatchesReferenceScan) {
  Directory dir;
  ReferenceDirectory ref;
  std::mt19937_64 rng(20260518);
  auto pick = [&](std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
  };
  auto random_box = [&](std::size_t dims, geom::Coord span,
                        geom::Coord max_extent) {
    geom::Point lo, hi;
    lo.dims = hi.dims = dims;
    for (std::size_t d = 0; d < dims; ++d) {
      lo[d] = static_cast<geom::Coord>(pick(static_cast<std::uint64_t>(span)));
      hi[d] = lo[d] +
              static_cast<geom::Coord>(pick(static_cast<std::uint64_t>(max_extent)));
    }
    return geom::BoundingBox(lo, hi);
  };
  std::vector<ObjectDescriptor> registered;
  std::size_t removed = 0;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 60; ++i) {
      const auto v = static_cast<Version>(pick(6));
      const std::size_t dims = v == 5 && pick(3) == 0 ? 3 : 2;
      const ObjectDescriptor d{1, v, random_box(dims, 40, 12), kWholeObject};
      const ObjectLocation l = loc(static_cast<ServerId>(pick(8)));
      dir.upsert(d, l);
      ref.upsert(d, l);
      registered.push_back(d);
    }
    for (int i = 0; i < 30; ++i) {
      const ObjectDescriptor& d = registered[pick(registered.size())];
      const bool was = ref.remove(d);
      ASSERT_EQ(dir.remove(d), was);
      removed += was ? 1 : 0;
    }
    ASSERT_EQ(dir.removals(), removed);
    for (int q = 0; q < 20; ++q) {
      const auto v = static_cast<Version>(pick(7));
      const std::size_t dims = pick(5) == 0 ? 3 : 2;
      const geom::BoundingBox region =
          pick(4) == 0 ? random_box(dims, 4, 60) : random_box(dims, 40, 16);
      expect_latest_matches(dir, ref, 1, v, region);
    }
  }
}

// Past 64 uncovered fragments the shadow test gives up and returns every
// intersecting descriptor, shadowed ones too, including those outside
// what was still uncovered when it gave up.
TEST(Directory, QueryLatestFallsBackPastTheFragmentCap) {
  Directory dir;
  ReferenceDirectory ref;
  auto add = [&](const ObjectDescriptor& d) {
    dir.upsert(d, loc(1));
    ref.upsert(d, loc(1));
  };
  const ObjectDescriptor shadowed = mk(1, 0, 10, 10, 12, 12);
  add(shadowed);
  add(mk(1, 1, 0, 0, 99, 99));  // covers the whole region
  // Version 2 leaves only the strip y 90..99 uncovered, then puts 40
  // points in it at distinct x: each cuts the slab right of the last one
  // into four, three fragments more each time.
  add(mk(1, 2, 0, 0, 99, 89));
  for (geom::Coord i = 0; i < 40; ++i) {
    const geom::Coord x = 2 + 2 * i, y = 91 + (i * 37) % 8;
    add(mk(1, 2, x, y, x, y));
  }
  const auto region = geom::BoundingBox::rect(0, 0, 99, 99);
  expect_latest_matches(dir, ref, 1, 2, region);
  const auto got = dir.query_latest(1, 2, region);
  EXPECT_NE(std::find(got.begin(), got.end(), shadowed), got.end());
  EXPECT_EQ(got.size(), 43u);
}

// A bucket holding 2-D and 3-D boxes answers a 2-D region with its 2-D
// boxes only, and answers the same once removals compact it back to
// one dimensionality.
TEST(Directory, QueryLatestOverMixedDimsBucket) {
  Directory dir;
  ReferenceDirectory ref;
  auto add = [&](const ObjectDescriptor& d) {
    dir.upsert(d, loc(1));
    ref.upsert(d, loc(1));
  };
  const auto flat = geom::BoundingBox::rect(0, 0, 9, 9);
  std::vector<ObjectDescriptor> cubes;
  for (geom::Coord i = 0; i < 4; ++i) {
    cubes.push_back({1, 0, geom::BoundingBox::cube(i, 0, 0, i, 9, 9),
                     kWholeObject});
    add(cubes.back());
    add(mk(1, 0, 2 * i, 0, 2 * i + 1, 9));
  }
  expect_latest_matches(dir, ref, 1, 0, flat);
  expect_latest_matches(dir, ref, 1, 0, geom::BoundingBox::cube(0, 0, 0, 9, 9, 9));
  for (const auto& c : cubes) {
    EXPECT_TRUE(dir.remove(c));
    EXPECT_TRUE(ref.remove(c));
    expect_latest_matches(dir, ref, 1, 0, flat);
  }
  EXPECT_EQ(dir.query_latest(1, 0, flat).size(), 4u);
  EXPECT_EQ(dir.removals(), 4u);
  EXPECT_FALSE(dir.remove(cubes[0]));
  EXPECT_EQ(dir.removals(), 4u);
}

}  // namespace
}  // namespace corec::staging
