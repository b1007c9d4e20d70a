// DescriptorTable: differential runs against std::unordered_map, probe
// chains that wrap around the slot array, pointer stability across
// growth, clear, move and for_each coverage.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "staging/descriptor_table.hpp"

namespace corec::staging {
namespace {

ObjectDescriptor key(VarId var, geom::Coord x) {
  return {var, 0, geom::BoundingBox::line(x, x + 7), kWholeObject};
}

/// Every key hashes into one of eight slots just below the top of any
/// table of 16 or more slots, so chains are long, collide on the full
/// hash, and wrap past the end of the slot array.
struct TopHeavyHash {
  std::uint64_t operator()(const ObjectDescriptor& d) const {
    return ~std::uint64_t{0} - static_cast<std::uint64_t>(d.box.lo()[0] % 8);
  }
};

/// Seeded insert/find/erase mix over a small key space, checked op by
/// op against std::unordered_map, plus a full content check at the end.
template <typename Hash>
void run_differential(std::uint64_t seed, std::size_t ops,
                      std::uint32_t key_space) {
  DescriptorTable<std::uint64_t, Hash> table;
  std::unordered_map<ObjectDescriptor, std::uint64_t, DescriptorHash> ref;
  Rng rng(seed);
  for (std::size_t op = 0; op < ops; ++op) {
    const ObjectDescriptor k = key(1, rng.uniform(key_space));
    switch (rng.uniform(3)) {
      case 0: {
        const std::uint64_t v = rng.next_u64();
        auto [slot, inserted] = table.try_emplace(k);
        auto [it, ref_inserted] = ref.try_emplace(k);
        ASSERT_EQ(inserted, ref_inserted) << "op " << op;
        ASSERT_EQ(*slot, it->second) << "op " << op;
        *slot = v;
        it->second = v;
        break;
      }
      case 1: {
        const std::uint64_t* found = table.find(k);
        auto it = ref.find(k);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "op " << op;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << "op " << op;
        }
        break;
      }
      default: {
        std::uint64_t removed = 0;
        const bool erased = table.erase(k, &removed);
        auto it = ref.find(k);
        ASSERT_EQ(erased, it != ref.end()) << "op " << op;
        if (erased) {
          ASSERT_EQ(removed, it->second) << "op " << op;
          ref.erase(it);
        }
        break;
      }
    }
    ASSERT_EQ(table.size(), ref.size()) << "op " << op;
  }
  std::size_t visited = 0;
  table.for_each([&](const ObjectDescriptor& k, const std::uint64_t& v) {
    ++visited;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(DescriptorTable, MatchesUnorderedMapUnderRandomOps) {
  run_differential<MixedDescriptorHash>(1, 200000, 4096);
  run_differential<MixedDescriptorHash>(2, 100000, 64);
}

TEST(DescriptorTable, MatchesUnorderedMapWithWrappingProbeChains) {
  run_differential<TopHeavyHash>(3, 100000, 96);
}

TEST(DescriptorTable, ValuePointersSurviveGrowth) {
  DescriptorTable<std::uint64_t, TopHeavyHash> table;
  std::vector<std::pair<ObjectDescriptor, std::uint64_t*>> held;
  for (geom::Coord x = 0; x < 300; ++x) {
    auto [v, inserted] = table.try_emplace(key(2, x));
    ASSERT_TRUE(inserted);
    *v = static_cast<std::uint64_t>(x) * 10;
    held.emplace_back(key(2, x), v);
  }
  // Erasing shifts slots, never nodes: the others' pointers hold.
  for (geom::Coord x = 0; x < 300; x += 3) ASSERT_TRUE(table.erase(key(2, x)));
  for (std::size_t i = 0; i < held.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(table.find(held[i].first), nullptr);
      continue;
    }
    EXPECT_EQ(table.find(held[i].first), held[i].second);
    EXPECT_EQ(*held[i].second, i * 10);
  }
}

TEST(DescriptorTable, ClearThenReuse) {
  DescriptorTable<int> table;
  for (geom::Coord x = 0; x < 100; ++x) *table.try_emplace(key(3, x)).first = 1;
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(key(3, 5)), nullptr);
  int visited = 0;
  table.for_each([&](const ObjectDescriptor&, int) { ++visited; });
  EXPECT_EQ(visited, 0);
  auto [v, inserted] = table.try_emplace(key(3, 5));
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 0);  // value-initialised, not the cleared one
  EXPECT_EQ(table.size(), 1u);
}

TEST(DescriptorTable, MoveTransfersEntriesAndPointers) {
  DescriptorTable<int> a;
  int* five = a.try_emplace(key(4, 5)).first;
  *five = 55;
  *a.try_emplace(key(4, 6)).first = 66;
  DescriptorTable<int> b(std::move(a));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.find(key(4, 5)), five);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.find(key(4, 5)), nullptr);
  *a.try_emplace(key(4, 7)).first = 77;  // a moved-from table is usable
  a = std::move(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.find(key(4, 7)), nullptr);
  EXPECT_EQ(*a.find(key(4, 6)), 66);
  EXPECT_EQ(a.find(key(4, 5)), five);
}

TEST(DescriptorTable, ForEachVisitsEveryEntryOnceAndMayMutate) {
  DescriptorTable<int> table;
  for (geom::Coord x = 0; x < 1000; ++x) *table.try_emplace(key(5, x)).first = 1;
  for (geom::Coord x = 0; x < 1000; x += 2) table.erase(key(5, x));
  table.for_each([](const ObjectDescriptor&, int& v) { v *= 3; });
  int sum = 0;
  std::unordered_map<ObjectDescriptor, int, DescriptorHash> seen;
  const auto& view = table;
  view.for_each([&](const ObjectDescriptor& k, const int& v) {
    sum += v;
    ++seen[k];
  });
  EXPECT_EQ(seen.size(), 500u);
  EXPECT_EQ(sum, 1500);
  for (const auto& [k, n] : seen) {
    EXPECT_EQ(n, 1);
    EXPECT_EQ(k.box.lo()[0] % 2, 1);
  }
}

}  // namespace
}  // namespace corec::staging
