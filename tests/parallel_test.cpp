// Real-thread components: the sharded lock-striped store/directory
// under multi-threaded hammering, and the ThreadFabric dispatcher
// replayed against the single-threaded path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/sharding.hpp"
#include "membership/placement.hpp"
#include "membership/pool_map.hpp"
#include "staging/sharded_store.hpp"
#include "staging/thread_fabric.hpp"

namespace corec {
namespace {

// ---- sharded lock-striped data plane ---------------------------------------

staging::ObjectDescriptor stress_desc(int key) {
  return staging::ObjectDescriptor{
      static_cast<VarId>(1 + key % 7), static_cast<Version>(1 + key / 7),
      geom::BoundingBox::line(key * 8, key * 8 + 7),
      staging::kWholeObject};
}

Bytes stress_payload(int key, std::size_t size) {
  Bytes b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::uint8_t>(key * 31 + i * 7);
  }
  return b;
}

// Readers, writers and erasers race across shards; after quiesce the
// lock-free rollup counters must agree exactly with a full recount.
TEST(ShardedObjectStore, StressRollupsExactAfterQuiesce) {
  staging::ShardedObjectStore store(0, 16);
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  constexpr int kKeys = 256;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kOps; ++i) {
        const int key = static_cast<int>(rng.next_u32() % kKeys);
        const auto desc = stress_desc(key);
        const std::uint32_t dice = rng.next_u32() % 100;
        if (dice < 40) {  // put (size varies so byte rollups move)
          const std::size_t size = 64 + (rng.next_u32() % 4) * 64;
          auto kind = (key % 2 == 0) ? staging::StoredKind::kPrimary
                                     : staging::StoredKind::kReplica;
          (void)store.put(
              staging::DataObject::real(
                  desc, PayloadBuffer::wrap(stress_payload(key, size))),
              kind);
        } else if (dice < 80) {  // get: view must be internally exact
          auto got = store.get(desc);
          if (got.ok()) {
            const auto& obj = got.value().object;
            if (obj.data.size() != obj.logical_size ||
                obj.data.crc32c() != obj.checksum) {
              mismatches.fetch_add(1);
            }
          }
        } else if (dice < 90) {  // erase
          store.erase(desc);
        } else {  // lock-free rollup reads while others mutate
          (void)store.count();
          (void)store.total_bytes();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Quiesced: striped counters must match a locked recount exactly.
  std::size_t entries = 0, bytes = 0;
  std::size_t by_kind[4] = {0, 0, 0, 0};
  store.for_each([&](const staging::StoredObject& stored) {
    ++entries;
    bytes += stored.object.logical_size;
    by_kind[static_cast<std::size_t>(stored.kind)] +=
        stored.object.logical_size;
  });
  EXPECT_EQ(store.count(), entries);
  EXPECT_EQ(store.total_bytes(), bytes);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(store.bytes_of(static_cast<staging::StoredKind>(k)),
              by_kind[k]);
  }

  const auto metrics = store.shard_metrics();
  EXPECT_EQ(metrics.shards, 16u);
  EXPECT_GT(metrics.lock_acquisitions, 0u);
  EXPECT_GE(metrics.max_shard_occupancy, (entries + 15) / 16);
}

// Acceptance invariant: a read-only run through the sharded store must
// not copy a single payload byte.
TEST(ShardedObjectStore, ConcurrentReadsAreZeroCopy) {
  staging::ShardedObjectStore store;
  constexpr int kKeys = 64;
  for (int key = 0; key < kKeys; ++key) {
    ASSERT_TRUE(store
                    .put(staging::DataObject::real(
                             stress_desc(key),
                             PayloadBuffer::wrap(stress_payload(key, 512))),
                         staging::StoredKind::kPrimary)
                    .ok());
  }
  payload_metrics().reset();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(t);
      for (int i = 0; i < 1000; ++i) {
        const int key = static_cast<int>(rng.next_u32() % kKeys);
        auto got = store.get(stress_desc(key));
        if (!got.ok() ||
            got.value().object.data != stress_payload(key, 512)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(payload_metrics().bytes_copied.load(), 0u);
  EXPECT_EQ(payload_metrics().cow_detaches.load(), 0u);
}

// COW keeps escaped read views immune to later in-place corruption.
TEST(ShardedObjectStore, CowProtectsEscapedViews) {
  staging::ShardedObjectStore store;
  const auto desc = stress_desc(3);
  const Bytes original = stress_payload(3, 256);
  ASSERT_TRUE(store
                  .put(staging::DataObject::real(
                           desc, PayloadBuffer::wrap(original)),
                       staging::StoredKind::kPrimary)
                  .ok());
  auto view = store.get(desc);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(store.flip_byte(desc, 10));
  EXPECT_TRUE(view.value().object.data == original);  // view unchanged
  auto after = store.get(desc);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().object.data == original);  // store mutated
}

TEST(ShardedObjectStore, GlobalCapacityEnforced) {
  staging::ShardedObjectStore store(1024, 8);
  ASSERT_TRUE(store
                  .put(staging::DataObject::real(
                           stress_desc(1),
                           PayloadBuffer::wrap(stress_payload(1, 600))),
                       staging::StoredKind::kPrimary)
                  .ok());
  auto st = store.put(
      staging::DataObject::real(stress_desc(2),
                                PayloadBuffer::wrap(stress_payload(2, 600))),
      staging::StoredKind::kPrimary);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(store.erase(stress_desc(1)));
  EXPECT_TRUE(store
                  .put(staging::DataObject::real(
                           stress_desc(2),
                           PayloadBuffer::wrap(stress_payload(2, 600))),
                       staging::StoredKind::kPrimary)
                  .ok());
  EXPECT_EQ(store.total_bytes(), 600u);
}

staging::ObjectLocation location_for(int key, ServerId primary) {
  staging::ObjectLocation loc;
  loc.primary = primary;
  loc.protection = (key % 3 == 0) ? staging::Protection::kReplicated
                                  : staging::Protection::kNone;
  if (loc.protection == staging::Protection::kReplicated) {
    loc.replicas = {static_cast<ServerId>(primary + 1),
                    static_cast<ServerId>(primary + 2)};
  }
  loc.logical_size = 64 + static_cast<std::size_t>(key % 5) * 32;
  loc.object_checksum = static_cast<std::uint32_t>(key * 2654435761u);
  return loc;
}

bool locations_equal(const staging::ObjectLocation& a,
                     const staging::ObjectLocation& b) {
  return a.primary == b.primary && a.protection == b.protection &&
         a.replicas == b.replicas && a.stripe_servers == b.stripe_servers &&
         a.k == b.k && a.m == b.m && a.chunk_size == b.chunk_size &&
         a.logical_size == b.logical_size &&
         a.object_checksum == b.object_checksum &&
         a.shard_checksums == b.shard_checksums;
}

// Concurrent upserts/removes across shards must converge to exactly the
// state the monolithic Directory reaches single-threaded, including
// latest-version query results.
TEST(ShardedDirectory, ConvergesToMonolithicState) {
  staging::ShardedDirectory sharded(8);
  staging::Directory mono;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 400;

  // Single-threaded reference: all threads' ops, any order — final
  // state is order-independent because each (desc) is touched by one
  // thread only.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const int key = t * kPerThread + i;
      const auto desc = stress_desc(key);
      mono.upsert(desc, location_for(key, static_cast<ServerId>(t)));
      if (key % 5 == 0) mono.remove(desc);
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int key = t * kPerThread + i;
        const auto desc = stress_desc(key);
        sharded.upsert(desc, location_for(key, static_cast<ServerId>(t)));
        if (key % 5 == 0) sharded.remove(desc);
        // Interleave lock-free size reads and cross-shard queries.
        (void)sharded.size();
        if (i % 64 == 0) {
          (void)sharded.query_latest(
              1, 1000, geom::BoundingBox::line(0, 1 << 20));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(sharded.size(), mono.size());
  std::size_t visited = 0;
  bool all_equal = true;
  sharded.for_each([&](const staging::ObjectDescriptor& desc,
                       const staging::ObjectLocation& loc) {
    ++visited;
    const auto* expect = mono.find(desc);
    if (expect == nullptr || !locations_equal(*expect, loc)) {
      all_equal = false;
    }
  });
  EXPECT_EQ(visited, mono.size());
  EXPECT_TRUE(all_equal);

  // Latest-version query parity (disjoint boxes: must match exactly).
  for (VarId var = 1; var <= 7; ++var) {
    auto got = sharded.query_latest(var, 1000,
                                    geom::BoundingBox::line(0, 1 << 20));
    auto want = mono.query_latest(var, 1000,
                                  geom::BoundingBox::line(0, 1 << 20));
    auto by_desc = [](const staging::ObjectDescriptor& a,
                      const staging::ObjectDescriptor& b) {
      if (a.version != b.version) return a.version < b.version;
      return a.box.lo()[0] < b.box.lo()[0];
    };
    std::sort(got.begin(), got.end(), by_desc);
    std::sort(want.begin(), want.end(), by_desc);
    EXPECT_EQ(got, want) << "var " << var;
  }
}

// ---- ThreadFabric ----------------------------------------------------------

// Replays a staging_service_test-style scenario (versioned writes over
// a variable grid with overwrites and deletes) through the fabric from
// several client threads, then compares directory state and stored
// bytes byte-for-byte with the single-threaded path.
TEST(ThreadFabric, ReplayMatchesSingleThreadedPath) {
  constexpr std::size_t kServers = 4;
  constexpr int kVars = 3;
  constexpr int kBoxes = 16;
  constexpr int kVersions = 6;

  struct Op {
    staging::ObjectDescriptor desc;
    bool erase = false;
    Bytes payload;
  };
  // Deterministic scenario; every entity (var, box) is only touched by
  // one replay thread, so per-entity op order is preserved under
  // concurrency and the final state must be identical.
  std::vector<Op> ops;
  for (int v = 1; v <= kVersions; ++v) {
    for (int var = 1; var <= kVars; ++var) {
      for (int b = 0; b < kBoxes; ++b) {
        staging::ObjectDescriptor desc{
            static_cast<VarId>(var), static_cast<Version>(v),
            geom::BoundingBox::line(b * 16, b * 16 + 15),
            staging::kWholeObject};
        const int key = (var * kBoxes + b) * kVersions + v;
        if (v > 1 && (key % 7 == 0)) {
          auto prev = desc;
          prev.version = static_cast<Version>(v - 1);
          ops.push_back({prev, true, {}});
        }
        ops.push_back({desc, false, stress_payload(key, 128)});
      }
    }
  }

  staging::ThreadFabric fabric(kServers, {.store_shards = 8,
                                          .directory_shards = 8});
  // Single-threaded reference over plain per-server stores + directory,
  // using the fabric's own routing so placement matches.
  std::vector<staging::ObjectStore> ref_stores(kServers);
  staging::Directory ref_dir;
  for (const auto& op : ops) {
    const ServerId s = fabric.route(op.desc);
    if (op.erase) {
      ref_stores[s].erase(op.desc);
      ref_dir.remove(op.desc);
    } else {
      auto obj = staging::DataObject::real(
          op.desc, PayloadBuffer::wrap(op.payload));
      staging::ObjectLocation loc;
      loc.primary = s;
      loc.logical_size = obj.logical_size;
      loc.object_checksum = obj.checksum;
      ASSERT_TRUE(
          ref_stores[s].put(std::move(obj), staging::StoredKind::kPrimary)
              .ok());
      ref_dir.upsert(op.desc, loc);
    }
  }

  // Concurrent replay: entity e -> thread (e % kThreads), each thread
  // applies its subsequence in order.
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& op : ops) {
        const int entity =
            static_cast<int>(op.desc.var) * 1000 +
            static_cast<int>(op.desc.box.lo()[0]);
        if (entity % kThreads != t) continue;
        const ServerId s = fabric.route(op.desc);
        if (op.erase) {
          fabric.erase(s, op.desc);
          fabric.directory().remove(op.desc);
        } else {
          auto obj = staging::DataObject::real(
              op.desc, PayloadBuffer::wrap(op.payload));
          staging::ObjectLocation loc;
          loc.primary = s;
          loc.logical_size = obj.logical_size;
          loc.object_checksum = obj.checksum;
          if (!fabric.put(s, std::move(obj), staging::StoredKind::kPrimary)
                   .ok()) {
            failures.fetch_add(1);
          }
          fabric.directory().upsert(op.desc, loc);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  // Directory state byte-for-byte.
  EXPECT_EQ(fabric.directory().size(), ref_dir.size());
  bool dir_equal = true;
  std::size_t dir_visited = 0;
  fabric.directory().for_each(
      [&](const staging::ObjectDescriptor& desc,
          const staging::ObjectLocation& loc) {
        ++dir_visited;
        const auto* expect = ref_dir.find(desc);
        if (expect == nullptr || !locations_equal(*expect, loc)) {
          dir_equal = false;
        }
      });
  EXPECT_EQ(dir_visited, ref_dir.size());
  EXPECT_TRUE(dir_equal);

  // Store contents byte-for-byte, per server.
  for (ServerId s = 0; s < kServers; ++s) {
    EXPECT_EQ(fabric.store(s).count(), ref_stores[s].count());
    EXPECT_EQ(fabric.store(s).total_bytes(), ref_stores[s].total_bytes());
    bool bytes_equal = true;
    fabric.store(s).for_each([&](const staging::StoredObject& stored) {
      const auto* expect = ref_stores[s].find(stored.object.desc);
      if (expect == nullptr ||
          !(expect->object.data == stored.object.data) ||
          expect->kind != stored.kind) {
        bytes_equal = false;
      }
    });
    EXPECT_TRUE(bytes_equal) << "server " << s;
  }

  // Process-wide aggregate sees this fabric's stripes while it lives.
  const auto global = shard_metrics();
  EXPECT_GT(global.shards, 0u);
  EXPECT_GT(global.lock_acquisitions, 0u);
}

TEST(ThreadFabric, RoutesByRankZeroHrwOverFlatMap) {
  // The fabric's server set is fixed at construction. Every descriptor
  // (and every shard of it) must keep the rank-0 HRW home over the flat
  // n-target map, so any placement drift fails here; the routed put
  // must land on that home.
  constexpr int kObjects = 12000;
  for (const std::size_t n : {1u, 4u, 8u}) {
    staging::ThreadFabric fabric(n);
    const membership::PoolMap map = membership::PoolMap::initial(n, n, 1);
    std::vector<std::size_t> homes(n, 0);
    for (int i = 0; i < kObjects; ++i) {
      const staging::ObjectDescriptor desc =
          stress_desc(i).shard_of(static_cast<staging::ShardIndex>(i % 3));
      const ServerId want = membership::place_one(
          map, membership::mix64(staging::DescriptorHash{}(desc.base())));
      ASSERT_EQ(fabric.route(desc), want) << "n " << n << " key " << i;
      ++homes[want];
    }
    // HRW spreads the keys: no server is empty or takes twice its share.
    for (std::size_t s = 0; s < n; ++s) {
      EXPECT_GT(homes[s], 0u) << "n " << n << " server " << s;
      EXPECT_LT(homes[s], 2 * kObjects / n) << "n " << n << " server " << s;
    }
    ServerId home = kInvalidServer;
    ASSERT_TRUE(fabric
                    .put(staging::DataObject::real(
                             stress_desc(7),
                             PayloadBuffer::wrap(stress_payload(7, 64))),
                         staging::StoredKind::kPrimary, &home)
                    .ok());
    EXPECT_EQ(home, fabric.route(stress_desc(7)));
    EXPECT_EQ(fabric.store(home).count(), 1u);
    EXPECT_EQ(fabric.total_objects(), 1u);
  }
}

}  // namespace
}  // namespace corec
