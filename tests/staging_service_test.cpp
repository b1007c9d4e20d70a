// StagingService end-to-end behaviour on small real-payload domains:
// put/get round trips, Algorithm-1 fitting, entity updates, routing,
// degraded reads, and storage accounting per scheme.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "resilience/schemes.hpp"
#include "staging/hyperslab.hpp"
#include "staging/metadata.hpp"
#include "staging/service.hpp"

namespace corec::staging {
namespace {

using resilience::ErasureScheme;
using resilience::NoneScheme;
using resilience::ReplicationScheme;

ServiceOptions small_options() {
  ServiceOptions opts;
  opts.topology = net::Topology(4, 2, 1);  // 8 servers, 4 cabinets
  opts.domain = geom::BoundingBox::cube(0, 0, 0, 31, 31, 31);
  opts.fit.element_size = 1;
  opts.fit.target_bytes = 1024;  // force fitting of 16^3 = 4096-byte blocks
  return opts;
}

Bytes pattern_for(const geom::BoundingBox& box, std::uint8_t salt) {
  Bytes b(static_cast<std::size_t>(box.volume()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>(salt + i * 7);
  }
  return b;
}

struct ServiceFixture {
  explicit ServiceFixture(std::unique_ptr<ResilienceScheme> scheme,
                          ServiceOptions opts = small_options())
      : service(std::move(opts), &sim, std::move(scheme)) {}
  sim::Simulation sim;
  StagingService service;
};

TEST(StagingService, PutGetRoundTripExactBytes) {
  ServiceFixture f(std::make_unique<NoneScheme>());
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  Bytes payload = pattern_for(box, 3);
  OpResult put = f.service.put(1, 0, box, payload);
  ASSERT_TRUE(put.status.ok()) << put.status.to_string();
  EXPECT_GT(put.response_time(), 0);

  Bytes out;
  OpResult get = f.service.get(1, 0, box, &out);
  ASSERT_TRUE(get.status.ok()) << get.status.to_string();
  EXPECT_EQ(out, payload);
  EXPECT_GT(get.response_time(), 0);
}

TEST(StagingService, SubRegionRead) {
  ServiceFixture f(std::make_unique<NoneScheme>());
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  Bytes payload = pattern_for(box, 11);
  ASSERT_TRUE(f.service.put(1, 0, box, payload).status.ok());

  auto sub = geom::BoundingBox::cube(4, 4, 4, 11, 11, 11);
  Bytes out;
  ASSERT_TRUE(f.service.get(1, 0, sub, &out).status.ok());
  auto expected = extract_region(payload, box, sub, 1);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(out, expected.value());
}

TEST(StagingService, FittingSplitsLargeObjects) {
  ServiceFixture f(std::make_unique<NoneScheme>());
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);  // 4 KiB
  ASSERT_TRUE(f.service.put(1, 0, box, pattern_for(box, 1)).status.ok());
  // target 1 KiB -> at least 4 pieces registered.
  EXPECT_GE(f.service.directory().size(), 4u);
}

TEST(StagingService, EntityUpdateReplacesOldVersion) {
  ServiceFixture f(std::make_unique<NoneScheme>());
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  Bytes v0 = pattern_for(box, 1);
  Bytes v3 = pattern_for(box, 200);
  ASSERT_TRUE(f.service.put(1, 0, box, v0).status.ok());
  std::size_t after_first = f.service.directory().size();
  ASSERT_TRUE(f.service.put(1, 3, box, v3).status.ok());
  EXPECT_EQ(f.service.directory().size(), after_first);  // no growth

  Bytes out;
  ASSERT_TRUE(f.service.get(1, 3, box, &out).status.ok());
  EXPECT_EQ(out, v3);
  // A read as of version 0 no longer sees the overwritten entity.
  OpResult old_read = f.service.get(1, 0, box, &out);
  EXPECT_FALSE(old_read.status.ok());
}

TEST(StagingService, ReadOfUnwrittenRegionIsNotFound) {
  ServiceFixture f(std::make_unique<NoneScheme>());
  Bytes out;
  OpResult res = f.service.get(
      1, 0, geom::BoundingBox::cube(0, 0, 0, 3, 3, 3), &out);
  EXPECT_EQ(res.status.code(), StatusCode::kNotFound);
}

TEST(StagingService, RoutingIsDeterministicAndSpreads) {
  ServiceFixture f(std::make_unique<NoneScheme>());
  auto blocks = geom::regular_decomposition(small_options().domain,
                                            {4, 4, 4});
  std::set<ServerId> used;
  for (const auto& b : blocks) {
    ServerId s = f.service.route(b);
    EXPECT_EQ(s, f.service.route(b));
    used.insert(s);
  }
  // 64 blocks over 8 servers: all servers should receive some data.
  EXPECT_EQ(used.size(), f.service.num_servers());
}

TEST(StagingService, PhantomPutGet) {
  ServiceFixture f(std::make_unique<NoneScheme>());
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  OpResult put = f.service.put_phantom(1, 0, box);
  ASSERT_TRUE(put.status.ok());
  EXPECT_EQ(f.service.logical_bytes(), box.volume());
  OpResult get = f.service.get(1, 0, box, nullptr);
  ASSERT_TRUE(get.status.ok());
  EXPECT_GT(get.response_time(), 0);
}

TEST(StagingService, NoneSchemeLosesDataOnFailure) {
  ServiceFixture f(std::make_unique<NoneScheme>());
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  ASSERT_TRUE(f.service.put(1, 0, box, pattern_for(box, 5)).status.ok());
  ServerId victim = f.service.route(box);
  f.service.kill_server(victim);
  Bytes out;
  OpResult res = f.service.get(1, 0, box, &out);
  EXPECT_EQ(res.status.code(), StatusCode::kDataLoss);
}

TEST(StagingService, ReplicationSurvivesPrimaryFailure) {
  ServiceFixture f(std::make_unique<ReplicationScheme>(1));
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  Bytes payload = pattern_for(box, 77);
  ASSERT_TRUE(f.service.put(1, 0, box, payload).status.ok());

  ServerId victim = f.service.route(box);
  f.service.kill_server(victim);
  Bytes out;
  OpResult res = f.service.get(1, 0, box, &out);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(out, payload);
}

TEST(StagingService, ReplicationStorageEfficiencyHalf) {
  ServiceFixture f(std::make_unique<ReplicationScheme>(1));
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  ASSERT_TRUE(f.service.put(1, 0, box, pattern_for(box, 2)).status.ok());
  EXPECT_NEAR(f.service.storage_efficiency(), 0.5, 0.01);
}

TEST(StagingService, ErasureStorageEfficiency) {
  ServiceFixture f(std::make_unique<ErasureScheme>(3, 1));
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  ASSERT_TRUE(f.service.put(1, 0, box, pattern_for(box, 2)).status.ok());
  // k/(k+m) = 0.75, modulo chunk padding.
  EXPECT_NEAR(f.service.storage_efficiency(), 0.75, 0.02);
}

TEST(StagingService, ErasureDegradedReadReconstructsExactly) {
  ServiceFixture f(std::make_unique<ErasureScheme>(3, 1));
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  Bytes payload = pattern_for(box, 123);
  ASSERT_TRUE(f.service.put(1, 0, box, payload).status.ok());

  Bytes baseline;
  OpResult ok_read = f.service.get(1, 0, box, &baseline);
  ASSERT_TRUE(ok_read.status.ok());
  ASSERT_EQ(baseline, payload);

  // Kill one stripe member of the first piece; the degraded read must
  // still return the exact bytes (real Reed-Solomon decode on the read
  // path).
  ServerId victim = kInvalidServer;
  f.service.directory().for_each(
      [&](const ObjectDescriptor&, const ObjectLocation& loc) {
        if (victim == kInvalidServer &&
            loc.protection == Protection::kEncoded) {
          victim = loc.stripe_servers[0];
        }
      });
  ASSERT_NE(victim, kInvalidServer);
  f.service.kill_server(victim);
  Bytes out;
  OpResult degraded = f.service.get(1, 0, box, &out);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.to_string();
  EXPECT_EQ(out, payload);
  // Degraded reads are slower than healthy ones.
  EXPECT_GT(degraded.response_time(), ok_read.response_time());
}

TEST(StagingService, ErasureDoubleFailureWithinToleranceM2) {
  ServiceFixture f(std::make_unique<ErasureScheme>(2, 2));
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  Bytes payload = pattern_for(box, 9);
  ASSERT_TRUE(f.service.put(1, 0, box, payload).status.ok());
  // Kill two stripe members of one fitted piece.
  ObjectLocation piece_loc;
  bool found = false;
  f.service.directory().for_each(
      [&](const ObjectDescriptor&, const ObjectLocation& loc) {
        if (!found && loc.protection == Protection::kEncoded) {
          piece_loc = loc;
          found = true;
        }
      });
  ASSERT_TRUE(found);
  f.service.kill_server(piece_loc.stripe_servers[0]);
  f.service.kill_server(piece_loc.stripe_servers[1]);
  Bytes out;
  OpResult res = f.service.get(1, 0, box, &out);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(out, payload);
}

TEST(StagingService, ErasureBeyondToleranceIsDataLoss) {
  ServiceFixture f(std::make_unique<ErasureScheme>(3, 1));
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  ASSERT_TRUE(f.service.put(1, 0, box, pattern_for(box, 4)).status.ok());
  ObjectLocation piece_loc;
  bool found = false;
  f.service.directory().for_each(
      [&](const ObjectDescriptor&, const ObjectLocation& loc) {
        if (!found && loc.protection == Protection::kEncoded) {
          piece_loc = loc;
          found = true;
        }
      });
  ASSERT_TRUE(found);
  f.service.kill_server(piece_loc.stripe_servers[0]);
  f.service.kill_server(piece_loc.stripe_servers[1]);
  Bytes out;
  OpResult res = f.service.get(1, 0, box, &out);
  EXPECT_EQ(res.status.code(), StatusCode::kDataLoss);
}

TEST(StagingService, WritesRerouteAroundDeadPrimary) {
  ServiceFixture f(std::make_unique<NoneScheme>());
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  ServerId primary = f.service.route(box);
  f.service.kill_server(primary);
  Bytes payload = pattern_for(box, 66);
  ASSERT_TRUE(f.service.put(1, 0, box, payload).status.ok());
  Bytes out;
  ASSERT_TRUE(f.service.get(1, 0, box, &out).status.ok());
  EXPECT_EQ(out, payload);
}

TEST(StagingService, StripeMembersInDistinctCabinets) {
  ServiceFixture f(std::make_unique<ErasureScheme>(3, 1));
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  ASSERT_TRUE(f.service.put(1, 0, box, pattern_for(box, 1)).status.ok());
  const auto* entity = f.service.directory().find_entity(1, box);
  ASSERT_NE(entity, nullptr);
  const auto* loc = f.service.directory().find(*entity);
  ASSERT_NE(loc, nullptr);
  std::set<std::uint32_t> cabinets;
  for (ServerId s : loc->stripe_servers) {
    cabinets.insert(f.service.topology().location(s).cabinet);
  }
  // 4 stripe members over 4 cabinets: all distinct (Section III-A).
  EXPECT_EQ(cabinets.size(), loc->stripe_servers.size());
}

TEST(StagingService, ReplicaInDifferentCabinetThanPrimary) {
  ServiceFixture f(std::make_unique<ReplicationScheme>(1));
  auto box = geom::BoundingBox::cube(8, 8, 8, 15, 15, 15);
  ASSERT_TRUE(f.service.put(1, 0, box, pattern_for(box, 1)).status.ok());
  f.service.directory().for_each(
      [&](const ObjectDescriptor&, const ObjectLocation& loc) {
        for (ServerId r : loc.replicas) {
          EXPECT_FALSE(
              f.service.topology().same_cabinet(loc.primary, r));
        }
      });
}

TEST(StagingService, QueueingMakesConcurrentWritesSlower) {
  ServiceFixture f(std::make_unique<NoneScheme>());
  // Two writes to regions routed to the same primary: the second must
  // complete later than an isolated write would.
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);
  Bytes payload = pattern_for(box, 1);
  OpResult first = f.service.put(1, 0, box, payload);
  OpResult second = f.service.put(2, 0, box, payload);  // same box/route
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_GT(second.response_time(), first.response_time());
}

// A slab of var 1 spanning x0..x1 and the full 8x8 cross-section, so
// every x-plane is one contiguous run of 64 bytes.
geom::BoundingBox slab(geom::Coord x0, geom::Coord x1) {
  return geom::BoundingBox::cube(x0, 0, 0, x1, 7, 7);
}

struct SlabPut {
  Version version;
  geom::BoundingBox box;
  Bytes bytes;
};

// What a read of `region` as of `version` must return: each point comes
// from the newest put covering it, and a point no put covers is zero.
// `puts` is in version order.
Bytes expected_read(const std::vector<SlabPut>& puts, Version version,
                    const geom::BoundingBox& region) {
  Bytes want(static_cast<std::size_t>(region.volume()), 0);
  geom::Point p = region.lo();
  for (auto& byte : want) {
    for (const SlabPut& put : puts) {
      if (put.version <= version && put.box.contains(p)) {
        byte = put.bytes[geom::linear_offset(put.box, p)];
      }
    }
    for (std::size_t d = region.dims(); d-- > 0;) {
      if (++p[d] <= region.hi()[d]) break;
      p[d] = region.lo()[d];
    }
  }
  return want;
}

TEST(StagingService, GetWritesEveryByteWhetherPiecesTileOrNot) {
  ServiceFixture f(std::make_unique<NoneScheme>());
  std::vector<SlabPut> puts;
  auto put = [&](Version v, const geom::BoundingBox& box,
                 std::uint8_t salt) {
    puts.push_back({v, box, pattern_for(box, salt)});
    ASSERT_TRUE(f.service.put(1, v, box, puts.back().bytes).status.ok());
  };
  // The output starts as 0xAB garbage: every byte the get leaves alone
  // shows up as a mismatch.
  auto check = [&](Version v, const geom::BoundingBox& region) {
    SCOPED_TRACE("read " + region.to_string() + " at v" +
                 std::to_string(v));
    Bytes out(static_cast<std::size_t>(region.volume()), 0xAB);
    OpResult res = f.service.get(1, v, region, &out);
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
    EXPECT_EQ(out, expected_read(puts, v, region));
  };

  put(0, slab(0, 7), 1);
  put(0, slab(8, 15), 2);
  check(0, slab(0, 15));  // the two pieces tile the request
  check(0, slab(2, 12));  // their clipped parts still tile it
  check(0, slab(0, 23));  // x 16..23 is an unwritten hole: zeros

  put(1, slab(4, 11), 3);
  check(1, slab(0, 15));  // v1 overlaps both v0 pieces and wins
  // Pieces slab(4, 11) and slab(8, 15) add up to the request's volume
  // but overlap on x 8..11, leaving x 16..19 as a hole.
  check(1, slab(4, 19));

  // An uneven 3-D tiling of x 16..27, y 0..13, z 2..12: pieces that
  // share their x and y ranges split z unevenly, and one spans z whole.
  auto cube = [](geom::Coord x0, geom::Coord y0, geom::Coord z0,
                 geom::Coord x1, geom::Coord y1, geom::Coord z1) {
    return geom::BoundingBox::cube(x0, y0, z0, x1, y1, z1);
  };
  put(2, cube(16, 0, 2, 20, 5, 4), 4);
  put(2, cube(16, 0, 5, 20, 5, 12), 5);
  put(2, cube(16, 6, 2, 20, 13, 12), 6);
  put(2, cube(21, 0, 7, 27, 8, 9), 7);
  put(2, cube(21, 0, 2, 27, 8, 6), 8);
  put(2, cube(21, 0, 10, 27, 8, 12), 9);
  put(2, cube(21, 9, 11, 27, 13, 12), 10);
  put(2, cube(21, 9, 2, 27, 13, 10), 11);
  check(2, cube(16, 0, 2, 27, 13, 12));  // the whole tiling
  check(2, cube(17, 1, 3, 26, 12, 11));  // clipped, still a tiling
  check(2, cube(19, 4, 0, 23, 10, 12));  // z 0..1 is a hole
}

// A LocalMetadata that counts find() calls.
class CountingMetadata final : public MetadataPlane {
 public:
  SimTime upsert(const ObjectDescriptor& desc,
                 ObjectLocation location) override {
    return inner_.upsert(desc, std::move(location));
  }
  bool remove(const ObjectDescriptor& desc) override {
    return inner_.remove(desc);
  }
  const ObjectLocation* find(const ObjectDescriptor& desc) const override {
    ++finds;
    return inner_.find(desc);
  }
  std::vector<ObjectDescriptor> query(
      VarId var, Version version,
      const geom::BoundingBox& region) const override {
    return inner_.query(var, version, region);
  }
  std::vector<ObjectDescriptor> query_latest(
      VarId var, Version version,
      const geom::BoundingBox& region) const override {
    return inner_.query_latest(var, version, region);
  }
  std::vector<LocatedDescriptor> query_latest_located(
      VarId var, Version version,
      const geom::BoundingBox& region) const override {
    return inner_.query_latest_located(var, version, region);
  }
  const ObjectDescriptor* find_entity(
      VarId var, const geom::BoundingBox& box) const override {
    return inner_.find_entity(var, box);
  }
  std::size_t size() const override { return inner_.size(); }
  void for_each(const VisitFn& fn) const override { inner_.for_each(fn); }
  const Directory& state() const override { return inner_.state(); }

  mutable int finds = 0;

 private:
  LocalMetadata inner_;
};

// No protection, plus a hook run whenever the service reads a piece.
class AccessHookScheme final : public ResilienceScheme {
 public:
  std::string name() const override { return "access-hook"; }
  void bind(StagingService* service) override {
    ResilienceScheme::bind(service);
    inner_.bind(service);
  }
  SimTime protect(const DataObject& obj, ServerId primary,
                  const ObjectDescriptor* previous, SimTime arrived,
                  Breakdown* bd) override {
    return inner_.protect(obj, primary, previous, arrived, bd);
  }
  void on_access(const ObjectDescriptor& desc, SimTime) override {
    if (hook) hook(desc);
  }

  std::function<void(const ObjectDescriptor&)> hook;

 private:
  NoneScheme inner_;
};

// A get reads each piece's location as its directory query found it,
// with no find() of its own, until a removal lands between the query
// and a read; from then on every piece is found again.
TEST(StagingService, RemovalDuringGetMakesLaterPiecesFindAgain) {
  auto owned = std::make_unique<AccessHookScheme>();
  AccessHookScheme* scheme = owned.get();
  ServiceFixture f(std::move(owned));
  CountingMetadata meta;
  f.service.attach_metadata(&meta);
  std::vector<SlabPut> puts;
  for (const auto& box : {slab(0, 7), slab(8, 15)}) {
    puts.push_back({0, box, pattern_for(box, 3)});
    ASSERT_TRUE(f.service.put(1, 0, box, puts.back().bytes).status.ok());
  }
  ASSERT_TRUE(f.service.put(2, 0, slab(0, 7), puts[0].bytes).status.ok());
  const ObjectDescriptor other = meta.query_latest(2, 0, slab(0, 7)).at(0);
  const Bytes want = expected_read(puts, 0, slab(0, 15));

  Bytes out;
  meta.finds = 0;
  ASSERT_TRUE(f.service.get(1, 0, slab(0, 15), &out).status.ok());
  EXPECT_EQ(out, want);
  EXPECT_EQ(meta.finds, 0);

  // An unrelated removal while the first piece is read.
  scheme->hook = [&](const ObjectDescriptor&) { meta.remove(other); };
  ASSERT_TRUE(f.service.get(1, 0, slab(0, 15), &out).status.ok());
  EXPECT_EQ(out, want);
  EXPECT_EQ(meta.finds, 2);

  // A piece removed just before its read is missing, not read stale.
  scheme->hook = [&](const ObjectDescriptor& desc) { meta.remove(desc); };
  EXPECT_EQ(f.service.get(1, 0, slab(0, 15), &out).status.code(),
            StatusCode::kNotFound);
}

TEST(StagingService, CorruptReplicaIsQuarantinedAndReadFailsOver) {
  ServiceFixture f(std::make_unique<ReplicationScheme>(1));
  auto box = geom::BoundingBox::cube(0, 0, 0, 7, 7, 7);  // one piece
  Bytes payload = pattern_for(box, 41);
  OpResult put = f.service.put(1, 0, box, payload);
  ASSERT_TRUE(put.status.ok());
  // Idle queues: the read picks the primary, the first of equal backlogs.
  f.sim.run_until(put.completed + 1'000'000'000);

  auto descs = f.service.directory().query_latest(1, 0, box);
  ASSERT_EQ(descs.size(), 1u);
  const ObjectDescriptor desc = descs[0];
  const ObjectLocation* loc = f.service.directory().find(desc);
  ASSERT_NE(loc, nullptr);
  ASSERT_EQ(loc->replicas.size(), 1u);
  const ServerId primary = loc->primary;
  const ServerId replica = loc->replicas[0];
  ASSERT_NE(loc->object_checksum, 0u);

  ASSERT_TRUE(f.service.corrupt_at(primary, desc, 17));
  Bytes out;
  OpResult first = f.service.get(1, 0, box, &out);
  ASSERT_TRUE(first.status.ok()) << first.status.to_string();
  EXPECT_EQ(out, payload);
  EXPECT_EQ(f.service.integrity().quarantined, 1u);
  EXPECT_FALSE(f.service.server(primary).store.contains(desc));
  EXPECT_TRUE(f.service.server(replica).store.contains(desc));

  ASSERT_TRUE(f.service.corrupt_at(replica, desc, 3));
  OpResult second = f.service.get(1, 0, box, &out);
  EXPECT_EQ(second.status.code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace corec::staging
