// Microbenchmarks of the zero-copy data plane: replicated put (shared
// payload buffers), the CoREC put path (classification, neighbour
// marking, victim sampling), region get (scatter/gather assembly),
// the S3D 32-piece get through the service, the hyperslab copy that
// stitches pieces into a get's buffer, and the token-serial replica→EC
// transition at RS(8,2), plus metadata-directory churn, latest-version
// lookup on one large version bucket and object-store churn. Counters expose
// the payload-traffic invariants the buffers are meant to deliver —
// allocations and bytes copied per object, CRC recomputes vs cache
// hits — so BENCH_staging.json tracks copy-count regressions PR over
// PR, not just wall time.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/corec_scheme.hpp"
#include "core/encoding_workflow.hpp"
#include "resilience/primitives.hpp"
#include "resilience/schemes.hpp"
#include "staging/directory.hpp"
#include "staging/hyperslab.hpp"
#include "staging/service.hpp"

namespace {

using corec::Bytes;
using corec::PayloadBuffer;
using corec::ServerId;
using corec::SimTime;
using corec::core::EncodingWorkflow;
using corec::staging::DataObject;
using corec::staging::ObjectDescriptor;
using corec::staging::StagingService;

constexpr std::size_t kK = 8;
constexpr std::size_t kM = 2;
constexpr std::size_t kReplicas = 2;  // group size 3

corec::staging::ServiceOptions service_options() {
  corec::staging::ServiceOptions opts;
  opts.topology = corec::net::Topology(4, 4, 1);  // 16 servers
  opts.domain = corec::geom::BoundingBox::cube(0, 0, 0, 255, 255, 255);
  opts.fit.element_size = 1;
  opts.fit.target_bytes = 1u << 20;
  return opts;
}

struct Harness {
  Harness()
      : service(service_options(), &sim,
                std::make_unique<corec::resilience::NoneScheme>()) {}
  corec::sim::Simulation sim;
  StagingService service;
};

ObjectDescriptor make_desc(std::uint64_t i) {
  ObjectDescriptor desc;
  desc.var = static_cast<corec::VarId>(1 + i % 13);
  desc.version = static_cast<corec::Version>(i);
  auto lo = static_cast<std::int64_t>((i % 16) * 16);
  desc.box = corec::geom::BoundingBox::cube(lo, 0, 0, lo + 15, 15, 15);
  return desc;
}

Bytes make_payload(std::size_t size, std::uint8_t seed) {
  Bytes b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 131);
  }
  return b;
}

/// N-way replicated placement of fresh objects. The payload is copied
/// exactly once into its backing store; every replica placement after
/// that is a refcount bump, so allocs/object stays at 1 and
/// copied_bytes/object at the logical size regardless of kReplicas.
void BM_PutReplicated(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const std::size_t objects = 32;
  Bytes src = make_payload(size, 7);
  std::uint64_t placed = 0;
  corec::payload_metrics().reset();
  for (auto _ : state) {
    state.PauseTiming();
    Harness h;
    corec::staging::Breakdown bd;
    state.ResumeTiming();
    for (std::size_t i = 0; i < objects; ++i) {
      auto obj =
          DataObject::real(make_desc(i), PayloadBuffer::copy_of(src));
      corec::resilience::place_replicated(
          h.service, obj,
          static_cast<ServerId>(i % h.service.num_servers()), kReplicas,
          0, &bd);
    }
    placed += objects;
  }
  const auto& pm = corec::payload_metrics();
  state.counters["allocs_per_obj"] =
      static_cast<double>(pm.allocations.load()) /
      static_cast<double>(placed);
  state.counters["copied_bytes_per_obj"] =
      static_cast<double>(pm.bytes_copied.load()) /
      static_cast<double>(placed);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(placed * size));
}
BENCHMARK(BM_PutReplicated)->Arg(64 << 10)->Arg(1 << 20);

/// Whole-object get from a replicated store: one gather copy into the
/// caller's buffer; no CRC recompute on the unmutated payload.
void BM_GetReplicated(benchmark::State& state) {
  const std::size_t size = 1u << 20;
  Harness h;
  corec::staging::Breakdown bd;
  auto box = corec::geom::BoundingBox::cube(0, 0, 0, 255, 255, 15);
  ObjectDescriptor desc{1, 1, box, corec::staging::kWholeObject};
  Bytes src = make_payload(size, 3);
  auto obj = DataObject::real(desc, PayloadBuffer::copy_of(src));
  corec::resilience::place_replicated(h.service, obj, 0, kReplicas, 0,
                                      &bd);
  corec::payload_metrics().reset();
  std::uint64_t reads = 0;
  for (auto _ : state) {
    Bytes out;
    auto r = h.service.get(1, 1, box, &out);
    if (!r.status.ok() || out.size() != size) {
      state.SkipWithError("get failed");
      return;
    }
    benchmark::DoNotOptimize(out);
    ++reads;
  }
  const auto& pm = corec::payload_metrics();
  state.counters["copied_bytes_per_get"] =
      static_cast<double>(pm.bytes_copied.load()) /
      static_cast<double>(reads);
  state.counters["crc_recomputes_per_get"] =
      static_cast<double>(pm.crc_computed.load()) /
      static_cast<double>(reads);
  state.SetBytesProcessed(static_cast<std::int64_t>(reads * size));
}
BENCHMARK(BM_GetReplicated);

/// CoREC write path on a populated grid: 8^3 blocks of 16^3 doubles
/// (32 KiB, one fitted piece each) are written once, then every
/// iteration overwrites one block at the next version through
/// CorecScheme::protect — classification and neighbour marking,
/// replicated placement, and, since two copies sit below the 0.67
/// storage floor, victim sampling. Each finished pass ends its step
/// untimed, as the application's compute phase would.
void BM_CorecPut(benchmark::State& state) {
  using corec::geom::BoundingBox;
  constexpr std::int64_t kBlock = 16;
  constexpr std::int64_t kGrid = 8;
  corec::staging::ServiceOptions opts = service_options();
  opts.domain = BoundingBox::cube(0, 0, 0, kBlock * kGrid - 1,
                                  kBlock * kGrid - 1, kBlock * kGrid - 1);
  opts.fit.element_size = 8;
  opts.fit.target_bytes = 32u << 10;
  corec::sim::Simulation sim;
  auto scheme = corec::core::make_corec();
  const corec::core::CorecScheme* corec_scheme = scheme.get();
  StagingService service(opts, &sim, std::move(scheme));

  std::vector<BoundingBox> blocks;
  for (std::int64_t x = 0; x < kGrid; ++x) {
    for (std::int64_t y = 0; y < kGrid; ++y) {
      for (std::int64_t z = 0; z < kGrid; ++z) {
        blocks.push_back(BoundingBox::cube(
            x * kBlock, y * kBlock, z * kBlock, x * kBlock + kBlock - 1,
            y * kBlock + kBlock - 1, z * kBlock + kBlock - 1));
      }
    }
  }
  const Bytes payload =
      make_payload(blocks[0].volume() * opts.fit.element_size, 5);
  corec::Version step = 0;
  for (const auto& b : blocks) service.put(1, step, b, payload);
  service.end_time_step(step++);

  std::size_t next = 0;
  std::uint64_t puts = 0;
  std::uint64_t sampled = 0;
  for (auto _ : state) {
    auto r = service.put(1, step, blocks[next], payload);
    if (!r.status.ok()) {
      state.SkipWithError("put failed");
      return;
    }
    ++puts;
    // protect() sampled victims iff the floor was violated after placing.
    if (corec_scheme->efficiency() <
        corec_scheme->corec_options().efficiency_floor) {
      ++sampled;
    }
    if (++next == blocks.size()) {
      state.PauseTiming();
      service.end_time_step(step++);
      next = 0;
      state.ResumeTiming();
    }
  }
  state.counters["sampled_share"] =
      static_cast<double>(sampled) / static_cast<double>(puts);
  state.SetItemsProcessed(static_cast<std::int64_t>(puts));
  state.SetBytesProcessed(static_cast<std::int64_t>(puts * payload.size()));
}
BENCHMARK(BM_CorecPut);

std::vector<DataObject> transition_set(std::size_t objects,
                                       std::size_t size) {
  std::vector<DataObject> set;
  set.reserve(objects);
  for (std::size_t i = 0; i < objects; ++i) {
    set.push_back(DataObject::real(
        make_desc(100 + i),
        PayloadBuffer::wrap(
            make_payload(size, static_cast<std::uint8_t>(i)))));
  }
  return set;
}

std::vector<ServerId> holders_of(const StagingService& service,
                                 ServerId primary) {
  std::vector<ServerId> holders;
  for (std::size_t r = 0; r <= kReplicas; ++r) {
    holders.push_back(static_cast<ServerId>(
        (primary + r) % service.num_servers()));
  }
  return holders;
}

/// Token-serial replica→EC transition: one token round-trip and one
/// inline stripe build per object.
void BM_TransitionPerObject(benchmark::State& state) {
  const std::size_t objects = 64;
  const std::size_t size = 1u << 20;  // 64 MiB of cold data per drain
  std::uint64_t moved = 0;
  SimTime sim_ns = 0;
  corec::payload_metrics().reset();
  for (auto _ : state) {
    state.PauseTiming();
    Harness h;
    EncodingWorkflow workflow(&h.service, kReplicas + 1, {});
    auto set = transition_set(objects, size);
    corec::staging::Breakdown bd;
    state.ResumeTiming();
    SimTime last = 0;
    for (std::size_t i = 0; i < objects; ++i) {
      ServerId primary =
          static_cast<ServerId>(i % h.service.num_servers());
      auto holders = holders_of(h.service, primary);
      ServerId encoder = workflow.pick_encoder(holders, last);
      SimTime start = workflow.acquire(encoder, 0);
      SimTime encode_done = start;
      SimTime durable = corec::resilience::place_encoded(
          h.service, set[i], primary, kK, kM, encoder, start, &bd,
          &encode_done);
      workflow.release(encoder, encode_done);
      last = std::max(last, durable);
    }
    benchmark::DoNotOptimize(last);
    moved += objects;
    sim_ns = last;
  }
  state.counters["copied_bytes_per_obj"] =
      static_cast<double>(
          corec::payload_metrics().bytes_copied.load()) /
      static_cast<double>(moved);
  // Simulated staging throughput: cold bytes retired per simulated
  // second of the drain — the metric the paper's figures use.
  state.counters["sim_drain_ms"] = static_cast<double>(sim_ns) / 1e6;
  state.counters["sim_GBps"] =
      static_cast<double>(objects * size) /
      (static_cast<double>(sim_ns) / 1e9) / 1e9;
  state.SetBytesProcessed(static_cast<std::int64_t>(moved * size));
}
BENCHMARK(BM_TransitionPerObject)->Unit(benchmark::kMillisecond);

/// Zero-copy stripe preparation alone: chunk views plus the fused
/// parity encode, no placement. The only copies are the padded tail
/// chunk and the parity buffer write.
void BM_StripePrep(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  Harness h;
  const auto& codec = h.service.codec(kK, kM);
  auto obj = DataObject::real(make_desc(1),
                              PayloadBuffer::wrap(make_payload(size, 5)));
  corec::payload_metrics().reset();
  std::uint64_t built = 0;
  for (auto _ : state) {
    auto stripe = corec::resilience::make_stripe_payload(codec, obj, kK, kM);
    benchmark::DoNotOptimize(stripe);
    ++built;
  }
  state.counters["copied_bytes_per_stripe"] =
      static_cast<double>(
          corec::payload_metrics().bytes_copied.load()) /
      static_cast<double>(built);
  state.SetBytesProcessed(static_cast<std::int64_t>(built * size));
}
BENCHMARK(BM_StripePrep)->Arg(64 << 10)->Arg(1 << 20)->Arg(8 << 20);

/// Hyperslab copy on S3D shapes. Arg 0: a corec_s3d get, 32 pieces of
/// 16^3 doubles stitched into a 32x64x64 slab (128-byte rows). Arg 1:
/// a whole-box extract of one 16^3-double block, the put path's copy.
void BM_CopyRegion(benchmark::State& state) {
  using corec::geom::BoundingBox;
  constexpr std::size_t kElem = 8;
  const bool gather = state.range(0) == 0;
  const BoundingBox slab = BoundingBox::cube(0, 0, 0, 31, 63, 63);
  std::vector<BoundingBox> pieces;
  if (gather) {
    for (std::int64_t x = 0; x < 32; x += 16) {
      for (std::int64_t y = 0; y < 64; y += 16) {
        for (std::int64_t z = 0; z < 64; z += 16) {
          pieces.push_back(
              BoundingBox::cube(x, y, z, x + 15, y + 15, z + 15));
        }
      }
    }
  } else {
    pieces.push_back(BoundingBox::cube(0, 0, 0, 15, 15, 15));
  }
  const std::size_t piece_bytes = pieces[0].volume() * kElem;
  std::vector<Bytes> src;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    src.push_back(make_payload(piece_bytes, static_cast<std::uint8_t>(i)));
  }
  Bytes out(gather ? slab.volume() * kElem : piece_bytes);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      const BoundingBox& dst_box = gather ? slab : pieces[i];
      auto st = corec::staging::copy_region(src[i], pieces[i],
                                            corec::MutableByteSpan(out),
                                            dst_box, pieces[i], kElem);
      if (!st.ok()) {
        state.SkipWithError("copy_region failed");
        return;
      }
    }
    benchmark::DoNotOptimize(out.data());
    bytes += pieces.size() * piece_bytes;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CopyRegion)->Arg(0)->Arg(1);

/// A corec_s3d get through StagingService::get: 32 replicated pieces of
/// 16^3 doubles read back as one 32x64x64 slab. The directory query,
/// the 32 piece reads and the assembly of the 1 MiB slab, which the
/// pieces tile.
void BM_GetTiled(benchmark::State& state) {
  using corec::geom::BoundingBox;
  constexpr std::size_t kElem = 8;
  corec::staging::ServiceOptions opts = service_options();
  opts.domain = BoundingBox::cube(0, 0, 0, 63, 63, 63);
  opts.fit.element_size = kElem;
  opts.fit.target_bytes = 32u << 10;
  corec::sim::Simulation sim;
  StagingService service(
      opts, &sim,
      std::make_unique<corec::resilience::ReplicationScheme>(kReplicas));
  const BoundingBox slab = BoundingBox::cube(0, 0, 0, 31, 63, 63);
  for (std::int64_t x = 0; x < 64; x += 16) {
    for (std::int64_t y = 0; y < 64; y += 16) {
      for (std::int64_t z = 0; z < 64; z += 16) {
        const auto box = BoundingBox::cube(x, y, z, x + 15, y + 15, z + 15);
        const Bytes payload = make_payload(box.volume() * kElem,
                                           static_cast<std::uint8_t>(x + y + z));
        if (!service.put(1, 0, box, payload).status.ok()) {
          state.SkipWithError("put failed");
          return;
        }
      }
    }
  }
  Bytes out;
  std::uint64_t reads = 0;
  for (auto _ : state) {
    auto r = service.get(1, 0, slab, &out);
    if (!r.status.ok()) {
      state.SkipWithError("get failed");
      return;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    ++reads;
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(reads * slab.volume() * kElem));
}
BENCHMARK(BM_GetTiled);

/// One (var, version) bucket of n disjoint 8^3 blocks, as one S3D
/// variable at one time step.
std::vector<ObjectDescriptor> bucket_descs(std::size_t n) {
  std::vector<ObjectDescriptor> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto x = static_cast<std::int64_t>(i % 32) * 8;
    const auto y = static_cast<std::int64_t>(i / 32 % 32) * 8;
    const auto z = static_cast<std::int64_t>(i / 1024) * 8;
    ObjectDescriptor desc;
    desc.var = 1;
    desc.box = corec::geom::BoundingBox::cube(x, y, z, x + 7, y + 7, z + 7);
    out.push_back(desc);
  }
  return out;
}

/// Overwrite churn on a full bucket: each iteration removes one
/// descriptor and re-registers it at the back of its bucket, the
/// directory traffic of an entity rewrite or a demotion. Per-op time
/// should not grow with the bucket size.
void BM_DirectoryChurn(benchmark::State& state) {
  const auto descs = bucket_descs(static_cast<std::size_t>(state.range(0)));
  corec::staging::Directory dir;
  corec::staging::ObjectLocation loc;
  for (const auto& d : descs) dir.upsert(d, loc);
  std::size_t i = 0;
  for (auto _ : state) {
    i = (i + 7919) % descs.size();
    benchmark::DoNotOptimize(dir.remove(descs[i]));
    dir.upsert(descs[i], loc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryChurn)->Arg(1024)->Arg(4096)->Arg(16384);

/// Latest-version lookup of one block in a 4,096-entry bucket: the
/// sequential scan every get pays. A node-based bucket shows here as
/// one pointer chase per descriptor.
void BM_DirectoryQueryLatest(benchmark::State& state) {
  const auto descs = bucket_descs(static_cast<std::size_t>(state.range(0)));
  corec::staging::Directory dir;
  corec::staging::ObjectLocation loc;
  for (const auto& d : descs) dir.upsert(d, loc);
  std::size_t i = 0;
  for (auto _ : state) {
    i = (i + 7919) % descs.size();
    auto hits = dir.query_latest(1, 0, descs[i].box);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryQueryLatest)->Arg(4096);

/// One corec_s3d server store: about 2,048 entries keyed by 16^3
/// blocks, whole copies and stripe shards. Each iteration finds one
/// entry, erases another and puts it back, the store traffic of a put
/// or a demotion.
void BM_ObjectStoreChurn(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<ObjectDescriptor> descs;
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = static_cast<std::int64_t>(i / 4);
    const auto x = b % 16 * 16, y = b / 16 % 16 * 16, z = b / 256 * 16;
    ObjectDescriptor desc;
    desc.var = 1 + static_cast<corec::VarId>(b % 4);
    desc.version = static_cast<corec::Version>(b % 10);
    desc.box = corec::geom::BoundingBox::cube(x, y, z, x + 15, y + 15, z + 15);
    desc.shard = static_cast<corec::staging::ShardIndex>(i % 4);
    descs.push_back(desc);
  }
  corec::staging::ObjectStore store;
  for (const auto& d : descs) {
    (void)store.put(DataObject::make_phantom(d, 32768),
                    corec::staging::StoredKind::kReplica);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    i = (i + 7919) % n;
    benchmark::DoNotOptimize(store.find(descs[(i + n / 2) % n]));
    benchmark::DoNotOptimize(store.erase(descs[i]));
    (void)store.put(DataObject::make_phantom(descs[i], 32768),
                    corec::staging::StoredKind::kReplica);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObjectStoreChurn)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
