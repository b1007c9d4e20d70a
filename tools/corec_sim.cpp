// corec_sim — configurable experiment runner for the CoREC staging
// simulator. Runs one workload/mechanism combination and reports the
// metrics the paper's evaluation uses, optionally as CSV for plotting.
//
// Examples:
//   corec_sim --case 3 --mechanism corec
//   corec_sim --case 1 --mechanism erasure --servers 16 --steps 30
//   corec_sim --case 5 --mechanism corec --fail 4:2 --replace 8:2
//   corec_sim --case 2 --mechanism hybrid --floor 0.72 --csv
//   corec_sim --s3d 4480 --mechanism corec --scale 4
//   corec_sim --threads 4 --servers 8
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <csignal>

#include <poll.h>

#include "common/buffer.hpp"
#include "common/checksum.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "erasure/codec.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "staging/thread_fabric.hpp"
#include "core/corec_scheme.hpp"
#include "membership/manager.hpp"
#include "meta/meta_client.hpp"
#include "net/cost_model.hpp"
#include "meta/meta_service.hpp"
#include "resilience/scrubber.hpp"
#include "workloads/driver.hpp"
#include "workloads/mechanisms.hpp"
#include "workloads/s3d.hpp"
#include "workloads/synthetic.hpp"

#include "flags.hpp"

using namespace corec;
using namespace corec::workloads;

namespace {

struct CliOptions {
  int case_number = 1;
  int s3d_cores = 0;  // 0 = synthetic; 4480/8960/17920 = Table II
  geom::Coord s3d_scale = 4;
  std::string mechanism = "corec";
  std::size_t servers = 8;
  std::size_t cabinets = 4;
  Version steps = 20;
  std::size_t k = 3, m = 1, n_level = 1;
  double floor = 0.67;
  std::uint64_t seed = 42;
  bool csv = false;
  bool verify = false;
  bool calibrate = false;
  bool batch_encode = false;
  bool pipeline_encode = false;
  // Replicated metadata plane: follower count K (0 = plain local
  // directory), plus optional primary-kill steps.
  std::size_t meta_followers = 0;
  std::vector<Version> meta_kills;
  // Fault-injection config (failpoint grammar) and background scrub
  // pacing (0 = no scrubber).
  std::string failpoints;
  double scrub_mtbf = 0.0;
  // step:server pairs
  std::vector<std::pair<Version, ServerId>> fails;
  std::vector<std::pair<Version, ServerId>> replaces;
  // Elastic membership: join a fresh server at step TS, drain server
  // SRV at step TS. Either implies pool-map placement.
  std::vector<Version> joins;
  std::vector<std::pair<Version, ServerId>> drains;
  bool pool_placement = false;
  // Real-thread fabric exercise: 0 = run the virtual-time simulator
  // (default); N > 0 drives a ThreadFabric from N client threads.
  std::size_t threads = 0;
  // Network modes: --serve runs an RPC server until signalled
  // (-1 = off; 0 = kernel-assigned port), --connect drives a smoke
  // workload against HOST:PORT as an RPC client.
  int serve_port = -1;
  std::size_t serve_loops = 0;  // 0 = min(hardware_concurrency, 4)
  std::string connect_addr;
};

void usage() {
  std::printf(
      "corec_sim — CoREC staging experiment runner\n\n"
      "workload (pick one):\n"
      "  --case N            synthetic case 1-5 (default 1)\n"
      "  --s3d CORES         Table II S3D scenario: 4480|8960|17920\n"
      "  --scale F           shrink S3D blocks by F (default 4; 1 = "
      "paper size)\n"
      "options:\n"
      "  --mechanism M       dataspaces|replicate|erasure|hybrid|corec|"
      "corec-aggressive\n"
      "  --servers N         staging servers (default 8)\n"
      "  --cabinets N        failure domains (default 4)\n"
      "  --steps N           time steps (default 20)\n"
      "  --k N --m N         stripe geometry (default 3+1)\n"
      "  --replicas N        replica count for hot data (default 1)\n"
      "  --floor F           storage efficiency floor (default 0.67)\n"
      "  --fail TS:SRV       kill server SRV at step TS (repeatable)\n"
      "  --replace TS:SRV    replace server SRV at step TS (repeatable)\n"
      "  --join TS           grow the cluster by one server at step TS\n"
      "                      and rebalance onto it (repeatable; implies\n"
      "                      --pool-placement)\n"
      "  --drain TS:SRV      drain server SRV at step TS: migrate its\n"
      "                      data off, then retire it (repeatable;\n"
      "                      implies --pool-placement)\n"
      "  --pool-placement    route objects with the versioned pool map\n"
      "                      (HRW) instead of the static SFC ring\n"
      "  --meta K            replicate the metadata directory on a\n"
      "                      primary + K followers (default: local)\n"
      "  --meta-kill TS      kill the metadata primary process at step\n"
      "                      TS (repeatable; requires --meta)\n"
      "  --failpoints SPEC   arm fault-injection points, e.g.\n"
      "                      'staging.shard.bitflip=bitflip:p=0.1;"
      "meta.append.drop_ack=error:p=0.3'\n"
      "                      (also read from $COREC_FAILPOINTS)\n"
      "  --scrub S           background integrity scrubber paced for an\n"
      "                      MTBF of S seconds (0 = off, default)\n"
      "  --batch-encode      drain CoREC cold transitions through the\n"
      "                      batched pipelined encoder (corec variants)\n"
      "  --pipeline-encode   drain CoREC cold transitions through the\n"
      "                      ring-pipelined encoder: each stripe's parity\n"
      "                      accumulates along its replica holders\n"
      "                      (corec variants)\n"
      "  --threads N         skip the simulator; drive the real-thread\n"
      "                      ThreadFabric (sharded stores + entity-\n"
      "                      sharded directory) from N client threads\n"
      "                      with byte verification of every read\n"
      "  --serve PORT        skip the simulator; serve the ThreadFabric\n"
      "                      over TCP RPC on PORT (0 = kernel-assigned)\n"
      "                      until SIGINT/SIGTERM\n"
      "  --loops N           with --serve: epoll event-loop shards\n"
      "                      (0 = min(hardware_concurrency, 4))\n"
      "  --connect H:P       skip the simulator; run a byte-verified\n"
      "                      put/get/query/erase smoke workload against\n"
      "                      a corec-server at HOST:PORT\n"
      "  --seed N            RNG seed\n"
      "  --verify            real payloads + byte verification\n"
      "  --calibrate         measure this machine's GF kernel encode\n"
      "                      rate and use it for simulated encode costs\n"
      "                      (default: Titan-like constant, for\n"
      "                      run-to-run determinism)\n"
      "  --csv               per-step CSV on stdout\n");
}

// A TS:SRV flag value; exits 2 naming the flag when malformed.
std::pair<Version, ServerId> parse_pair(const std::string& flag,
                                        std::string_view arg) {
  const auto colon = arg.find(':');
  if (colon == std::string_view::npos) {
    exit_bad_flag(flag, Status::InvalidArgument("expects TS:SRV"));
  }
  return {flag_uint<Version>(flag, arg.substr(0, colon)),
          flag_uint<ServerId>(flag, arg.substr(colon + 1))};
}

Mechanism parse_mechanism(const std::string& name) {
  if (name == "dataspaces" || name == "none") return Mechanism::kNone;
  if (name == "replicate") return Mechanism::kReplication;
  if (name == "erasure") return Mechanism::kErasure;
  if (name == "hybrid") return Mechanism::kHybrid;
  if (name == "corec") return Mechanism::kCorec;
  if (name == "corec-aggressive") return Mechanism::kCorecAggressive;
  std::fprintf(stderr, "unknown mechanism '%s'\n", name.c_str());
  std::exit(2);
}

bool parse_args(int argc, char** argv, CliOptions* cli) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else if (a == "--case") {
      cli->case_number = flag_uint<int>(a, next());
    } else if (a == "--s3d") {
      cli->s3d_cores = flag_uint<int>(a, next());
    } else if (a == "--scale") {
      cli->s3d_scale = flag_uint<geom::Coord>(a, next());
    } else if (a == "--mechanism") {
      cli->mechanism = next();
    } else if (a == "--servers") {
      cli->servers = flag_uint<std::size_t>(a, next());
    } else if (a == "--cabinets") {
      cli->cabinets = flag_uint<std::size_t>(a, next());
    } else if (a == "--steps") {
      cli->steps = flag_uint<Version>(a, next());
    } else if (a == "--k") {
      cli->k = flag_uint<std::size_t>(a, next());
    } else if (a == "--m") {
      cli->m = flag_uint<std::size_t>(a, next());
    } else if (a == "--replicas") {
      cli->n_level = flag_uint<std::size_t>(a, next());
    } else if (a == "--floor") {
      cli->floor = flag_double(a, next(), 0.0, 1.0);
    } else if (a == "--threads") {
      cli->threads = flag_uint<std::size_t>(a, next());
    } else if (a == "--serve") {
      cli->serve_port = flag_uint<std::uint16_t>(a, next());
    } else if (a == "--loops") {
      cli->serve_loops = flag_uint<std::size_t>(a, next());
    } else if (a == "--connect") {
      cli->connect_addr = next();
    } else if (a == "--seed") {
      cli->seed = flag_uint(a, next());
    } else if (a == "--failpoints") {
      cli->failpoints = next();
    } else if (a == "--scrub") {
      cli->scrub_mtbf = flag_double(a, next(), 0.0, 1e9);
    } else if (a == "--batch-encode") {
      cli->batch_encode = true;
    } else if (a == "--pipeline-encode") {
      cli->pipeline_encode = true;
    } else if (a == "--meta") {
      cli->meta_followers = flag_uint<std::size_t>(a, next());
    } else if (a == "--meta-kill") {
      cli->meta_kills.push_back(flag_uint<Version>(a, next()));
    } else if (a == "--csv") {
      cli->csv = true;
    } else if (a == "--verify") {
      cli->verify = true;
    } else if (a == "--calibrate") {
      cli->calibrate = true;
    } else if (a == "--fail") {
      cli->fails.push_back(parse_pair(a, next()));
    } else if (a == "--replace") {
      cli->replaces.push_back(parse_pair(a, next()));
    } else if (a == "--join") {
      cli->joins.push_back(flag_uint<Version>(a, next()));
      cli->pool_placement = true;
    } else if (a == "--drain") {
      cli->drains.push_back(parse_pair(a, next()));
      cli->pool_placement = true;
    } else if (a == "--pool-placement") {
      cli->pool_placement = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      return false;
    }
  }
  return true;
}

// --threads mode: hammer a ThreadFabric from N real client threads.
// Each thread owns a disjoint slice of entities (so expected bytes are
// deterministic) but entities from different threads interleave over
// the same servers and shards, exercising the lock stripes. Every get
// is byte-verified against the owner's last write; a final async batch
// exercises the worker-pool dispatch path. Returns nonzero on any
// mismatch.
int run_fabric_exercise(const CliOptions& cli) {
  using staging::DataObject;
  using staging::ObjectDescriptor;
  using staging::ObjectLocation;
  using staging::StoredKind;

  constexpr int kEntitiesPerThread = 64;
  constexpr int kOpsPerThread = 20000;
  constexpr std::size_t kPayloadBytes = 2048;
  const std::size_t threads = cli.threads;

  staging::FabricOptions options;
  options.workers = threads;
  // Stripe for the offered parallelism, not the host's core count: the
  // exercise (and the TSan CI leg) must cover cross-stripe interleaving
  // even on single-core runners where the auto shard count is 1.
  options.store_shards = threads * 4;
  options.directory_shards = threads * 4;
  staging::ThreadFabric fabric(cli.servers, options);
  payload_metrics().reset();

  auto desc_of = [](std::size_t tid, int entity, Version version) {
    const auto cell =
        static_cast<geom::Coord>(tid) * kEntitiesPerThread + entity;
    return ObjectDescriptor{static_cast<VarId>(1 + tid), version,
                            geom::BoundingBox::line(cell * 16, cell * 16 + 15),
                            staging::kWholeObject};
  };
  auto payload_of = [](std::size_t tid, int entity, Version version) {
    Bytes b(kPayloadBytes);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<std::uint8_t>(tid * 131 + entity * 31 +
                                       version * 7 + i);
    }
    return b;
  };

  std::atomic<std::uint64_t> mismatches{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (std::size_t tid = 0; tid < threads; ++tid) {
    clients.emplace_back([&, tid] {
      Rng rng(cli.seed, 0x7ab0 + tid);
      // Per-entity: version of the owner's last live write (0 = erased).
      std::vector<Version> live(kEntitiesPerThread, 0);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const int entity =
            static_cast<int>(rng.uniform(kEntitiesPerThread));
        const std::uint32_t dice = rng.uniform(100);
        if (dice < 50 || live[entity] == 0) {  // put (new version)
          const Version v = live[entity] + 1;
          const ObjectDescriptor desc = desc_of(tid, entity, v);
          const ObjectDescriptor old = desc_of(tid, entity, live[entity]);
          if (live[entity] != 0) {
            (void)fabric.erase(old);
            (void)fabric.directory().remove(old);
          }
          Status st = fabric.put(
              DataObject::real(desc,
                               PayloadBuffer::wrap(payload_of(tid, entity, v))),
              StoredKind::kPrimary);
          if (!st.ok()) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          ObjectLocation loc;
          loc.primary = fabric.route(desc);
          loc.logical_size = kPayloadBytes;
          fabric.directory().upsert(desc, loc);
          live[entity] = v;
        } else if (dice < 90) {  // verified read
          const ObjectDescriptor desc = desc_of(tid, entity, live[entity]);
          auto got = fabric.get(desc);
          if (!got.ok() ||
              !(got.value().object.data ==
                payload_of(tid, entity, live[entity]))) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          auto loc = fabric.directory().find(desc);
          if (!loc.ok() || loc.value().primary != fabric.route(desc)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } else {  // erase; a re-read must now miss
          const ObjectDescriptor desc = desc_of(tid, entity, live[entity]);
          if (!fabric.erase(desc) || !fabric.directory().remove(desc) ||
              fabric.get(desc).ok()) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          live[entity] = 0;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double sync_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();
  const std::uint64_t sync_ops =
      static_cast<std::uint64_t>(threads) * kOpsPerThread;

  // Async leg: dispatch one more round of puts through the worker pool
  // and verify all of them landed after drain().
  std::atomic<std::uint64_t> async_failures{0};
  const auto async_var = static_cast<VarId>(1000);
  for (int i = 0; i < 256; ++i) {
    ObjectDescriptor desc{async_var, 1,
                          geom::BoundingBox::line(i * 4, i * 4 + 3),
                          staging::kWholeObject};
    fabric.async_put(
        fabric.route(desc),
        DataObject::real(desc, PayloadBuffer::wrap(Bytes(512, 0xA5))),
        StoredKind::kPrimary, [&async_failures](Status st) {
          if (!st.ok()) {
            async_failures.fetch_add(1, std::memory_order_relaxed);
          }
        });
  }
  fabric.drain();
  for (int i = 0; i < 256; ++i) {
    ObjectDescriptor desc{async_var, 1,
                          geom::BoundingBox::line(i * 4, i * 4 + 3),
                          staging::kWholeObject};
    if (!fabric.get(desc).ok()) {
      async_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Ring-encode leg: real threads act as the hops of the pipelined
  // replica→EC ring. Hop j spins until its predecessor's CRC-stamped
  // partial-parity frame lands in the fabric, folds its chunk run with
  // the fused partial kernels, and publishes the accumulated frame for
  // hop j+1. The final frame must be byte-identical to a one-shot
  // centralized encode of the same stripe.
  std::atomic<std::uint64_t> ring_failures{0};
  std::size_t ring_hops = 0;
  {
    constexpr std::size_t kRingK = 8;
    constexpr std::size_t kRingM = 2;
    constexpr std::size_t kRingChunk = 4096;
    auto codec_or = erasure::make_reed_solomon(kRingK, kRingM);
    const erasure::Codec& codec = *codec_or.value();

    Bytes source(kRingK * kRingChunk);
    for (std::size_t i = 0; i < source.size(); ++i) {
      source[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
    }
    PayloadBuffer src = PayloadBuffer::wrap(std::move(source));
    std::vector<ByteSpan> data(kRingK);
    for (std::size_t i = 0; i < kRingK; ++i) {
      data[i] = src.subspan(i * kRingChunk, kRingChunk);
    }

    ring_hops = std::min<std::size_t>(std::max<std::size_t>(threads, 1),
                                      kRingK);
    const std::size_t hops = ring_hops;
    const auto frame_var = static_cast<VarId>(2000);
    auto frame_desc = [&](std::size_t hop) {
      return ObjectDescriptor{frame_var, static_cast<Version>(hop + 1),
                              geom::BoundingBox::line(0, 15),
                              staging::kWholeObject};
    };
    std::vector<std::thread> ring;
    ring.reserve(hops);
    for (std::size_t j = 0; j < hops; ++j) {
      ring.emplace_back([&, j] {
        const std::size_t base = kRingK / hops;
        const std::size_t extra = kRingK % hops;
        const std::size_t first = j * base + std::min(j, extra);
        const std::size_t count = base + (j < extra ? 1 : 0);
        Bytes parity(kRingM * kRingChunk, 0);
        if (j > 0) {
          for (;;) {  // receive the predecessor's frame
            auto got = fabric.get(frame_desc(j - 1));
            if (got.ok()) {
              const DataObject& frame = got.value().object;
              // Frame CRC check — the detection point the corrupt-
              // partial failpoint exercises in the simulator.
              if (frame.data.size() != parity.size() ||
                  frame.data.crc32c() != frame.checksum) {
                ring_failures.fetch_add(1, std::memory_order_relaxed);
              } else {
                std::memcpy(parity.data(), frame.data.data(),
                            parity.size());
              }
              break;
            }
            std::this_thread::yield();
          }
        }
        std::vector<MutableByteSpan> pspans(kRingM);
        for (std::size_t p = 0; p < kRingM; ++p) {
          pspans[p] = MutableByteSpan(parity.data() + p * kRingChunk,
                                      kRingChunk);
        }
        Status st = codec.encode_partial_view(&data[first], first, count,
                                              pspans.data(), kRingM,
                                              /*accumulate=*/j > 0);
        if (!st.ok()) {
          ring_failures.fetch_add(1, std::memory_order_relaxed);
        }
        st = fabric.put(
            DataObject::real(frame_desc(j),
                             PayloadBuffer::wrap(std::move(parity))),
            StoredKind::kPrimary);
        if (!st.ok()) {
          ring_failures.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : ring) t.join();

    Bytes expect(kRingM * kRingChunk, 0);
    {
      std::vector<MutableByteSpan> pspans(kRingM);
      for (std::size_t p = 0; p < kRingM; ++p) {
        pspans[p] = MutableByteSpan(expect.data() + p * kRingChunk,
                                    kRingChunk);
      }
      Status st = codec.encode_view(data.data(), kRingK, pspans.data(),
                                    kRingM);
      if (!st.ok()) {
        ring_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
    auto fin = fabric.get(frame_desc(hops - 1));
    if (!fin.ok() || !(fin.value().object.data == expect)) {
      ring_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const auto stats = fabric.stats();
  const auto shards = fabric.shard_metrics();
  const auto& pm = payload_metrics();
  std::printf("fabric          : %zu servers x %zu shards, %zu client "
              "threads, %zu workers\n",
              fabric.num_servers(), fabric.store(0).shard_count(),
              threads, threads);
  std::printf("sync phase      : %llu ops in %.3f s (%.2f M ops/s)\n",
              static_cast<unsigned long long>(sync_ops), sync_seconds,
              static_cast<double>(sync_ops) / sync_seconds / 1e6);
  std::printf("fabric ops      : %llu puts (%llu failed), %llu gets "
              "(%llu misses), %llu erases\n",
              static_cast<unsigned long long>(stats.puts),
              static_cast<unsigned long long>(stats.put_failures),
              static_cast<unsigned long long>(stats.gets),
              static_cast<unsigned long long>(stats.get_misses),
              static_cast<unsigned long long>(stats.erases));
  std::printf("objects         : %zu live (%zu B), directory %zu\n",
              fabric.total_objects(), fabric.total_bytes(),
              fabric.directory().size());
  std::printf("shard metrics   : %llu lock acquisitions, %llu contended "
              "(%.4f%%), max shard occupancy %llu\n",
              static_cast<unsigned long long>(shards.lock_acquisitions),
              static_cast<unsigned long long>(
                  shards.contended_acquisitions),
              100.0 * shards.contention_rate(),
              static_cast<unsigned long long>(shards.max_shard_occupancy));
  std::printf("payload         : %llu bytes copied on reads, %llu cow "
              "detaches, %llu crc recomputes\n",
              static_cast<unsigned long long>(pm.bytes_copied.load()),
              static_cast<unsigned long long>(pm.cow_detaches.load()),
              static_cast<unsigned long long>(pm.crc_computed.load()));
  std::printf("ring encode     : %zu hop(s) over the fabric, parity %s\n",
              ring_hops,
              ring_failures.load() == 0 ? "byte-identical to one-shot"
                                        : "MISMATCH");
  const std::uint64_t bad =
      mismatches.load() + async_failures.load() + ring_failures.load();
  std::printf("verification    : %s (%llu mismatches, %llu async "
              "failures, %llu ring failures)\n",
              bad == 0 ? "all reads byte-exact" : "MISMATCH",
              static_cast<unsigned long long>(mismatches.load()),
              static_cast<unsigned long long>(async_failures.load()),
              static_cast<unsigned long long>(ring_failures.load()));
  return bad == 0 ? 0 : 1;
}

volatile std::sig_atomic_t g_serve_stop = 0;

// --serve mode: front a ThreadFabric with the RPC event loop so the
// sim binary doubles as a smoke server for the client modes below.
int run_serve(const CliOptions& cli) {
  rpc::ServerOptions options;
  options.port = static_cast<std::uint16_t>(cli.serve_port);
  options.num_servers = cli.servers;
  options.num_loops = cli.serve_loops;
  rpc::Server server(options);
  Status st = server.start();
  if (!st.ok()) {
    std::fprintf(stderr, "--serve: %s\n", st.to_string().c_str());
    return 1;
  }
  std::printf("corec-sim serving on %s:%u (%zu servers, %zu loops)\n",
              server.host().c_str(), server.port(), cli.servers,
              server.num_loops());
  std::fflush(stdout);
  std::signal(SIGINT, [](int) { g_serve_stop = 1; });
  std::signal(SIGTERM, [](int) { g_serve_stop = 1; });
  while (!g_serve_stop) ::poll(nullptr, 0, 200);
  const auto stats = server.stats();
  server.stop();
  std::printf("served %llu frames over %llu connections\n",
              static_cast<unsigned long long>(stats.frames_in),
              static_cast<unsigned long long>(stats.accepted));
  return 0;
}

// --connect mode: byte-verified put/get/query/erase smoke workload
// against a remote corec-server. Returns nonzero on any mismatch.
int run_connect(const CliOptions& cli) {
  const auto colon = cli.connect_addr.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect expects HOST:PORT\n");
    return 2;
  }
  rpc::ClientOptions options;
  options.host = cli.connect_addr.substr(0, colon);
  options.port = flag_uint<std::uint16_t>(
      "--connect", std::string_view(cli.connect_addr).substr(colon + 1));
  rpc::Client client(options);

  Status st = client.ping();
  if (!st.ok()) {
    std::fprintf(stderr, "--connect: ping failed: %s\n",
                 st.to_string().c_str());
    return 1;
  }

  constexpr int kObjects = 64;
  constexpr std::size_t kPayloadBytes = 4096;
  const auto var = static_cast<VarId>(4242);
  Rng rng(cli.seed, 0xc0ec);
  std::uint64_t mismatches = 0;
  auto desc_of = [&](int i) {
    return staging::ObjectDescriptor{
        var, 1, geom::BoundingBox::line(i * 8, i * 8 + 7),
        staging::kWholeObject};
  };
  std::vector<Bytes> payloads;
  payloads.reserve(kObjects);
  for (int i = 0; i < kObjects; ++i) {
    Bytes b(kPayloadBytes);
    for (auto& byte : b) {
      byte = static_cast<std::uint8_t>(rng.uniform(256));
    }
    payloads.push_back(std::move(b));
    st = client.put(desc_of(i), PayloadBuffer::copy_of(payloads.back()));
    if (!st.ok()) ++mismatches;
  }
  for (int i = 0; i < kObjects; ++i) {
    auto got = client.get(desc_of(i));
    if (!got.ok() || !(got->payload == payloads[i])) ++mismatches;
  }
  auto found = client.query(var, 1,
                            geom::BoundingBox::line(0, kObjects * 8 - 1));
  if (!found.ok() || found->size() != kObjects) ++mismatches;
  for (int i = 0; i < kObjects; ++i) {
    auto removed = client.erase(desc_of(i));
    if (!removed.ok() || !*removed) ++mismatches;
    if (client.get(desc_of(i)).ok()) ++mismatches;
  }
  auto remote = client.stat();
  std::printf("connect smoke   : %d objects x %zu B against %s\n",
              kObjects, kPayloadBytes, cli.connect_addr.c_str());
  if (remote.ok()) {
    std::printf("remote fabric   : %llu servers, %llu puts, %llu gets, "
                "%llu erases\n",
                static_cast<unsigned long long>(remote->num_servers),
                static_cast<unsigned long long>(remote->fabric.puts),
                static_cast<unsigned long long>(remote->fabric.gets),
                static_cast<unsigned long long>(remote->fabric.erases));
  }
  std::printf("verification    : %s (%llu mismatches)\n",
              mismatches == 0 ? "all reads byte-exact" : "MISMATCH",
              static_cast<unsigned long long>(mismatches));
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_args(argc, argv, &cli)) {
    usage();
    return 2;
  }
  if (cli.threads > 0) return run_fabric_exercise(cli);
  if (!cli.failpoints.empty() &&
      (cli.serve_port >= 0 || !cli.connect_addr.empty())) {
    Status st = failpoint::registry().arm_from_string(cli.failpoints);
    if (!st.ok()) {
      std::fprintf(stderr, "--failpoints: %s\n", st.message().c_str());
      return 2;
    }
    cli.failpoints.clear();
  }
  if (cli.serve_port >= 0) return run_serve(cli);
  if (!cli.connect_addr.empty()) return run_connect(cli);
  if (!cli.failpoints.empty()) {
    Status st = failpoint::registry().arm_from_string(cli.failpoints);
    if (!st.ok()) {
      std::fprintf(stderr, "--failpoints: %s\n", st.message().c_str());
      return 2;
    }
  }

  // --- assemble workload + service configuration ------------------------
  WorkloadPlan plan;
  staging::ServiceOptions service_opts;
  if (cli.s3d_cores != 0) {
    S3dConfig config;
    switch (cli.s3d_cores) {
      case 4480: config = s3d_4480(); break;
      case 8960: config = s3d_8960(); break;
      case 17920: config = s3d_17920(); break;
      default:
        std::fprintf(stderr, "--s3d must be 4480|8960|17920\n");
        return 2;
    }
    config = scaled(config, cli.s3d_scale);
    config.time_steps = cli.steps;
    plan = make_s3d_plan(config);
    service_opts = s3d_service_options(config);
  } else {
    if (cli.case_number < 1 || cli.case_number > 5) {
      std::fprintf(stderr, "--case must be 1-5\n");
      return 2;
    }
    SyntheticOptions synth;
    synth.time_steps = cli.steps;
    synth.seed = cli.seed;
    if (cli.verify) {
      synth.domain_extent = 32;  // keep the mirror small
      synth.writer_grid = 2;
      synth.readers = 8;
    }
    plan = make_synthetic_case(cli.case_number, synth);
    service_opts = table1_service_options();
    service_opts.domain = plan.domain;
    if (cli.verify) service_opts.fit.target_bytes = 4096;
  }
  if (cli.servers % cli.cabinets != 0) {
    std::fprintf(stderr, "--servers must be divisible by --cabinets\n");
    return 2;
  }
  service_opts.topology =
      net::Topology(cli.cabinets, cli.servers / cli.cabinets, 1);
  service_opts.seed = cli.seed;
  if (cli.pool_placement) {
    service_opts.placement = staging::PlacementMode::kPoolMap;
  }
  if (cli.calibrate) {
    service_opts.cost = net::CostModel::calibrated();
    std::fprintf(stderr,
                 "calibrated gf_region_rate = %.3g B/s (kernel: %s, "
                 "crc32c kernel: %s)\n",
                 service_opts.cost.gf_region_rate,
                 net::gf_kernel_in_use(), crc32c_kernel_name());
  }

  MechanismParams params;
  params.k = cli.k;
  params.m = cli.m;
  params.n_level = cli.n_level;
  params.storage_floor = cli.floor;
  if (cli.batch_encode && cli.pipeline_encode) {
    std::fprintf(stderr,
                 "--batch-encode and --pipeline-encode are exclusive\n");
    return 2;
  }
  if (cli.batch_encode) {
    params.transitions = core::TransitionStrategy::kBatched;
  } else if (cli.pipeline_encode) {
    params.transitions = core::TransitionStrategy::kPipelined;
  }
  Mechanism mechanism = parse_mechanism(cli.mechanism);

  // --- run ---------------------------------------------------------------
  sim::Simulation sim;
  staging::StagingService service(service_opts, &sim,
                                  make_scheme(mechanism, params));
  std::unique_ptr<meta::MetaService> meta_service;
  std::unique_ptr<meta::MetaClient> meta_client;
  if (cli.meta_followers > 0) {
    meta::MetaOptions meta_opts;
    meta_opts.followers = cli.meta_followers;
    meta_service = std::make_unique<meta::MetaService>(&service, meta_opts);
    meta_client = std::make_unique<meta::MetaClient>(meta_service.get());
    service.attach_metadata(meta_client.get());
  } else if (!cli.meta_kills.empty()) {
    std::fprintf(stderr, "--meta-kill requires --meta K\n");
    return 2;
  }
  DriverOptions driver_opts;
  driver_opts.verify_reads = cli.verify;
  WorkloadDriver driver(&service, driver_opts);
  for (Version step : cli.meta_kills) {
    driver.add_hook(step, [&meta_service] {
      meta_service->fail_replica(meta_service->primary_host());
    });
  }
  for (auto [step, server] : cli.fails) {
    driver.add_hook(step,
                    [&service, s = server] { service.kill_server(s); });
  }
  for (auto [step, server] : cli.replaces) {
    driver.add_hook(
        step, [&service, s = server] { service.replace_server(s); });
  }
  std::unique_ptr<membership::Manager> member_mgr;
  if (!cli.joins.empty() || !cli.drains.empty()) {
    membership::ManagerOptions mm_opts;
    mm_opts.replication_group = cli.n_level + 1;
    member_mgr = std::make_unique<membership::Manager>(&service, mm_opts);
    for (Version step : cli.joins) {
      driver.add_hook(step, [&sim, mgr = member_mgr.get()] {
        mgr->begin_join(sim.now());
        mgr->run_to_completion(sim.now());
      });
    }
    for (auto [step, server] : cli.drains) {
      driver.add_hook(step, [&sim, mgr = member_mgr.get(), s = server] {
        Status st = mgr->begin_drain(s, sim.now());
        if (!st.ok()) {
          std::fprintf(stderr, "--drain %u: %s\n", s,
                       st.to_string().c_str());
          return;
        }
        mgr->run_to_completion(sim.now());
      });
    }
  }
  std::unique_ptr<resilience::Scrubber> scrubber;
  if (cli.scrub_mtbf > 0) {
    resilience::ScrubOptions scrub_opts;
    scrub_opts.mtbf_seconds = cli.scrub_mtbf;
    scrubber =
        std::make_unique<resilience::Scrubber>(&service, scrub_opts);
    scrubber->start();
  }
  RunMetrics metrics = driver.run(plan);

  // --- report -------------------------------------------------------------
  if (cli.csv) {
    std::printf("step,write_ms,read_ms,write_fail,read_fail,data_loss\n");
    for (std::size_t ts = 0; ts < metrics.steps.size(); ++ts) {
      const auto& s = metrics.steps[ts];
      std::printf("%zu,%.6f,%.6f,%zu,%zu,%zu\n", ts,
                  s.write_response.mean() * 1e3,
                  s.read_response.mean() * 1e3, s.write_failures,
                  s.read_failures, s.data_loss_reads);
    }
    return 0;
  }

  std::printf("workload        : %s (%zu steps)\n", plan.name.c_str(),
              metrics.steps.size());
  std::printf("mechanism       : %s\n", cli.mechanism.c_str());
  std::printf("cluster         : %zu servers / %zu cabinets, RS(%zu+%zu),"
              " %zu replica(s), floor %.0f%%\n",
              cli.servers, cli.cabinets, cli.k, cli.m, cli.n_level,
              cli.floor * 100);
  std::printf("write response  : %.3f ms avg over %zu puts\n",
              metrics.avg_write_response() * 1e3, metrics.total_writes);
  std::printf("read response   : %.3f ms avg over %zu gets\n",
              metrics.avg_read_response() * 1e3, metrics.total_reads);
  std::printf("storage eff.    : %.0f%%\n",
              metrics.storage_efficiency * 100);
  std::printf("makespan        : %.3f s (virtual)\n",
              to_seconds(metrics.makespan));
  std::printf("failures        : %zu data-loss reads, %zu corrupt\n",
              metrics.data_loss_reads(), metrics.corrupt_reads());
  if (auto* corec = dynamic_cast<core::CorecScheme*>(&service.scheme())) {
    std::printf("corec           : %llu fast-path writes, %llu "
                "transitioned, %llu demotions, %llu promotions, "
                "repair backlog %zu\n",
                static_cast<unsigned long long>(
                    corec->stats().writes_replicated),
                static_cast<unsigned long long>(
                    corec->stats().writes_encoded),
                static_cast<unsigned long long>(
                    corec->stats().demotions),
                static_cast<unsigned long long>(
                    corec->stats().promotions),
                corec->repair_backlog());
    if (const auto* pe = corec->pipelined_encoder()) {
      const auto& ps = pe->stats();
      std::printf("pipeline encode : %llu ring(s) over %llu hop(s), "
                  "%llu fallback(s), %llu corrupt frame(s); max node "
                  "%llu B moved\n",
                  static_cast<unsigned long long>(ps.ring_encodes),
                  static_cast<unsigned long long>(ps.hops),
                  static_cast<unsigned long long>(ps.fallbacks),
                  static_cast<unsigned long long>(ps.corrupt_partials),
                  static_cast<unsigned long long>(
                      ps.max_node_bytes_moved));
    }
  }
  if (meta_service != nullptr) {
    const auto& ms = meta_service->stats();
    // Report the group the service actually built (the requested K is
    // clamped to the number of servers) as it stands at run end.
    std::size_t group = meta_service->replica_hosts().size();
    std::printf("metadata        : primary+%zu followers, %llu ops logged"
                " (%llu B streamed), %llu snapshots (%llu B shipped)\n",
                group - (meta_service->available() ? 1 : 0),
                static_cast<unsigned long long>(ms.ops_logged),
                static_cast<unsigned long long>(ms.log_bytes_streamed),
                static_cast<unsigned long long>(ms.snapshots_taken),
                static_cast<unsigned long long>(ms.snapshot_bytes_shipped));
    std::printf("meta latencies  : replication lag %.1f us avg; "
                "%llu failover(s) %.1f us avg; %llu catch-up(s) %.1f us "
                "avg; %llu unacked op(s) lost\n",
                ms.replication_lag.mean() / 1e3,
                static_cast<unsigned long long>(ms.failovers),
                ms.failover_time.mean() / 1e3,
                static_cast<unsigned long long>(ms.catchups),
                ms.catchup_time.mean() / 1e3,
                static_cast<unsigned long long>(ms.ops_lost_unacked));
  }
  {
    const auto& in = service.integrity();
    std::vector<std::string> armed = failpoint::registry().armed();
    if (!cli.failpoints.empty() || in.checks > 0) {
      std::printf("integrity       : %llu checksum checks, %llu "
                  "mismatches, %llu quarantined; %zu failpoint(s) still "
                  "armed\n",
                  static_cast<unsigned long long>(in.checks),
                  static_cast<unsigned long long>(in.mismatches),
                  static_cast<unsigned long long>(in.quarantined),
                  armed.size());
    }
  }
  if (member_mgr != nullptr) {
    for (const auto& t : member_mgr->history()) {
      std::string target_label =
          t.target == kInvalidServer ? ""
                                     : " s" + std::to_string(t.target);
      std::printf("membership      : %s%s -> map v%llu: %llu scanned, "
                  "%llu moved, %llu rebuilt, %llu skipped, %llu B moved "
                  "in %.3f s (token wait %.3f s)%s\n",
                  membership::to_string(t.kind), target_label.c_str(),
                  static_cast<unsigned long long>(t.map_version),
                  static_cast<unsigned long long>(t.objects_scanned),
                  static_cast<unsigned long long>(t.objects_moved),
                  static_cast<unsigned long long>(t.objects_rebuilt),
                  static_cast<unsigned long long>(t.objects_skipped),
                  static_cast<unsigned long long>(t.bytes_moved),
                  to_seconds(t.finished - t.started),
                  to_seconds(t.token_wait),
                  t.aborted ? " [ABORTED]" : "");
    }
  }
  if (scrubber != nullptr) {
    const auto& ss = scrubber->stats();
    std::printf("scrubber        : %llu pass(es), %llu shards verified "
                "(%llu B), %llu corrupt, %llu missing, %llu repairs\n",
                static_cast<unsigned long long>(ss.passes_completed),
                static_cast<unsigned long long>(ss.shards_verified),
                static_cast<unsigned long long>(ss.bytes_verified),
                static_cast<unsigned long long>(ss.corruptions_found),
                static_cast<unsigned long long>(ss.missing_found),
                static_cast<unsigned long long>(ss.repairs_triggered));
  }
  if (cli.verify) {
    std::printf("verification    : %s\n",
                metrics.corrupt_reads() == 0 ? "all reads byte-exact"
                                             : "CORRUPTION DETECTED");
    return metrics.corrupt_reads() == 0 ? 0 : 1;
  }
  return 0;
}
