// micro_rpc — multi-process open-loop load generator for the
// corec-server RPC path. Forks N client processes against a running
// server; each process drives its own corec_client connection pool and
// records per-op latency into a log-spaced histogram in shared memory.
// The parent merges the histograms and prints one JSON record with
// throughput and p50/p95/p99 latency — the data behind BENCH_rpc.json.
//
//   micro_rpc --port P [--host H] [--clients 4] [--seconds 2]
//             [--mix put|get|mixed] [--bytes 4096] [--rate OPS]
//             [--connections N] [--inflight M] [--pipeline D]
//
// --rate > 0 runs open-loop: ops are released on an exponential
// arrival schedule per client and latency includes queueing delay
// behind a slow server (coordinated omission is not hidden).
// --rate 0 (default) runs closed-loop.
//
// --connections N opens N total TCP connections spread across the
// client processes (eagerly connected before the measured window), and
// --inflight M drives M concurrent requester threads per process over
// that pool — the C10k sweep shape: thousands of mostly-idle open
// connections with a bounded number of in-flight requests, which is
// exactly what a staging service absorbing bursty checkpoint ranks
// sees.
//
// --pipeline D switches each child to a raw-socket event-driven
// driver: one thread polls the child's whole connection share, keeping
// up to D requests outstanding per connection (responses matched by
// request id). The bursts of D back-to-back requests are what exercise
// the server's writev coalescing — the library client's
// one-outstanding-per-channel discipline never queues two responses on
// one connection, so syscalls-per-frame can't drop below 1 without
// this mode. --inflight is ignored when --pipeline is set.
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "rpc/client.hpp"
#include "rpc/frame.hpp"
#include "rpc/protocol.hpp"
#include "rpc/socket.hpp"

namespace {

using corec::Bytes;
using corec::PayloadBuffer;
using corec::VarId;
using corec::Version;
using corec::rpc::Client;
using corec::rpc::ClientOptions;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBuckets = 512;
constexpr double kBucketGrowth = 1.04;

// POD result block, one per child, in MAP_SHARED anonymous memory.
struct ChildResult {
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  std::uint64_t bytes = 0;
  std::uint64_t max_us = 0;
  std::uint64_t hist[kBuckets] = {};
};

std::size_t bucket_of(double us) {
  if (us < 0) us = 0;
  const auto idx = static_cast<std::size_t>(
      std::log(us + 1.0) / std::log(kBucketGrowth));
  return idx >= kBuckets ? kBuckets - 1 : idx;
}

double bucket_floor_us(std::size_t idx) {
  return std::pow(kBucketGrowth, static_cast<double>(idx)) - 1.0;
}

double percentile_us(const std::uint64_t* hist, std::uint64_t total,
                     double q) {
  if (total == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += hist[i];
    if (seen > target) {
      return (bucket_floor_us(i) + bucket_floor_us(i + 1)) / 2.0;
    }
  }
  return bucket_floor_us(kBuckets);
}

struct Config {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t clients = 4;
  double seconds = 2.0;
  std::string mix = "mixed";  // put | get | mixed
  std::size_t payload_bytes = 4096;
  double rate = 0.0;  // per-thread target ops/s; 0 = closed loop
  std::size_t connections = 0;  // total open channels; 0 = 2 per client
  std::size_t inflight = 1;     // requester threads per client process
  std::size_t pipeline = 0;     // outstanding per connection; 0 = off
  std::uint64_t seed = 42;
};

std::size_t conns_per_child(const Config& cfg) {
  return cfg.connections > 0
             ? std::max<std::size_t>(1, cfg.connections / cfg.clients)
             : 2;
}

Bytes pattern(std::size_t n, std::uint64_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed * 131 + i * 7);
  }
  return b;
}

corec::staging::ObjectDescriptor desc_of(std::size_t child, int entity,
                                         Version version) {
  // 8192 entity slots per child keep multi-thread keyspaces disjoint
  // across children (inflight * 64 entities each).
  const auto cell = static_cast<corec::geom::Coord>(child) * 8192 + entity;
  return {static_cast<VarId>(9000 + child), version,
          corec::geom::BoundingBox::line(cell * 8, cell * 8 + 7),
          corec::staging::kWholeObject};
}

// One requester thread's closed/open loop over its private entity
// range; results land in a thread-local block the child merges.
void run_requester(const Config& cfg, Client& client, std::size_t child,
                   std::size_t thread, ChildResult* out) {
  constexpr int kEntities = 64;
  const int base = static_cast<int>(thread) * kEntities;

  // Seed the keyspace so gets always hit.
  std::vector<Version> live(kEntities, 1);
  for (int e = 0; e < kEntities; ++e) {
    if (!client
             .put(desc_of(child, base + e, 1),
                  PayloadBuffer::wrap(pattern(
                      cfg.payload_bytes, child * 1000 + base + e)))
             .ok()) {
      out->errors += 1;
    }
  }

  std::mt19937_64 rng(cfg.seed * 7919 + child * 131 + thread);
  std::uniform_int_distribution<int> pick_entity(0, kEntities - 1);
  std::uniform_int_distribution<int> pick_op(0, 99);
  std::exponential_distribution<double> interarrival(
      cfg.rate > 0 ? cfg.rate : 1.0);

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  auto next_release = start;
  while (Clock::now() < deadline) {
    if (cfg.rate > 0) {
      next_release += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(interarrival(rng)));
    }
    const int entity = pick_entity(rng);
    bool is_put = cfg.mix == "put" ||
                  (cfg.mix == "mixed" && pick_op(rng) < 50);
    // A put's payload is filled before the clock starts: writing a
    // multi-MiB pattern is the load generator's cost, not the server's.
    Version v = 0;
    PayloadBuffer payload;
    if (is_put) {
      v = ++live[entity];
      payload = PayloadBuffer::wrap(
          pattern(cfg.payload_bytes, child * 1000 + base + entity + v));
    }
    if (cfg.rate > 0) {
      // Open loop: each op has a scheduled release time; latency is
      // measured from the schedule, so server slowness shows up as
      // queueing delay instead of silently lowering the offered load.
      std::this_thread::sleep_until(next_release);
    }
    const auto op_start = cfg.rate > 0 ? next_release : Clock::now();
    bool ok;
    std::size_t moved = cfg.payload_bytes;
    if (is_put) {
      ok = client.put(desc_of(child, base + entity, v), std::move(payload))
               .ok();
      if (ok && v > 1) {
        (void)client.erase(desc_of(child, base + entity, v - 1));
      }
    } else {
      auto got = client.get(desc_of(child, base + entity, live[entity]));
      ok = got.ok();
      if (ok) moved = got->payload.size();
    }
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - op_start)
            .count();
    if (ok) {
      out->ops += 1;
      out->bytes += moved;
      out->hist[bucket_of(us)] += 1;
      const auto us_int = static_cast<std::uint64_t>(us);
      if (us_int > out->max_us) out->max_us = us_int;
    } else {
      out->errors += 1;
    }
  }
}

// ---- pipelined raw-socket driver (--pipeline D) --------------------------
// Frames are built by hand and responses matched by request id, so one
// connection carries D concurrent ops. Each top-up writes the whole
// burst with a single send, which lands server-side as a multi-frame
// recv batch — the shape that exercises writev response coalescing.

struct PipeConn {
  corec::rpc::OwnedFd fd;
  corec::rpc::FrameAssembler assembler;
  // request id -> (send time, was-a-put)
  std::unordered_map<std::uint64_t, std::pair<Clock::time_point, bool>>
      inflight;
  bool dead = false;
};

int run_pipelined_child(const Config& cfg, std::size_t child,
                        ChildResult* out) {
  using corec::rpc::FrameHeader;
  using corec::rpc::OpCode;
  constexpr int kEntities = 64;

  // Seed the read keyspace (version 1, never overwritten) through the
  // library client so pipelined gets always hit; pipelined puts write
  // ever-fresh versions so no in-flight get races an overwrite.
  {
    ClientOptions copts;
    copts.host = cfg.host;
    copts.port = cfg.port;
    copts.pool_size = 1;
    copts.max_retries = 2;
    copts.retry_backoff_ms = 1;
    Client seeder(copts);
    for (int e = 0; e < kEntities; ++e) {
      if (!seeder
               .put(desc_of(child, e, 1),
                    PayloadBuffer::wrap(
                        pattern(cfg.payload_bytes, child * 1000 + e)))
               .ok()) {
        out->errors += 1;
        return 1;
      }
    }
  }

  const std::size_t k = conns_per_child(cfg);
  std::vector<PipeConn> conns(k);
  for (std::size_t i = 0; i < k; ++i) {
    auto fd = corec::rpc::connect_tcp(cfg.host, cfg.port, 5000);
    if (!fd.ok()) {
      out->errors += 1;
      return 1;
    }
    conns[i].fd = std::move(*fd);
    (void)corec::rpc::set_nonblocking(conns[i].fd.get());
  }

  std::mt19937_64 rng(cfg.seed * 7919 + child * 131);
  std::uniform_int_distribution<int> pick_entity(0, kEntities - 1);
  std::uniform_int_distribution<int> pick_op(0, 99);
  std::uint64_t next_id = 1;
  // Puts overwrite a bounded slot set (version 2, disjoint from the
  // version-1 read keyspace) instead of minting a fresh version per
  // request: each overwrite releases the previous payload back to the
  // server's slab pool, so a long pipelined run measures steady-state
  // recycling (~0 pool misses/op) rather than unbounded store growth.
  constexpr int kPutSlots = 256;

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds));
  std::vector<pollfd> pfds(k);
  Bytes burst;
  while (Clock::now() < deadline) {
    // Top up every connection to D outstanding in one send burst.
    std::size_t alive = 0;
    for (PipeConn& pc : conns) {
      if (pc.dead) continue;
      alive += 1;
      burst.clear();
      const auto now = Clock::now();
      while (pc.inflight.size() < cfg.pipeline) {
        const std::uint64_t id = next_id++;
        const int entity = pick_entity(rng);
        const bool is_put =
            cfg.mix == "put" || (cfg.mix == "mixed" && pick_op(rng) < 50);
        FrameHeader h;
        h.request_id = id;
        if (is_put) {
          corec::rpc::PutRequest req;
          req.desc = desc_of(child, entity % kPutSlots, 2);
          PayloadBuffer payload = PayloadBuffer::wrap(
              pattern(cfg.payload_bytes, child * 1000 + entity));
          req.checksum = payload.crc32c();
          req.logical_size = payload.size();
          const Bytes prefix = corec::rpc::encode_put_prefix(req);
          h.opcode = static_cast<std::uint8_t>(OpCode::kPut);
          h.body_len =
              static_cast<std::uint32_t>(prefix.size() + payload.size());
          corec::rpc::encode_frame_header(h, &burst);
          burst.insert(burst.end(), prefix.begin(), prefix.end());
          const corec::ByteSpan pay = payload.span();
          burst.insert(burst.end(), pay.data(), pay.data() + pay.size());
        } else {
          const Bytes body =
              corec::rpc::encode_get_request(desc_of(child, entity, 1));
          h.opcode = static_cast<std::uint8_t>(OpCode::kGet);
          h.body_len = static_cast<std::uint32_t>(body.size());
          corec::rpc::encode_frame_header(h, &burst);
          burst.insert(burst.end(), body.begin(), body.end());
        }
        pc.inflight.emplace(id, std::make_pair(now, is_put));
      }
      if (!burst.empty() &&
          !corec::rpc::send_all(pc.fd.get(), burst, 5000).ok()) {
        pc.dead = true;
        out->errors += 1;
      }
    }
    if (alive == 0) return 1;

    // Reap whatever responses have arrived.
    for (std::size_t i = 0; i < k; ++i) {
      pfds[i].fd = conns[i].dead ? -1 : conns[i].fd.get();
      pfds[i].events = POLLIN;
      pfds[i].revents = 0;
    }
    if (::poll(pfds.data(), static_cast<nfds_t>(k), 50) <= 0) continue;
    for (std::size_t i = 0; i < k; ++i) {
      if (!(pfds[i].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      PipeConn& pc = conns[i];
      for (;;) {
        corec::MutableByteSpan span = pc.assembler.next_span();
        if (span.empty()) {
          pc.dead = true;
          out->errors += 1;
          break;
        }
        const ssize_t n =
            ::recv(pc.fd.get(), span.data(), span.size(), MSG_DONTWAIT);
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          pc.dead = true;
          out->errors += 1;
          break;
        }
        if (n == 0) {
          pc.dead = true;
          out->errors += 1;
          break;
        }
        if (!pc.assembler.advance(static_cast<std::size_t>(n)).ok()) {
          pc.dead = true;
          out->errors += 1;
          break;
        }
        while (pc.assembler.frame_ready()) {
          corec::rpc::Frame f = pc.assembler.take_frame();
          auto it = pc.inflight.find(f.header.request_id);
          if (it == pc.inflight.end()) {
            out->errors += 1;
            continue;
          }
          const double us = std::chrono::duration<double, std::micro>(
                                Clock::now() - it->second.first)
                                .count();
          const bool was_put = it->second.second;
          pc.inflight.erase(it);
          if (f.header.code == 0) {
            out->ops += 1;
            out->bytes += was_put ? cfg.payload_bytes : f.body.size();
            out->hist[bucket_of(us)] += 1;
            const auto us_int = static_cast<std::uint64_t>(us);
            if (us_int > out->max_us) out->max_us = us_int;
          } else {
            out->errors += 1;
          }
        }
        if (pc.dead) break;
      }
    }
  }
  return 0;
}

int run_child(const Config& cfg, std::size_t child, ChildResult* out) {
  if (cfg.pipeline > 0) return run_pipelined_child(cfg, child, out);
  ClientOptions copts;
  copts.host = cfg.host;
  copts.port = cfg.port;
  copts.pool_size =
      cfg.connections > 0
          ? std::max<std::size_t>(1, cfg.connections / cfg.clients)
          : 2;
  copts.max_retries = 2;
  copts.retry_backoff_ms = 1;
  Client client(copts);
  if (!client.ping().ok()) {
    out->errors += 1;
    return 1;
  }
  // Open the full connection share up front so the sweep measures a
  // server holding `connections` registered fds, not a lazily-growing
  // pool.
  if (cfg.connections > 0 && !client.connect_pool().ok()) {
    out->errors += 1;
    return 1;
  }

  std::vector<ChildResult> per_thread(cfg.inflight);
  std::vector<std::thread> threads;
  threads.reserve(cfg.inflight);
  for (std::size_t t = 0; t < cfg.inflight; ++t) {
    threads.emplace_back([&, t] {
      run_requester(cfg, client, child, t, &per_thread[t]);
    });
  }
  for (auto& t : threads) t.join();
  for (const ChildResult& r : per_thread) {
    out->ops += r.ops;
    out->errors += r.errors;
    out->bytes += r.bytes;
    if (r.max_us > out->max_us) out->max_us = r.max_us;
    for (std::size_t b = 0; b < kBuckets; ++b) out->hist[b] += r.hist[b];
  }
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: micro_rpc --port P [--host H] [--clients N] "
               "[--seconds S] [--mix put|get|mixed] [--bytes B] "
               "[--rate OPS] [--connections N] [--inflight M] "
               "[--pipeline D] [--seed N]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--host") {
      cfg.host = next();
    } else if (a == "--port") {
      cfg.port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (a == "--clients") {
      cfg.clients = static_cast<std::size_t>(std::atol(next()));
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(next());
    } else if (a == "--mix") {
      cfg.mix = next();
    } else if (a == "--bytes") {
      cfg.payload_bytes = static_cast<std::size_t>(std::atol(next()));
    } else if (a == "--rate") {
      cfg.rate = std::atof(next());
    } else if (a == "--connections") {
      cfg.connections = static_cast<std::size_t>(std::atol(next()));
    } else if (a == "--inflight") {
      cfg.inflight = static_cast<std::size_t>(std::atol(next()));
    } else if (a == "--pipeline") {
      cfg.pipeline = static_cast<std::size_t>(std::atol(next()));
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(next(), nullptr, 10);
    } else {
      usage();
      return 2;
    }
  }
  if (cfg.port == 0 || cfg.clients == 0 || cfg.inflight == 0 ||
      (cfg.mix != "put" && cfg.mix != "get" && cfg.mix != "mixed")) {
    usage();
    return 2;
  }

  auto* results = static_cast<ChildResult*>(
      ::mmap(nullptr, sizeof(ChildResult) * cfg.clients,
             PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0));
  if (results == MAP_FAILED) {
    std::perror("mmap");
    return 1;
  }
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    new (&results[c]) ChildResult();
  }

  const auto wall_start = Clock::now();
  std::vector<pid_t> children;
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      std::exit(run_child(cfg, c, &results[c]));
    }
    children.push_back(pid);
  }
  int exit_code = 0;
  for (pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) exit_code = 1;
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  std::uint64_t ops = 0, errors = 0, bytes = 0, max_us = 0;
  std::uint64_t hist[kBuckets] = {};
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    ops += results[c].ops;
    errors += results[c].errors;
    bytes += results[c].bytes;
    if (results[c].max_us > max_us) max_us = results[c].max_us;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      hist[b] += results[c].hist[b];
    }
  }

  const std::size_t pool_per_client = conns_per_child(cfg);
  // "read_chunk" stays in the record (BENCH_rpc.json consumers read it);
  // every client reads through the default pooled buffer size.
  std::printf(
      "{\"mix\":\"%s\",\"clients\":%zu,\"connections\":%zu,"
      "\"inflight\":%zu,\"pipeline\":%zu,\"read_chunk\":%zu,"
      "\"seconds\":%.3f,"
      "\"payload_bytes\":%zu,\"rate_per_client\":%.1f,"
      "\"ops\":%llu,\"errors\":%llu,"
      "\"throughput_ops_s\":%.1f,\"throughput_mib_s\":%.2f,"
      "\"p50_us\":%.1f,\"p95_us\":%.1f,\"p99_us\":%.1f,"
      "\"max_us\":%llu,\"crc_kernel\":\"%s\"}\n",
      cfg.mix.c_str(), cfg.clients, pool_per_client * cfg.clients,
      cfg.inflight, cfg.pipeline, corec::rpc::kDefaultReadChunkBytes, wall,
      cfg.payload_bytes,
      cfg.rate,
      static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(errors),
      static_cast<double>(ops) / wall,
      static_cast<double>(bytes) / wall / (1024.0 * 1024.0),
      percentile_us(hist, ops, 0.50), percentile_us(hist, ops, 0.95),
      percentile_us(hist, ops, 0.99),
      static_cast<unsigned long long>(max_us), corec::crc32c_kernel_name());
  ::munmap(results, sizeof(ChildResult) * cfg.clients);
  return exit_code;
}
